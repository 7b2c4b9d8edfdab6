package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func quickOpts() Options {
	return Options{
		Warmup:    1,
		Iters:     1,
		Detectors: []string{"vft-v1", "vft-v2"},
		Quick:     true,
		Programs:  []string{"series", "sparse", "h2"},
	}
}

func TestRunProducesCompleteTable(t *testing.T) {
	table, err := Run(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	for _, r := range table.Rows {
		if r.BaseTime <= 0 {
			t.Errorf("%s: base time %v", r.Program, r.BaseTime)
		}
		for _, det := range quickOpts().Detectors {
			if _, ok := r.Overhead[det]; !ok {
				t.Errorf("%s: missing overhead for %s", r.Program, det)
			}
			if n := r.Reports[det]; n != 0 {
				t.Errorf("%s under %s: %d race reports on the race-free suite", r.Program, det, n)
			}
		}
	}
	for _, det := range quickOpts().Detectors {
		if table.GeoMean[det] <= 0 {
			t.Errorf("geo mean for %s = %f", det, table.GeoMean[det])
		}
	}
}

func TestRunUnknownProgram(t *testing.T) {
	opts := quickOpts()
	opts.Programs = []string{"doom"}
	if _, err := Run(opts); err == nil {
		t.Fatal("want error for unknown program")
	}
}

func TestFormat(t *testing.T) {
	table := &Table{
		Options: Options{Detectors: []string{"ft-mutex", "vft-v2"}},
		Rows: []Row{
			{
				Program: "crypt", Suite: "javagrande",
				BaseTime: 400 * time.Millisecond,
				Overhead: map[string]float64{"ft-mutex": 112.6, "vft-v2": 92.14},
				Reports:  map[string]int{},
			},
			{
				Program: "avrora", Suite: "dacapo",
				BaseTime: 6180 * time.Millisecond,
				Overhead: map[string]float64{"ft-mutex": 1.6, "vft-v2": 1.56},
				Reports:  map[string]int{"vft-v2": 2},
			},
		},
		GeoMean: map[string]float64{"ft-mutex": 8.87, "vft-v2": 8.12},
	}
	var buf bytes.Buffer
	if err := table.Format(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Program", "Mutex", "v2", "crypt", "avrora", "Geo Mean", "8.87", "8.12", "(!2 races)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestGeoMeanClampsFloor(t *testing.T) {
	rows := []Row{
		{Overhead: map[string]float64{"d": 0.0}},
		{Overhead: map[string]float64{"d": 100.0}},
	}
	gm := geoMean(rows, "d")
	if gm <= 0 {
		t.Fatalf("geo mean = %f", gm)
	}
	// sqrt(0.01 * 100) = 1
	if gm < 0.9 || gm > 1.1 {
		t.Fatalf("geo mean = %f, want ~1", gm)
	}
}

// The core performance claim at the heart of Table 1: on the read-shared
// extreme (sparse), v2 must beat v1 clearly; and v1 must never beat v2 on
// the suite overall. Run at small-but-not-tiny size to keep the test fast
// yet the contrast visible.
func TestV2BeatsV1OnSparse(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	opts := Options{
		Warmup:    1,
		Iters:     3,
		Detectors: []string{"vft-v1", "vft-v2"},
		Programs:  []string{"sparse"},
	}
	// Mid-scale size: large enough for the lock serialization to bite.
	table, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	r := table.Rows[0]
	v1, v2 := r.Overhead["vft-v1"], r.Overhead["vft-v2"]
	t.Logf("sparse: v1 overhead %.2fx, v2 overhead %.2fx", v1, v2)
	if v2 >= v1 {
		t.Errorf("v2 (%.2fx) should beat v1 (%.2fx) on sparse", v2, v1)
	}
}

func TestDefaultOptions(t *testing.T) {
	opts := DefaultOptions()
	if opts.Iters <= 0 || opts.Warmup < 0 || len(opts.Detectors) != 5 {
		t.Fatalf("DefaultOptions = %+v", opts)
	}
}

func TestBuildDetectorResolvesElide(t *testing.T) {
	d := buildDetector("vft-v2+elide")
	if d.Name() != "vft-v2+elide" {
		t.Fatalf("Name = %q", d.Name())
	}
	plain := buildDetector("djit")
	if plain.Name() != "djit" {
		t.Fatalf("Name = %q", plain.Name())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown detector should panic")
		}
	}()
	buildDetector("nope+elide")
}

func TestFormatCSV(t *testing.T) {
	table := &Table{
		Options: Options{Detectors: []string{"vft-v2"}},
		Rows: []Row{{
			Program: "crypt", Suite: "javagrande",
			BaseTime: 250 * time.Millisecond,
			Overhead: map[string]float64{"vft-v2": 3.5},
			Reports:  map[string]int{},
		}},
		GeoMean: map[string]float64{"vft-v2": 3.5},
	}
	var buf bytes.Buffer
	if err := table.FormatCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"program,suite,base_seconds,vft-v2_overhead",
		"crypt,javagrande,0.250000,3.5000",
		"geo_mean,,,3.5000",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("csv missing %q:\n%s", want, out)
		}
	}
}

func TestAblationResult(t *testing.T) {
	r := AblationResult{
		Name: "x", ArmA: "A", ArmB: "B",
		TimeA: 100 * time.Millisecond, TimeB: 170 * time.Millisecond,
	}
	if s := r.Speedup(); s < 1.69 || s > 1.71 {
		t.Fatalf("Speedup = %f", s)
	}
	if out := r.String(); !strings.Contains(out, "1.70x") {
		t.Fatalf("String = %q", out)
	}
}

func TestFmtOverheadRanges(t *testing.T) {
	cases := map[float64]string{
		-0.5:  "0.00",
		0.013: "0.01",
		3.456: "3.46",
		115.7: "115.7",
	}
	for in, want := range cases {
		if got := fmtOverhead(in); got != want {
			t.Errorf("fmtOverhead(%v) = %q, want %q", in, got, want)
		}
	}
}
