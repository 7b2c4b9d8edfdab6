package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/workloads"
)

// tinyConfig runs every workload at a size that takes well under a second.
func tinyConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.Seed = 7
	cfg.Seconds = 50 * time.Millisecond
	cfg.Dir = t.TempDir()
	cfg.Setups = 1
	cfg.OfflineSteps = 3000
	cfg.OnlineSizes = map[string]int{}
	for _, name := range onlinePrograms {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg.OnlineSizes[name] = w.TestSize
	}
	cfg.ServerSteps = 400
	cfg.ServerBodies = 4
	return cfg
}

type benchMetric struct{ Name, Unit string }

// benchmarkJSON reads the metric lists of the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer []benchMetric) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.EndToEnd, doc.PerLayer
}

// TestEveryMetricPrinted runs each workload untraced and traced at a tiny
// size and checks that it reports exactly the metrics BENCHMARK.json
// names, each with its unit, and that no correctness check failed.
func TestEveryMetricPrinted(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	if len(e2e) != len(endToEnd) || len(layers) != len(perLayer()) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d", len(e2e), len(layers), len(endToEnd), len(perLayer()))
	}
	for name, runner := range runners {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t)
			cfg.Trace = traced
			res, _, err := execute(name, runner, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d checks failed: %v", name, traced, res.Failed, res.Attempted, res.Failures)
			}
			want := e2e
			if traced {
				want = layers
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				case got.Unit == "" || got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestPlantedFaultsAreCounted plants one wrong report and one non-200
// upload and checks that each is counted in failed_frac.
func TestPlantedFaultsAreCounted(t *testing.T) {
	for _, tc := range []struct {
		workload string
		plant    func(*config)
	}{
		{"offline-core", func(c *config) { c.PlantWrongReport = true }},
		{"online-table1", func(c *config) { c.PlantWrongReport = true }},
		{"server-upload", func(c *config) { c.PlantBadUpload = true }},
	} {
		cfg := tinyConfig(t)
		tc.plant(&cfg)
		res, _, err := execute(tc.workload, runners[tc.workload], cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		if res.Failed != 1 {
			t.Errorf("%s: %d failed checks, want the 1 planted: %v", tc.workload, res.Failed, res.Failures)
		}
		if got, want := failedFrac(res), 1/float64(res.Attempted); got != want {
			t.Errorf("%s: failed_frac %v, want %v", tc.workload, got, want)
		}
		var out bytes.Buffer
		printSummary(&out, provenance{}, res)
		if !strings.Contains(out.String(), "FAILED: ") {
			t.Errorf("%s: summary does not name the failure:\n%s", tc.workload, out.String())
		}
	}
}

func TestBadArgumentsExitWithoutResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "offline-core", "--seconds", "0"},
		{"--workload", "offline-core", "--trace", "2"},
	} {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 50},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past root
	}
	self := tr.selfTimes()
	if got := self["root"]; got != 100-40-10 {
		t.Errorf("root self time %d, want 50", got)
	}
	if got := self["a"]; got != 30 {
		t.Errorf("leaf self time %d, want its duration 30", got)
	}
}
