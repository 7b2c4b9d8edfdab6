package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parcheck"
	"repro/internal/rtsim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// FastPathOptions configures the clock-layer benchmark (EXPERIMENTS.md
// E20): same-epoch fast-path latency and allocations per detector, plus
// end-to-end offline checking of the paper-scale workloads sequentially
// and through the parallel checker, with a cross-check that the report
// lists agree.
type FastPathOptions struct {
	// Detectors lists the variants for the micro latency arm.
	Detectors []string
	// Programs lists the workloads for the offline arm (default
	// montecarlo and pmd, the paper-scale programs).
	Programs []string
	// Warmup and Iters follow the Table 1 methodology (offline arm).
	Warmup int
	Iters  int
	// Workers is the parcheck worker count of the offline arm.
	Workers int
	// Quick selects the small test sizes instead of the bench sizes.
	Quick bool
	// Table1 additionally runs a quick Table-1 pass and records the
	// overhead geomeans (slow; off by default).
	Table1 bool
}

// DefaultFastPathOptions mirrors the E20 setup.
func DefaultFastPathOptions() FastPathOptions {
	return FastPathOptions{
		Detectors: []string{"vft-v1", "vft-v1.5", "vft-v2", "ft-mutex", "ft-cas", "djit"},
		Programs:  []string{"montecarlo", "pmd"},
		Warmup:    1,
		Iters:     3,
		Workers:   4,
	}
}

// FastPathMicro is one detector's micro cell: the per-op cost of the
// same-epoch read and write rules — the cases §5 makes lock-free — and
// their allocation counts, which must be zero for the fast paths to
// deserve the name.
type FastPathMicro struct {
	ReadNsPerOp  float64
	WriteNsPerOp float64
	ReadAllocs   float64
	WriteAllocs  float64
}

// The offline arms: the sequential dispatch loop and the parallel checker.
const (
	armSequential = "sequential"
	armParcheck   = "parcheck"
)

// FastPathRow is one workload's offline-checking measurements.
type FastPathRow struct {
	Program string
	Suite   string
	Ops     int
	// Seconds maps arm name (sequential, parcheck) to mean end-to-end
	// checking time.
	Seconds map[string]float64
	// Reports is the race-report count (identical across arms by the
	// Divergent check).
	Reports int
	// Divergent is true when the parcheck arm's report list differed from
	// the sequential one — a correctness failure, never expected.
	Divergent bool
}

// FastPathTable is the full E20 result.
type FastPathTable struct {
	Options FastPathOptions
	// Micro maps detector → micro cell.
	Micro map[string]FastPathMicro
	Rows  []FastPathRow
	// GeoMean maps detector → quick Table-1 overhead geomean (present
	// only with Options.Table1).
	GeoMean map[string]float64
}

// RunFastPath measures the clock layer.
func RunFastPath(opts FastPathOptions) (*FastPathTable, error) {
	def := DefaultFastPathOptions()
	if len(opts.Detectors) == 0 {
		opts.Detectors = def.Detectors
	}
	if len(opts.Programs) == 0 {
		opts.Programs = def.Programs
	}
	if opts.Iters <= 0 {
		opts.Iters = def.Iters
	}
	if opts.Workers <= 0 {
		opts.Workers = def.Workers
	}

	table := &FastPathTable{Options: opts, Micro: map[string]FastPathMicro{}}
	for _, det := range opts.Detectors {
		cell, err := microCell(det)
		if err != nil {
			return nil, err
		}
		table.Micro[det] = cell
	}

	for _, name := range opts.Programs {
		row, err := fastPathProgram(name, opts)
		if err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, row)
	}

	if opts.Table1 {
		t1, err := Run(Options{
			Warmup: opts.Warmup, Iters: opts.Iters,
			Detectors: opts.Detectors, Quick: true,
		})
		if err != nil {
			return nil, err
		}
		table.GeoMean = t1.GeoMean
	}
	return table, nil
}

// microCell times the same-epoch read and write rules of one detector,
// with allocation counts. The benchmark primes a variable so the loop
// body is exactly the §5 fast path — the cost Table 1's low overheads
// depend on.
func microCell(det string) (FastPathMicro, error) {
	mk := func() (core.Detector, error) { return core.New(det, core.DefaultConfig()) }

	d, err := mk()
	if err != nil {
		return FastPathMicro{}, err
	}
	d.Read(0, 1)
	read := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Read(0, 1)
		}
	})

	d, err = mk()
	if err != nil {
		return FastPathMicro{}, err
	}
	d.Write(0, 1)
	write := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Write(0, 1)
		}
	})

	return FastPathMicro{
		ReadNsPerOp:  float64(read.NsPerOp()),
		WriteNsPerOp: float64(write.NsPerOp()),
		ReadAllocs:   float64(read.AllocsPerOp()),
		WriteAllocs:  float64(write.AllocsPerOp()),
	}, nil
}

// fastPathProgram records one workload's trace and checks it end-to-end
// under both offline arms, verifying the parcheck report list against the
// sequential one.
func fastPathProgram(name string, opts FastPathOptions) (FastPathRow, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return FastPathRow{}, err
	}
	size := w.BenchSize
	if opts.Quick {
		size = w.TestSize
	}
	rec := core.NewRecorder()
	w.Run(rtsim.New(rec), size)
	tr := rec.Trace()
	ids := trace.Scan(tr)

	row := FastPathRow{
		Program: w.Name,
		Suite:   w.Suite,
		Ops:     len(tr),
		Seconds: map[string]float64{},
	}

	arms := []struct {
		name  string
		check func() ([]core.Report, error)
	}{
		{armSequential, func() ([]core.Report, error) { return sequentialReports(tr, ids) }},
		{armParcheck, func() ([]core.Report, error) {
			return parcheck.CheckTrace(tr, nil, parcheck.Options{
				Variant: "vft-v2",
				Workers: opts.Workers,
				Threads: ids.Threads, Vars: ids.Vars, Locks: ids.Locks,
			})
		}},
	}
	var baseline []core.Report
	for i, arm := range arms {
		for j := 0; j < opts.Warmup; j++ {
			if _, err := arm.check(); err != nil {
				return FastPathRow{}, fmt.Errorf("%s/%s: %w", name, arm.name, err)
			}
		}
		var elapsed time.Duration
		var got []core.Report
		for j := 0; j < opts.Iters; j++ {
			start := time.Now()
			got, err = arm.check()
			elapsed += time.Since(start)
			if err != nil {
				return FastPathRow{}, fmt.Errorf("%s/%s: %w", name, arm.name, err)
			}
		}
		row.Seconds[arm.name] = (elapsed / time.Duration(opts.Iters)).Seconds()
		if i == 0 {
			baseline = got
			row.Reports = len(got)
		} else if !reportsEqual(got, baseline) {
			row.Divergent = true
		}
	}
	return row, nil
}

// sequentialReports checks tr with vft-v2 through the sequential dispatch
// loop (pre-sized tables, as timeCheck does).
func sequentialReports(tr trace.Trace, ids trace.IDSpace) ([]core.Report, error) {
	src := trace.DesugarSource(trace.ValidateSource(tr.Source(), nil), nil)
	cfg := core.Config{Threads: ids.Threads, Vars: ids.Vars, Locks: ids.Locks}
	d, err := core.New("vft-v2", cfg)
	if err != nil {
		return nil, err
	}
	for {
		op, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		core.Dispatch(d, op)
	}
	return d.Reports(), nil
}

// reportsEqual compares two report lists for byte identity, normalizing
// the Detector label (the sequential baseline and the parallel arms both
// run vft-v2 here, so this is Seq/rule/operand identity).
func reportsEqual(a, b []core.Report) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Format renders the table as text.
func (t *FastPathTable) Format(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Fast-path latency (ns/op, allocs/op)\n"); err != nil {
		return err
	}
	for _, det := range t.Options.Detectors {
		c := t.Micro[det]
		if _, err := fmt.Fprintf(w, "  %-10s read %7.1fns (%g allocs)  write %7.1fns (%g allocs)\n",
			det, c.ReadNsPerOp, c.ReadAllocs, c.WriteNsPerOp, c.WriteAllocs); err != nil {
			return err
		}
	}
	if len(t.Rows) > 0 {
		if _, err := fmt.Fprintf(w, "Offline checking (vft-v2, parcheck %d workers, %d iters)\n",
			t.Options.Workers, t.Options.Iters); err != nil {
			return err
		}
	}
	for _, r := range t.Rows {
		status := "reports identical"
		if r.Divergent {
			status = "REPORTS DIVERGED"
		}
		if _, err := fmt.Fprintf(w, "  %-12s %9d ops  %s=%.1fms  %s=%.1fms  [%s]\n", r.Program, r.Ops,
			armSequential, r.Seconds[armSequential]*1000, armParcheck, r.Seconds[armParcheck]*1000, status); err != nil {
			return err
		}
	}
	if t.GeoMean != nil {
		if _, err := fmt.Fprintf(w, "Table-1 geomean (quick): %v\n", t.GeoMean); err != nil {
			return err
		}
	}
	return nil
}

// Divergent reports whether any workload's report lists differed between
// arms — the perf-smoke failure condition.
func (t *FastPathTable) Divergent() bool {
	for _, r := range t.Rows {
		if r.Divergent {
			return true
		}
	}
	return false
}

// jsonFastPathTable is the stable machine-readable shape of
// BENCH_fastpath.json.
type jsonFastPathTable struct {
	Provenance Provenance               `json:"provenance"`
	Detectors  []string                 `json:"detectors"`
	Iters      int                      `json:"iters"`
	Warmup     int                      `json:"warmup"`
	Workers    int                      `json:"workers"`
	Quick      bool                     `json:"quick"`
	Micro      map[string]jsonMicroCell `json:"micro"`
	Rows       []jsonFastPathRow        `json:"rows"`
	GeoMean    map[string]float64       `json:"geo_mean,omitempty"`
}

type jsonMicroCell struct {
	ReadNs      float64 `json:"read_ns_per_op"`
	WriteNs     float64 `json:"write_ns_per_op"`
	ReadAllocs  float64 `json:"read_allocs_per_op"`
	WriteAllocs float64 `json:"write_allocs_per_op"`
}

type jsonFastPathRow struct {
	Program   string             `json:"program"`
	Suite     string             `json:"suite"`
	Ops       int                `json:"ops"`
	Reports   int                `json:"reports"`
	Seconds   map[string]float64 `json:"seconds"`
	Divergent bool               `json:"divergent"`
}

// WriteJSON renders the table as indented JSON.
func (t *FastPathTable) WriteJSON(w io.Writer) error {
	out := jsonFastPathTable{
		Provenance: CollectProvenance(),
		Detectors:  t.Options.Detectors,
		Iters:      t.Options.Iters,
		Warmup:     t.Options.Warmup,
		Workers:    t.Options.Workers,
		Quick:      t.Options.Quick,
		Micro:      map[string]jsonMicroCell{},
		GeoMean:    t.GeoMean,
	}
	for det, c := range t.Micro {
		out.Micro[det] = jsonMicroCell{
			ReadNs: c.ReadNsPerOp, WriteNs: c.WriteNsPerOp,
			ReadAllocs: c.ReadAllocs, WriteAllocs: c.WriteAllocs,
		}
	}
	for _, r := range t.Rows {
		out.Rows = append(out.Rows, jsonFastPathRow{
			Program: r.Program, Suite: r.Suite, Ops: r.Ops,
			Reports: r.Reports, Seconds: r.Seconds, Divergent: r.Divergent,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
