package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	verifiedft "repro"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/trace"
)

// offlineGenConfig is the access-dense core-only trace of offline-core:
// 8 threads, 32,768 variables, 64 locks, weights 60/25/10/1/1 and
// LockedFraction 900. At 2M steps it gives about 5.6M ops.
func offlineGenConfig(steps int) trace.GenConfig {
	return trace.GenConfig{
		Ops: steps, Threads: 8, Vars: 32768, Locks: 64,
		ReadWeight: 60, WriteWeight: 25, AcquireWeight: 10, ForkWeight: 1, JoinWeight: 1,
		LockedFraction: 900,
	}
}

// offlineSetup generates the trace and writes its binary encoding to path.
func offlineSetup(cfg config, path string) (trace.Trace, error) {
	tr := trace.Generate(rand.New(rand.NewSource(cfg.Seed)), offlineGenConfig(cfg.OfflineSteps))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := verifiedft.EncodeBinary(w, tr); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return tr, f.Close()
}

func checkFile(path string, opts ...verifiedft.CheckOption) ([]verifiedft.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return verifiedft.CheckReader(f, opts...)
}

// offlineReference checks, outside any timed region, that CheckTrace,
// CheckReader and the parallel checker give byte-identical reports and
// agree with the specification's verdict. It returns the reference
// report text the timed checks must reproduce.
func offlineReference(r *result, tr trace.Trace, path string) (string, error) {
	ref := spec.Run(spec.VerifiedFT, tr)
	seq, err := verifiedft.CheckTrace(tr)
	if err != nil {
		return "", fmt.Errorf("reference CheckTrace: %w", err)
	}
	want := reportText(seq)
	r.check(verdictAgrees(ref, seq), "offline: CheckTrace verdict %d reports disagrees with spec (race at %d)", len(seq), ref.RaceAt)
	fromFile, err := checkFile(path)
	r.check(err == nil && reportText(fromFile) == want, "offline: CheckReader reports differ from CheckTrace (err %v)", err)
	par, err := verifiedft.CheckTrace(tr, verifiedft.WithParallelism(runtime.NumCPU()))
	r.check(err == nil && reportText(par) == want, "offline: WithParallelism(%d) reports differ from sequential (err %v)", runtime.NumCPU(), err)
	return want, nil
}

// verdictAgrees reports whether a detector's report list agrees with the
// specification's run: no reports exactly when the spec finds no race,
// and otherwise a first report naming the spec's racing access and rule.
func verdictAgrees(ref spec.Result, reps []verifiedft.Report) bool {
	if ref.RaceAt < 0 || len(reps) == 0 {
		return ref.RaceAt < 0 && len(reps) == 0
	}
	first := reps[0]
	return first.T == ref.Err.Op.T && first.X == ref.Err.Op.X && first.Rule == ref.Err.Rule
}

func runOffline(cfg config, t *tracer) (*result, error) {
	r := newResult()
	path := filepath.Join(cfg.Dir, "offline.vftb")
	var tr trace.Trace
	var setups []time.Duration
	for i := 0; i < cfg.Setups; i++ {
		tr = nil
		runtime.GC()
		var err error
		setups = append(setups, since(func() { tr, err = offlineSetup(cfg, path) }))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	r.set("setup_s", medianDur(setups).Seconds(), "s")
	n := len(tr)
	r.set("offline.trace_ops", float64(n), "ops")

	want, err := offlineReference(r, tr, path)
	if err != nil {
		return nil, err
	}
	var stacks []stackInput
	if t != nil {
		stacks = []stackInput{{
			ops: tr, ext: nil,
			open: func() (io.ReadCloser, error) { return os.Open(path) },
		}}
		if stacks[0].lowered, err = trace.ReadAll(trace.DesugarSource(trace.ValidateSource(tr.Source(), nil), nil)); err != nil {
			return nil, err
		}
	} else {
		// A user of CheckReader holds no materialized trace; neither does
		// the untraced measurement.
		tr = nil
	}
	runtime.GC()

	checkOnce := func(rep int, opts ...verifiedft.CheckOption) time.Duration {
		var reps []verifiedft.Report
		var err error
		d := since(func() { reps, err = checkFile(path, opts...) })
		if cfg.PlantWrongReport && rep == 0 {
			reps = append(reps, verifiedft.Report{Detector: "planted"})
		}
		r.check(err == nil && reportText(reps) == want, "offline: CheckReader rep %d: %d reports differ from the reference (err %v)", rep, len(reps), err)
		return d
	}

	var plain, withMetrics []time.Duration
	var rt runtimeSample
	var det obs.Snapshot
	deadline := time.Now().Add(cfg.Seconds)
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		if t == nil {
			plain = append(plain, checkOnce(rep))
			continue
		}
		root := t.start(int64(rep), "offline.rep", -1)
		sp := t.start(int64(rep), "verifiedft.CheckReader", root)
		before := readRuntime()
		checkOnce(rep)
		rt.add(readRuntime(), before)
		plain = append(plain, t.end(sp))
		sp = t.start(int64(rep), "verifiedft.CheckReader+metrics", root)
		checkOnce(rep, verifiedft.WithMetrics(verifiedft.NewMetrics()))
		withMetrics = append(withMetrics, t.end(sp))
		s, err := runStacks(t, int64(rep), root, stacks)
		if err != nil {
			return nil, err
		}
		det = s
		t.end(root)
	}
	check := medianDur(plain)
	r.set("check_ops_per_s", float64(n)/check.Seconds(), "ops/s")
	r.set("latency_ms", ms(check), "ms")
	if t == nil {
		return r, nil
	}
	layers := setLayerMetrics(r, t, n, len(stacks[0].lowered), det)
	r.set("offline.unattributed_ns_per_op", float64(check)/float64(n)-layers, "ns/op")
	r.set("bench.tracing_overhead_frac", float64(medianDur(withMetrics))/float64(check)-1, "ratio")
	r.setRuntime(rt, float64(n*len(plain)))
	return r, nil
}
