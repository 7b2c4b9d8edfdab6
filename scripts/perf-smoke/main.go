// Command perf-smoke exercises the clock layer the way CI wants it
// exercised: run the fast-path latency micro cells and the
// montecarlo/pmd offline checking arms (EXPERIMENTS.md E20) at quick
// sizes, sequentially and through the parallel checker, fail hard if the
// parallel report list diverges from the sequential one or a fast path
// allocates, and log — without gating on — the perf numbers, so a run's
// timing lives in the CI log while correctness is the only failure
// condition. A generated racy trace with heavy lock traffic rides along
// so the byte-identity contract is checked on inputs that actually
// produce reports, not just the race-free suite. It is a Go program
// rather than a shell script so it works on any machine with just the
// toolchain.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"

	verifiedft "repro"
	"repro/internal/harness"
	"repro/internal/trace"
)

const seed = 20260808

func main() { os.Exit(run()) }

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "perf-smoke: FAIL: "+format+"\n", args...)
	return 1
}

func run() int {
	// Arm 1: the E20 table at quick sizes — micro latency/allocs per
	// detector plus the montecarlo/pmd offline arms with the built-in
	// divergence cross-check.
	opts := harness.DefaultFastPathOptions()
	opts.Quick = true
	opts.Warmup = 1
	opts.Iters = 2
	table, err := harness.RunFastPath(opts)
	if err != nil {
		return fail("fastpath harness: %v", err)
	}
	if err := table.Format(os.Stdout); err != nil {
		return fail("format: %v", err)
	}
	if table.Divergent() {
		return fail("report lists diverged between sequential and parallel checking")
	}
	for _, det := range opts.Detectors {
		c := table.Micro[det]
		if c.ReadAllocs != 0 || c.WriteAllocs != 0 {
			return fail("%s: same-epoch fast path allocates (read %g, write %g allocs/op)",
				det, c.ReadAllocs, c.WriteAllocs)
		}
	}

	// Arm 2: a racy, sync-heavy generated trace through every variant,
	// with one worker and sharded over four — the byte-identity contract
	// on inputs that actually produce reports.
	cfg := trace.DefaultGenConfig()
	cfg.Ops = 50_000
	cfg.Threads = 8
	cfg.Vars = 32
	cfg.Locks = 8
	tr := trace.Generate(rand.New(rand.NewSource(seed)), cfg)
	for _, variant := range verifiedft.Variants() {
		want, err := verifiedft.CheckTrace(tr, verifiedft.WithVariant(variant))
		if err != nil {
			return fail("%s baseline: %v", variant, err)
		}
		for _, workers := range []int{1, 4} {
			got, err := verifiedft.CheckTrace(tr,
				verifiedft.WithVariant(variant),
				verifiedft.WithParallelism(workers))
			if err != nil {
				return fail("%s w=%d: %v", variant, workers, err)
			}
			if !reflect.DeepEqual(want, got) {
				return fail("%s: w=%d diverged from sequential: %d vs %d reports",
					variant, workers, len(got), len(want))
			}
		}
		fmt.Printf("perf-smoke: %-9s %6d ops → %5d reports, sequential ≡ sharded ✓\n",
			variant, len(tr), len(want))
	}

	fmt.Println("perf-smoke: OK — sequential and sharded reports agree everywhere; perf numbers above are logged, not gated")
	return 0
}
