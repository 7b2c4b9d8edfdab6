package parcheck

import (
	"testing"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestPoolRecycledCounterAgrees pins the one definition of
// vc.pool.recycled — arrays handed out that were reused rather than freshly
// allocated (vc.pool.gets − vc.pool.fresh) — in both places that report
// it: the sequential detector's stats and the parallel checker's.
func TestPoolRecycledCounterAgrees(t *testing.T) {
	// Forty threads, each writing under its own lock. The second half is
	// joined first, so the main thread's clock grows through several pool
	// size classes and retires the smaller arrays; the first half's
	// snapshots, taken afterwards, then reuse them. Finally the main
	// thread takes the first half's locks, growing their clocks: those
	// retired arrays are never reused, so a count of returned arrays
	// (puts) would exceed the count of reused ones.
	const n = 40
	var tr trace.Trace
	for u := 1; u <= n; u++ {
		tr = append(tr, trace.ForkOp(0, epoch.Tid(u)))
	}
	for _, half := range [][2]int{{n/2 + 1, n}, {1, n / 2}} {
		for u := half[0]; u <= half[1]; u++ {
			tid, m := epoch.Tid(u), trace.Lock(u)
			tr = append(tr, trace.Acq(tid, m), trace.Wr(tid, trace.Var(u)), trace.Rel(tid, m), trace.JoinOp(0, tid))
		}
	}
	for u := 1; u <= n/2; u++ {
		tr = append(tr, trace.Acq(0, trace.Lock(u)), trace.Rel(0, trace.Lock(u)))
	}
	trace.MustValidate(tr)

	d, err := core.New("vft-v2", core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	core.Replay(d, tr)
	seq := d.(core.StatsSource).Stats()

	var par obs.Snapshot
	if _, err := CheckTrace(tr, nil, Options{Variant: "vft-v2", Workers: 2, StatsSink: func(s obs.Snapshot) { par = s }}); err != nil {
		t.Fatal(err)
	}

	for name, s := range map[string]obs.Snapshot{"core": seq, "parcheck": par} {
		gets, fresh := s.Counters["vc.pool.gets"], s.Counters["vc.pool.fresh"]
		recycled, ok := s.Counters["vc.pool.recycled"]
		if !ok {
			t.Fatalf("%s: vc.pool.recycled not reported", name)
		}
		if recycled != gets-fresh {
			t.Errorf("%s: vc.pool.recycled = %d, want gets − fresh = %d − %d", name, recycled, gets, fresh)
		}
		// Under -race sync.Pool drops items at random, so reuse itself is
		// only required of a normal build.
		if recycled == 0 && !raceEnabled {
			t.Errorf("%s: no array recycled on a %d-thread trace (gets=%d fresh=%d)", name, n, gets, fresh)
		}
	}
}
