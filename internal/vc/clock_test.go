package vc

import (
	"math/rand"
	"testing"

	"repro/internal/epoch"
)

// model is the reference semantics of a vector clock: one plain counter
// per thread, no representation tricks, no pool, no snapshot cache.
type model []uint64

func (m model) get(t epoch.Tid) uint64 {
	if int(t) < len(m) {
		return m[t]
	}
	return 0
}

func (m *model) set(t epoch.Tid, c uint64) {
	for len(*m) <= int(t) {
		*m = append(*m, 0)
	}
	(*m)[t] = c
}

func (m *model) join(o model) {
	for i, c := range o {
		if c > m.get(epoch.Tid(i)) {
			m.set(epoch.Tid(i), c)
		}
	}
}

func (m model) clone() model { return append(model(nil), m...) }

// modelWindow is wide enough to cover every tid the driver touches plus
// implicit minimal entries beyond it.
const modelWindow = 16

// checkModel compares a clock reader against the model pointwise,
// including the well-formedness invariant Tid(Get(t)) == t.
func checkModel(t *testing.T, get func(epoch.Tid) epoch.Epoch, m model, ctx string) {
	t.Helper()
	for i := 0; i < modelWindow; i++ {
		tid := epoch.Tid(i)
		if got, want := get(tid), epoch.Make(tid, m.get(tid)); got != want {
			t.Fatalf("%s: entry t%d = %v, model says %v (model %v)", ctx, i, got, want, m)
		}
	}
}

// TestQuickDenseModelConformance drives random operation sequences
// (Set/Inc/Join/JoinFrozen/Assign/Freeze) through a family of dense
// clocks and a plain []uint64 pointwise model, checking every clock entry,
// EpochLeq and Leq after each step. Every snapshot taken along the way is
// re-checked at the end of its trial: later mutations of its source — and,
// in the pooled leg, arrays recycled through the pool — must not show
// through an immutable Frozen. Both a pooled and a nil-pool family run.
func TestQuickDenseModelConformance(t *testing.T) {
	for _, leg := range []struct {
		name string
		pool func() *Pool
	}{
		{"pooled", NewPool},
		{"nil-pool", func() *Pool { return nil }},
	} {
		t.Run(leg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20260808))
			for trial := 0; trial < 50; trial++ {
				pool := leg.pool()
				const nClocks = 4
				clocks := make([]*VC, nClocks)
				models := make([]model, nClocks)
				for i := range clocks {
					clocks[i] = NewPooled(pool)
				}
				var frozen []*Frozen
				var frozenModels []model
				for step := 0; step < 200; step++ {
					self := rng.Intn(nClocks)
					tid := epoch.Tid(rng.Intn(12))
					c := uint64(rng.Intn(8))
					peer := rng.Intn(nClocks)
					d, m := clocks[self], &models[self]
					switch rng.Intn(6) {
					case 0:
						// Random Set, including non-monotone ones.
						d.Set(tid, epoch.Make(tid, c))
						m.set(tid, c)
					case 1:
						d.Inc(tid)
						m.set(tid, m.get(tid)+1)
					case 2:
						d.Join(clocks[peer])
						m.join(models[peer])
					case 3:
						if len(frozen) > 0 {
							i := rng.Intn(len(frozen))
							d.JoinFrozen(frozen[i])
							m.join(frozenModels[i])
						}
					case 4:
						d.Assign(clocks[peer])
						*m = models[peer].clone()
					case 5:
						f := d.Freeze()
						checkModel(t, f.Get, *m, "fresh snapshot")
						frozen = append(frozen, f)
						frozenModels = append(frozenModels, m.clone())
					}
					checkModel(t, d.Get, *m, "after op")
					// EpochLeq is the fast-path primitive; Leq the
					// whole-clock order the djit baseline uses.
					probe := epoch.Make(tid, c)
					if got, want := d.EpochLeq(probe), c <= m.get(tid); got != want {
						t.Fatalf("trial %d step %d: EpochLeq(%v) = %v, model says %v", trial, step, probe, got, want)
					}
					want := true
					for i := 0; i < modelWindow; i++ {
						if m.get(epoch.Tid(i)) > models[peer].get(epoch.Tid(i)) {
							want = false
						}
					}
					if got := d.Leq(clocks[peer]); got != want {
						t.Fatalf("trial %d step %d: Leq = %v, model says %v", trial, step, got, want)
					}
				}
				for i, f := range frozen {
					checkModel(t, f.Get, frozenModels[i], "retained snapshot")
				}
			}
		})
	}
}

// TestGeometricGrowth pins the new ensureCapacity contract: Grows counts
// only reallocation-and-copy events, so a clock touched at increasing tids
// reallocates O(log n) times.
func TestGeometricGrowth(t *testing.T) {
	c := New()
	for i := 0; i < 1000; i++ {
		c.Inc(epoch.Tid(i))
	}
	if g := c.Metrics().Grows; g > 10 {
		t.Fatalf("1000 single-step grows cost %d reallocations, want <= 10 (geometric)", g)
	}
	// Well-formedness survived every in-place extension (stale pool
	// contents must have been overwritten with minimal epochs).
	for i := 0; i < 1000; i++ {
		if got := c.Get(epoch.Tid(i)); got != epoch.Make(epoch.Tid(i), 1) {
			t.Fatalf("entry %d corrupted after growth: %v", i, got)
		}
	}
}

// TestAssignSingleGrow is the regression test for the Assign rewrite: one
// Assign from a much larger clock performs exactly one reallocation (one
// Grows tick), not one per entry, and clears the frozen cache once.
func TestAssignSingleGrow(t *testing.T) {
	big := New()
	for i := 0; i < 100; i++ {
		big.Inc(epoch.Tid(i))
	}
	c := New()
	f := c.Freeze()
	before := c.Metrics().Grows
	c.Assign(big)
	if got := c.Metrics().Grows - before; got != 1 {
		t.Fatalf("Assign from 100-entry clock cost %d grows, want exactly 1", got)
	}
	if !c.Equal(big) {
		t.Fatalf("Assign result differs from source")
	}
	// The pre-Assign snapshot must not be reused: the clock changed.
	if g := c.Freeze(); g == f {
		t.Fatalf("Freeze after Assign returned the stale snapshot")
	}
	// Assigning a smaller value resets the tail to minimal.
	small := New()
	small.Inc(0)
	c.Assign(small)
	for i := 1; i < 100; i++ {
		if got := c.Get(epoch.Tid(i)); got != epoch.Min(epoch.Tid(i)) {
			t.Fatalf("Assign left stale tail entry at %d: %v", i, got)
		}
	}
}

// TestCloneFreezesFresh is the regression test for Clone's frozen-cache
// contract: a clone must not share the original's cached snapshot (a
// *Frozen may be reachable from at most one clock, or pool recycling via
// AdoptFrozen corrupts the other), so its first Freeze is a fresh copy.
func TestCloneFreezesFresh(t *testing.T) {
	c := New()
	c.Inc(2)
	orig := c.Freeze()
	cl := c.Clone()
	if m := cl.Metrics(); m != (Metrics{}) {
		t.Fatalf("clone inherited metrics: %+v", m)
	}
	got := cl.Freeze()
	if got == orig {
		t.Fatalf("clone's first Freeze reused the original's cached snapshot")
	}
	if !got.Equal(orig) {
		t.Fatalf("clone snapshot differs in value: %v vs %v", got, orig)
	}
	if m := cl.Metrics(); m.Freezes != 1 || m.FreezeReuses != 0 {
		t.Fatalf("clone's first Freeze was not a fresh copy: %+v", m)
	}
}

// TestPoolRecycles pins the pool's core loop: a retired growth array is
// handed back out, and the counters see it.
func TestPoolRecycles(t *testing.T) {
	p := NewPool()
	v := p.get(8)
	if got := p.Stats(); got.Gets != 1 || got.Fresh != 1 {
		t.Fatalf("first get: %+v", got)
	}
	p.put(v[:cap(v)])
	w := p.get(8)
	st := p.Stats()
	if st.Puts != 1 || st.Gets != 2 {
		t.Fatalf("after put+get: %+v", st)
	}
	if st.Fresh != 1 {
		t.Fatalf("second get should recycle, not allocate: %+v", st)
	}
	_ = w
	// Odd capacities never enter a class.
	p.put(make([]epoch.Epoch, 9, 9))
	if got := p.Stats().Puts; got != 1 {
		t.Fatalf("non-power-of-two array was pooled: puts=%d", got)
	}
}

// TestPooledGrowthFillsMinimal pins the stale-contents contract: arrays
// recycled through the pool carry old epochs, and every growth path must
// overwrite the slots it exposes.
func TestPooledGrowthFillsMinimal(t *testing.T) {
	pool := NewPool()
	// Dirty the pool with a clock full of large epochs, then retire it.
	dirty := NewPooled(pool)
	for i := 0; i < 30; i++ {
		dirty.Set(epoch.Tid(i), epoch.Make(epoch.Tid(i), 1000))
	}
	dirty.Assign(NewPooled(pool)) // shrink: retires nothing, but Freeze below does
	// Grow a fresh clock through the same classes.
	c := NewPooled(pool)
	c.Inc(29)
	for i := 0; i < 29; i++ {
		if got := c.Get(epoch.Tid(i)); got != epoch.Min(epoch.Tid(i)) {
			t.Fatalf("stale epoch leaked through pool at t%d: %v", i, got)
		}
	}
}
