// Package vc implements the grow-on-demand vector clocks of the VerifiedFT
// analysis (§3 and Fig. 3 of the paper).
//
// A vector clock maps every thread id to an epoch for that thread. VC is
// the dense representation of Fig. 3: a slice indexed by thread id, entries
// beyond the slice's length reading as the minimal epoch t@0, exactly as
// the VectorClock.get method does. This keeps clocks proportional to the
// highest thread id that has actually synchronized through them rather
// than to the total number of threads. frozen.go adds immutable,
// interned snapshots, and pool.go recycles backing arrays for both.
//
// The well-formedness invariant of §3 — for all t, Tid(V.Get(t)) == t — is
// maintained by every method and checked by the test suite.
//
// VC values are NOT safe for concurrent use; the concurrent detectors in
// internal/core layer their own synchronization disciplines (locks, atomic
// publication) on top, mirroring §4 and §5 of the paper.
package vc

import (
	"strings"

	"repro/internal/epoch"
)

// VC is a dense vector clock. The zero value is the minimal clock ⊥V
// (every entry reads as t@0) and is ready to use (with no pool).
type VC struct {
	v []epoch.Epoch
	m Metrics

	// frozen caches the last Freeze snapshot; any mutation clears it. See
	// Freeze in frozen.go.
	frozen *Frozen

	// pool, when non-nil, supplies and recycles backing arrays (growth
	// only ever retires arrays this clock exclusively owns, so recycling
	// them is safe; Frozen arrays are shared and never recycled here).
	pool *Pool
}

// Metrics counts a clock's structural costs. Because a clock is not safe
// for concurrent use, the counters are plain fields updated under whatever
// discipline already protects the clock — they add no synchronization and
// no contention. Callers aggregate them across clocks at quiescence.
type Metrics struct {
	// Grows counts reallocation-and-copy extensions of the representation
	// — the allocation events behind the paper's grow-on-demand clocks.
	// In-place extensions within an array's existing capacity (the
	// geometric-growth headroom) are free and not counted.
	Grows uint64
	// Joins counts Join/JoinFrozen operations applied to this clock (as
	// destination).
	Joins uint64
	// JoinScanned counts entries compared across all Joins — the O(threads)
	// work epochs exist to avoid on the access paths.
	JoinScanned uint64
	// Freezes counts Freeze calls that had to copy the representation;
	// FreezeReuses counts the calls answered by the cached snapshot. Their
	// ratio is the copy-on-write win of the Frozen layer.
	Freezes      uint64
	FreezeReuses uint64
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.Grows += other.Grows
	m.Joins += other.Joins
	m.JoinScanned += other.JoinScanned
	m.Freezes += other.Freezes
	m.FreezeReuses += other.FreezeReuses
}

// Metrics returns the clock's structural counters. Call under the same
// discipline as any other read of the clock.
func (c *VC) Metrics() Metrics { return c.m }

// New returns an empty (minimal) vector clock.
func New() *VC {
	return &VC{}
}

// NewPooled returns an empty vector clock drawing backing storage from
// pool (nil pool behaves like New).
func NewPooled(pool *Pool) *VC {
	return &VC{pool: pool}
}

// FromClocks builds a vector clock whose entry for thread i carries clock
// values[i]. It is a convenience for tests and examples that use the paper's
// ⟨m,n⟩ notation.
func FromClocks(values ...uint64) *VC {
	c := &VC{v: make([]epoch.Epoch, len(values))}
	for i, val := range values {
		c.v[i] = epoch.Make(epoch.Tid(i), val)
	}
	return c
}

// Size returns the length of the underlying representation. Entries at index
// >= Size() are implicitly minimal.
func (c *VC) Size() int {
	return len(c.v)
}

// Get returns the epoch recorded for thread t, which is t@0 if t lies beyond
// the current representation.
func (c *VC) Get(t epoch.Tid) epoch.Epoch {
	if int(t) < len(c.v) {
		return c.v[t]
	}
	return epoch.Min(t)
}

// Set records epoch e for thread t, growing the representation if needed.
// The epoch's own tid must equal t so the well-formedness invariant is
// preserved.
func (c *VC) Set(t epoch.Tid, e epoch.Epoch) {
	if e.Tid() != t {
		panic("vc: Set would break well-formedness: epoch tid mismatch")
	}
	c.frozen = nil // the cached snapshot no longer reflects the clock
	c.ensureCapacity(int(t) + 1)
	c.v[t] = e
}

// ensureCapacity grows the representation to at least n entries, filling new
// slots with minimal epochs, as Fig. 3's ensureCapacity does via get.
// Capacity grows geometrically (powers of two), so a clock touched by
// threads 0..k reallocates O(log k) times, not O(k); in-place extensions
// within existing capacity cost only the minimal fill. Retired arrays are
// recycled through the pool — the clock is their sole owner, snapshots
// having been copied out by Freeze.
func (c *VC) ensureCapacity(n int) {
	if n <= len(c.v) {
		return
	}
	old := len(c.v)
	if n <= cap(c.v) {
		c.v = c.v[:n]
		epoch.FillMin(c.v, 0, old)
		return
	}
	newCap := 4
	for newCap < n {
		newCap *= 2
	}
	grown := c.pool.getSlice(newCap)[:n]
	copy(grown, c.v)
	epoch.FillMin(grown, 0, old)
	c.pool.putSlice(c.v)
	c.v = grown
	c.m.Grows++
}

// Inc increments the t-component: V := inc_t(V).
func (c *VC) Inc(t epoch.Tid) {
	c.Set(t, c.Get(t).Inc())
}

// Leq reports the pointwise order c ⊑ other.
func (c *VC) Leq(other *VC) bool {
	n := len(c.v)
	if len(other.v) > n {
		n = len(other.v)
	}
	for i := 0; i < n; i++ {
		t := epoch.Tid(i)
		if !c.Get(t).Leq(other.Get(t)) {
			return false
		}
	}
	return true
}

// EpochLeq reports e ⪯ c, i.e. whether epoch e happens before this clock:
// e <= c.Get(e.Tid()). It must not be called with the Shared marker.
func (c *VC) EpochLeq(e epoch.Epoch) bool {
	return e.Leq(c.Get(e.Tid()))
}

// Join merges other into c pointwise: c := c ⊔ other.
//
// Two fast paths keep the common synchronization shapes cheap: an empty
// other (a never-released lock) returns without scanning, and entries of
// other already covered by c are skipped without writing — so a join
// whose argument is entirely ⊑ c (re-acquiring a lock the thread itself
// released last, barrier re-arrivals) mutates nothing, grows nothing, and
// preserves c's cached Freeze snapshot.
func (c *VC) Join(other *VC) {
	c.m.Joins++
	if len(other.v) == 0 {
		return
	}
	c.m.JoinScanned += uint64(len(other.v))
	for i, oe := range other.v {
		t := epoch.Tid(i)
		// Same-tid epochs order by their clock bits, so the raw comparison
		// is the pointwise order (both sides are well-formed entries for t).
		if oe > c.Get(t) {
			c.Set(t, oe)
		}
	}
}

// Assign overwrites c with other's contents: c := other (Fig. 3's copy).
// It is a single grow-and-copy: one capacity check, one frozen-cache
// clear, and a bulk copy — where a per-entry Set loop would pay the
// capacity check, the cache clear and the well-formedness branch n times.
// Entries beyond other's representation are reset to minimal, so the
// result denotes exactly other's value regardless of c's previous size.
func (c *VC) Assign(other *VC) {
	c.frozen = nil
	c.ensureCapacity(len(other.v))
	copy(c.v, other.v)
	epoch.FillMin(c.v, 0, len(other.v))
}

// Clone returns an independent copy of c's clock value. The copy starts
// with zero Metrics (counters describe one clock object's life, not the
// value's history) and — deliberately — no cached Freeze snapshot: a
// *Frozen must be reachable from at most the clock it snapshots, or the
// pool's recycling contract breaks, so the clone's first Freeze performs
// a fresh copy rather than reusing the original's cache. The clone shares
// c's pool.
func (c *VC) Clone() *VC {
	out := &VC{v: make([]epoch.Epoch, len(c.v)), pool: c.pool}
	copy(out.v, c.v)
	return out
}

// Equal reports whether two clocks agree at every index (treating implicit
// minimal entries as equal to explicit ones).
func (c *VC) Equal(other *VC) bool {
	return c.Leq(other) && other.Leq(c)
}

// Snapshot returns the raw epochs up to Size; used by the concurrent
// detectors to publish immutable copies.
func (c *VC) Snapshot() []epoch.Epoch {
	out := make([]epoch.Epoch, len(c.v))
	copy(out, c.v)
	return out
}

// FromSnapshot wraps a raw epoch slice (tid i at index i) as a VC. The slice
// must be well-formed; ownership transfers to the VC.
func FromSnapshot(v []epoch.Epoch) *VC {
	for i, e := range v {
		if e.Tid() != epoch.Tid(i) {
			panic("vc: FromSnapshot: ill-formed entry")
		}
	}
	return &VC{v: v}
}

// String renders the clock in the paper's ⟨c0,c1,...⟩ clock-list notation.
func (c *VC) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, e := range c.v {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e.String())
	}
	b.WriteByte('>')
	return b.String()
}
