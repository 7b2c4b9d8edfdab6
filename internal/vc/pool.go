package vc

import (
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
)

// Pool recycles the backing arrays of clocks and Frozen snapshots through
// power-of-two size classes. Growing a clock at high thread counts
// otherwise allocates a fresh array per grow and per snapshot, and the
// old arrays become garbage immediately — the dominant GC pressure of
// clock-heavy runs (lock release copies, the parcheck prepass's
// per-sync-op snapshots).
//
// Arrays returned by get carry stale contents: every consumer fills the
// slots it exposes (epoch.FillMin on growth, copy on snapshot), which the
// vc tests pin.
//
// A Pool is safe for concurrent use — the concurrent detectors share one
// pool across their thread and lock clocks — and a nil *Pool is valid
// everywhere, meaning plain make/GC (the seed behavior).
type Pool struct {
	// classes[k] holds arrays of capacity exactly 1<<k. Class indexes
	// below minClassBits are unused: tiny arrays are cheaper to allocate
	// than to recycle.
	classes [maxClassBits + 1]sync.Pool

	gets, puts, fresh atomic.Uint64
}

const (
	// minClassBits is the smallest pooled capacity (8 entries = 64 bytes,
	// a cache line).
	minClassBits = 3
	// maxClassBits bounds pooled capacity at 1<<16 entries — the whole
	// tid space, so every well-formed clock is poolable.
	maxClassBits = 16
)

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{}
}

// PoolStats is a point-in-time reading of a pool's traffic.
type PoolStats struct {
	// Gets counts arrays handed out; Fresh counts the subset that had to
	// be freshly allocated (a miss), so Gets-Fresh arrays were recycled.
	Gets, Fresh uint64
	// Puts counts arrays returned for reuse.
	Puts uint64
}

// Recycled counts the arrays handed out that were reused rather than
// freshly allocated (Gets − Fresh). It is the one definition behind the
// vc.pool.recycled counter wherever a detector reports it.
func (s PoolStats) Recycled() uint64 { return s.Gets - s.Fresh }

// Stats reads the pool's counters; safe concurrently with use.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return PoolStats{Gets: p.gets.Load(), Fresh: p.fresh.Load(), Puts: p.puts.Load()}
}

// classFor returns the class index whose capacity (1<<k) fits n, or -1
// when n is outside the pooled range.
func classFor(n int) int {
	if n > 1<<maxClassBits {
		return -1
	}
	k := minClassBits
	for 1<<k < n {
		k++
	}
	return k
}

// get returns an array of length n whose capacity is the power of two of
// n's size class. The contents are unspecified — stale epochs from a
// previous life — and the caller must fill every slot it exposes.
func (p *Pool) get(n int) []epoch.Epoch {
	k := classFor(n)
	if k < 0 {
		return make([]epoch.Epoch, n)
	}
	p.gets.Add(1)
	if v, ok := p.classes[k].Get().(*[]epoch.Epoch); ok {
		return (*v)[:n]
	}
	p.fresh.Add(1)
	return make([]epoch.Epoch, n, 1<<k)
}

// put returns an array's backing storage for reuse. The caller must be
// the sole referent: recycling a slice another clock or snapshot can
// still read corrupts that reader when the array is reissued.
func (p *Pool) put(v []epoch.Epoch) {
	if cap(v) < 1<<minClassBits {
		return
	}
	// Only full-capacity power-of-two arrays re-enter a class: anything
	// else (a plain make from the seed path, an over-range array) is left
	// to the GC rather than poisoning a class with short capacity.
	k := classFor(cap(v))
	if k < 0 || cap(v) != 1<<k {
		return
	}
	v = v[:0]
	p.classes[k].Put(&v)
	p.puts.Add(1)
}

// getSlice is the nil-tolerant allocation helper clocks and snapshots
// use: pool storage when pooled, plain make otherwise.
func (p *Pool) getSlice(n int) []epoch.Epoch {
	if p == nil {
		return make([]epoch.Epoch, n)
	}
	return p.get(n)
}

// putSlice is the nil-tolerant recycle helper.
func (p *Pool) putSlice(v []epoch.Epoch) {
	if p == nil || v == nil {
		return
	}
	p.put(v)
}

// PutFrozen recycles a snapshot's backing array. The contract is strict:
// f must be unreachable by anyone else — in practice the one safe caller
// is the interner canonicalization path, which recycles a freshly frozen
// duplicate after swapping the canonical snapshot into the source clock
// (AdoptFrozen), so the duplicate never escaped.
func (p *Pool) PutFrozen(f *Frozen) {
	if p == nil || f == nil {
		return
	}
	p.put(f.v)
	f.v = nil
}
