package core

import (
	"repro/internal/obs"
	"repro/internal/shadow"
	"repro/internal/spec"
	"repro/internal/vc"
)

// StatsSource is the optional observability extension of Detector: a
// snapshot of the detector's internal counters — rule firings, fast- vs
// slow-path splits, report-sink accounting, shadow-table occupancy and
// vector-clock costs — in obs's flat name space. It is deliberately a
// separate interface so Detector stays the six-handler Fig. 3/4 contract.
//
// Stats must be called at quiescence (no handler running): it sums the
// per-thread counters that make the hot paths contention-free, and those
// are only coherent once their owning threads have stopped. To serve a
// stats snapshot from a live endpoint, freeze it into a registry with
// obs.Snapshot.Source after the run quiesces.
type StatsSource interface {
	Stats() obs.Snapshot
}

// readRules and writeRules partition the access rules of Fig. 2; every
// read handler execution fires exactly one of readRules, and every write
// handler execution exactly one of writeRules, so their sums are total
// access counts.
var readRules = [...]spec.Rule{
	spec.ReadSameEpoch, spec.ReadSharedSameEpoch, spec.ReadExclusive,
	spec.ReadShare, spec.ReadShared, spec.WriteReadRace,
}

var writeRules = [...]spec.Rule{
	spec.WriteSameEpoch, spec.WriteExclusive, spec.WriteShared,
	spec.WriteWriteRace, spec.ReadWriteRace, spec.SharedWriteRace,
}

// statsCommon assembles the counters shared by every vector-clock
// detector: rule firings, access totals split into fast (pure-block) and
// slow (lock-taking) executions, optimistic retries, report-sink
// accounting, thread/lock table occupancy and the aggregated vector-clock
// costs. Call at quiescence.
func (b *syncBase) statsCommon() obs.Snapshot {
	s := obs.NewSnapshot()
	counts := b.RuleCounts()
	for r := spec.Rule(1); r < spec.NumRules; r++ {
		if n := counts[r]; n > 0 {
			s.Counters["rule."+r.Key()] = n
		}
	}

	var reads, writes uint64
	for _, r := range readRules {
		reads += counts[r]
	}
	for _, r := range writeRules {
		writes += counts[r]
	}

	var slowReads, slowWrites, retries uint64
	var clocks vc.Metrics
	maxEntries := 0
	for _, st := range b.threads.Snapshot() {
		slowReads += st.slowReads
		slowWrites += st.slowWrites
		retries += st.retries
		clocks.Add(st.vc.Metrics())
		if st.vc.Size() > maxEntries {
			maxEntries = st.vc.Size()
		}
	}
	for _, lk := range b.locks.Snapshot() {
		clocks.Add(lk.vc.Metrics())
		if lk.vc.Size() > maxEntries {
			maxEntries = lk.vc.Size()
		}
	}

	s.Counters["reads.total"] = reads
	s.Counters["reads.slow"] = slowReads
	s.Counters["reads.fast"] = reads - slowReads
	s.Counters["writes.total"] = writes
	s.Counters["writes.slow"] = slowWrites
	s.Counters["writes.fast"] = writes - slowWrites
	s.Counters["handler.retries"] = retries
	// Share transitions are the epoch-overflow promotions to SHARED: after
	// one, the variable pays vector-clock costs forever (§5).
	s.Counters["promotions.to_shared"] = counts[spec.ReadShare]
	s.Counters["reports.recorded"] = uint64(len(b.sink.snapshot()))
	s.Counters["reports.dropped"] = b.sink.droppedCount()

	addClockMetrics(s, clocks)
	ps := b.pool.Stats()
	s.Counters["vc.pool.gets"] = ps.Gets
	s.Counters["vc.pool.fresh"] = ps.Fresh
	s.Counters["vc.pool.recycled"] = ps.Recycled()
	s.Gauges["vc.max_entries"] = uint64(maxEntries)
	s.Gauges["shadow.threads"] = uint64(b.threads.Len())
	s.Gauges["shadow.locks"] = uint64(b.locks.Len())
	s.Counters["shadow.threads.grows"] = b.threads.GrowCount()
	s.Counters["shadow.locks.grows"] = b.locks.GrowCount()
	return s
}

func addClockMetrics(s obs.Snapshot, m vc.Metrics) {
	s.Counters["vc.grows"] += m.Grows
	s.Counters["vc.joins"] += m.Joins
	s.Counters["vc.join_scanned"] += m.JoinScanned
	s.Counters["vc.freezes"] += m.Freezes
	s.Counters["vc.freeze_reuses"] += m.FreezeReuses
}

// addVarTable records a detector's variable shadow table: occupancy,
// growth beyond the configured hint, how many variables have been promoted
// to the Shared representation (pass -1 for detectors without one), and
// the semantic footprint.
func addVarTable(s obs.Snapshot, entries int, grows uint64, shared int, bytes uint64) {
	s.Gauges["shadow.vars"] = uint64(entries)
	s.Counters["shadow.vars.grows"] = grows
	if shared >= 0 {
		s.Gauges["shadow.vars_shared"] = uint64(shared)
	}
	s.Gauges["shadow.bytes"] = bytes
}

// countSharedAtomic counts variables currently in the Shared read state;
// quiescence makes the unlocked loads exact.
func countSharedAtomic(t *shadow.Table[atomicVarState]) int {
	n := 0
	for _, sx := range t.Snapshot() {
		if sx.loadR().IsShared() {
			n++
		}
	}
	return n
}

// Stats implements StatsSource for VerifiedFT-v1.
func (d *V1) Stats() obs.Snapshot {
	s := d.statsCommon()
	shared := 0
	var clocks vc.Metrics
	for _, sx := range d.vars.Snapshot() {
		if sx.r.IsShared() {
			shared++
		}
		clocks.Add(sx.v.Metrics())
	}
	addClockMetrics(s, clocks)
	addVarTable(s, d.vars.Len(), d.vars.GrowCount(), shared, d.ShadowBytes())
	return s
}

// Stats implements StatsSource for VerifiedFT-v1.5.
func (d *V15) Stats() obs.Snapshot {
	s := d.statsCommon()
	addVarTable(s, d.vars.Len(), d.vars.GrowCount(), countSharedAtomic(d.vars), d.ShadowBytes())
	return s
}

// Stats implements StatsSource for VerifiedFT-v2.
func (d *V2) Stats() obs.Snapshot {
	s := d.statsCommon()
	addVarTable(s, d.vars.Len(), d.vars.GrowCount(), countSharedAtomic(d.vars), d.ShadowBytes())
	return s
}

// Stats implements StatsSource for FT-Mutex.
func (d *FTMutex) Stats() obs.Snapshot {
	s := d.statsCommon()
	addVarTable(s, d.vars.Len(), d.vars.GrowCount(), countSharedAtomic(d.vars), d.ShadowBytes())
	return s
}

// Stats implements StatsSource for FT-CAS.
func (d *FTCAS) Stats() obs.Snapshot {
	s := d.statsCommon()
	shared := 0
	for _, sx := range d.vars.Snapshot() {
		if r, _ := unpackRW(sx.rw.Load()); r == Shared32 {
			shared++
		}
	}
	addVarTable(s, d.vars.Len(), d.vars.GrowCount(), shared, d.ShadowBytes())
	return s
}

// Stats implements StatsSource for DJIT, which has no epochs and hence no
// Shared representation; its per-variable clocks contribute to the vc
// aggregates instead.
func (d *DJIT) Stats() obs.Snapshot {
	s := d.statsCommon()
	var clocks vc.Metrics
	for _, sx := range d.vars.Snapshot() {
		clocks.Add(sx.rvc.Metrics())
		clocks.Add(sx.wvc.Metrics())
	}
	addClockMetrics(s, clocks)
	addVarTable(s, d.vars.Len(), d.vars.GrowCount(), -1, d.ShadowBytes())
	return s
}

// Stats implements StatsSource for Eraser. Eraser is not a vector-clock
// detector: every access takes the per-variable lock (all slow), its
// RuleCounts are coarse access/sync counters, and the interesting gauges
// are the lockset state machine's population per state.
func (d *Eraser) Stats() obs.Snapshot {
	s := obs.NewSnapshot()
	counts := d.RuleCounts()
	reads, writes := counts[spec.ReadShared], counts[spec.WriteShared]
	s.Counters["reads.total"] = reads
	s.Counters["reads.slow"] = reads
	s.Counters["reads.fast"] = 0
	s.Counters["writes.total"] = writes
	s.Counters["writes.slow"] = writes
	s.Counters["writes.fast"] = 0
	s.Counters["sync.acquire"] = counts[spec.RuleAcquire]
	s.Counters["sync.release"] = counts[spec.RuleRelease]
	s.Counters["sync.fork"] = counts[spec.RuleFork]
	s.Counters["sync.join"] = counts[spec.RuleJoin]
	s.Counters["reports.recorded"] = uint64(len(d.sink.snapshot()))
	s.Counters["reports.dropped"] = d.sink.droppedCount()

	var states [sharedModified + 1]int
	for _, sx := range d.vars.Snapshot() {
		states[sx.state]++
	}
	for st, n := range states {
		s.Gauges["eraser.state."+eraserState(st).String()] = uint64(n)
	}
	s.Gauges["shadow.threads"] = uint64(d.threads.Len())
	s.Counters["shadow.threads.grows"] = d.threads.GrowCount()
	addVarTable(s, d.vars.Len(), d.vars.GrowCount(), -1, d.ShadowBytes())
	return s
}

// Compile-time checks: every detector is a StatsSource.
var (
	_ StatsSource = (*V1)(nil)
	_ StatsSource = (*V15)(nil)
	_ StatsSource = (*V2)(nil)
	_ StatsSource = (*FTMutex)(nil)
	_ StatsSource = (*FTCAS)(nil)
	_ StatsSource = (*DJIT)(nil)
	_ StatsSource = (*Eraser)(nil)
)
