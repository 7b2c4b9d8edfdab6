package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	verifiedft "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rtsim"
	"repro/internal/workloads"
)

// onlineSizes sizes each Table 1 kernel so that an uninstrumented run
// lasts tens of milliseconds on a small machine.
var onlineSizes = map[string]int{
	"sunflow":    672,
	"montecarlo": 24000,
	"tomcat":     48000,
	"sor":        512,
}

// onlineLatencyInterval times every 64th handler call per thread in the
// traced run, as the Table 1 harness's metrics pass does.
const onlineLatencyInterval = 64

// onlineProgram is one kernel with its per-run measurements.
type onlineProgram struct {
	w      workloads.Workload
	size   int
	events uint64 // handler calls of one checked run, fixed by the first

	base, checked, traced []time.Duration
	fast, retries, joins  []float64
	rtsimEvents           uint64 // rtsim's event count of one traced run
	access, sync          obs.HistogramSnapshot
}

// checkedRun runs the kernel once under a fresh vft-v2 detector and
// checks its reports and event count; it returns the run time and the
// detector's counters.
func (p *onlineProgram) checkedRun(r *result, planted bool) (time.Duration, obs.Snapshot) {
	d, err := verifiedft.New(verifiedft.V2)
	if err != nil {
		panic(err) // V2 is a built-in variant
	}
	rt := rtsim.New(d)
	runtime.GC()
	dt := since(func() { p.w.Run(rt, p.size) })
	var events uint64
	for _, c := range d.RuleCounts() {
		events += c
	}
	if p.events == 0 {
		p.events = events
	}
	reps := rt.Reports()
	if planted {
		reps = append(reps, verifiedft.Report{Detector: "planted"})
	}
	r.check(len(reps) == 0, "online: %s reported %d races on a race-free kernel", p.w.Name, len(reps))
	r.check(events == p.events, "online: %s delivered %d events, earlier runs %d", p.w.Name, events, p.events)
	return dt, d.(core.StatsSource).Stats()
}

// baseRun runs the kernel once uninstrumented. Every timed run starts
// from a collected heap, so no run pays for garbage an earlier one left.
func baseRun(p *onlineProgram) time.Duration {
	rt := rtsim.New(nil)
	runtime.GC()
	return since(func() { p.w.Run(rt, p.size) })
}

// tracedRun runs the kernel under vft-v2 wrapped in the latency sampler,
// with rtsim counting events, and checks its reports and event count.
func (p *onlineProgram) tracedRun(r *result) time.Duration {
	reg := obs.NewRegistry()
	d, err := verifiedft.New(verifiedft.V2)
	if err != nil {
		panic(err)
	}
	rt := rtsim.New(core.InstrumentLatency(d, reg, onlineLatencyInterval), rtsim.WithMetrics(reg))
	runtime.GC()
	dt := since(func() { p.w.Run(rt, p.size) })
	r.check(len(rt.Reports()) == 0, "online: %s reported %d races in the traced run", p.w.Name, len(rt.Reports()))
	s := reg.Snapshot()
	var events uint64
	for _, k := range []string{"read", "write", "acquire", "release", "fork", "join", "volatile", "barrier"} {
		events += s.Counters["rtsim.events."+k]
	}
	if p.rtsimEvents == 0 {
		p.rtsimEvents = events
	}
	r.check(events == p.rtsimEvents, "online: %s rtsim counted %d events, earlier traced runs %d", p.w.Name, events, p.rtsimEvents)
	for _, k := range []string{"read", "write"} {
		addHist(&p.access, s.Histograms["latency."+k+"_ns"])
	}
	for _, k := range []string{"acquire", "release", "fork", "join"} {
		addHist(&p.sync, s.Histograms["latency."+k+"_ns"])
	}
	return dt
}

func addHist(acc *obs.HistogramSnapshot, h obs.HistogramSnapshot) {
	acc.Count += h.Count
	acc.Sum += h.Sum
}

func runOnline(cfg config, t *tracer) (*result, error) {
	r := newResult()
	progs := make([]*onlineProgram, len(onlinePrograms))
	for i, name := range onlinePrograms {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		size, ok := cfg.OnlineSizes[name]
		if !ok {
			return nil, fmt.Errorf("no size for %s", name)
		}
		progs[i] = &onlineProgram{w: w, size: size}
	}
	// Set-up is warm-up: one uninstrumented and one checked run of each
	// kernel. The first checked run fixes each kernel's event count.
	var setups []time.Duration
	for i := 0; i < cfg.Setups; i++ {
		setups = append(setups, since(func() {
			for _, p := range progs {
				baseRun(p)
				p.checkedRun(r, false)
			}
		}))
	}
	r.set("setup_s", medianDur(setups).Seconds(), "s")

	// The seed orders each round's programs; the kernels' inputs are fixed
	// by their sizes.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var rt runtimeSample
	var checkedEvents float64
	deadline := time.Now().Add(cfg.Seconds)
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		for k, i := range rng.Perm(len(progs)) {
			p := progs[i]
			id := int64(round*len(progs) + k)
			sp := t.start(id, "rtsim.base."+p.w.Name, -1)
			d := baseRun(p)
			t.end(sp)
			p.base = append(p.base, d)

			sp = t.start(id, "rtsim.checked."+p.w.Name, -1)
			before := readRuntime()
			d, s := p.checkedRun(r, cfg.PlantWrongReport && round == 0 && k == 0)
			rt.add(readRuntime(), before)
			t.end(sp)
			checkedEvents += float64(p.events)
			p.checked = append(p.checked, d)
			c := s.Counters
			if total := c["reads.total"] + c["writes.total"]; total > 0 {
				p.fast = append(p.fast, float64(c["reads.fast"]+c["writes.fast"])/float64(total))
			}
			p.retries = append(p.retries, float64(c["handler.retries"]))
			p.joins = append(p.joins, float64(c["vc.joins"]))

			if t != nil {
				sp = t.start(id, "rtsim.checked+latency."+p.w.Name, -1)
				p.traced = append(p.traced, p.tracedRun(r))
				t.end(sp)
			}
		}
	}

	var slowdowns, checkedMs, overheads []float64
	var events float64
	var checkedSum time.Duration
	for _, p := range progs {
		b, c := medianDur(p.base), medianDur(p.checked)
		slowdowns = append(slowdowns, float64(c)/float64(b))
		checkedMs = append(checkedMs, ms(c))
		events += float64(p.events)
		checkedSum += c
		name := p.w.Name
		r.set("online_slowdown."+name, float64(c)/float64(b), "x")
		r.set("rtsim.base_ms."+name, ms(b), "ms")
		r.set("rtsim.checked_ms."+name, ms(c), "ms")
		r.set("core.fast_path_share."+name, median(p.fast), "ratio")
		r.set("core.handler_retries."+name, median(p.retries), "count")
		r.set("vc.joins."+name, median(p.joins), "count")
		if t == nil {
			continue
		}
		r.set("rtsim.events."+name, float64(p.rtsimEvents), "count")
		r.set("core.access_handler_ns_mean."+name, p.access.Mean(), "ns")
		r.set("core.sync_handler_ns_mean."+name, p.sync.Mean(), "ns")
		overheads = append(overheads, float64(medianDur(p.traced))/float64(c))
	}
	opsPerS := events / checkedSum.Seconds()
	r.set("online_slowdown", geomean(slowdowns), "x")
	r.set("online_events_per_s", opsPerS, "events/s")
	r.set("check_ops_per_s", opsPerS, "ops/s")
	r.set("latency_ms", geomean(checkedMs), "ms")
	if t == nil {
		return r, nil
	}
	r.set("bench.tracing_overhead_frac", geomean(overheads)-1, "ratio")
	r.setRuntime(rt, checkedEvents)
	return r, nil
}
