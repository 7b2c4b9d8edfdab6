package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/workloads"
)

// metricsPass must produce a coherent snapshot: rtsim's event counts agree
// with the detector's own access totals, the latency histograms actually
// sampled, and the frozen detector counters are present under "detector.".
func TestMetricsPassCoherence(t *testing.T) {
	w, err := workloads.ByName("montecarlo")
	if err != nil {
		t.Fatal(err)
	}
	snap := metricsPass(w, w.TestSize, "vft-v2")

	reads := snap.Counters["detector.reads.total"]
	writes := snap.Counters["detector.writes.total"]
	if reads == 0 || writes == 0 {
		t.Fatalf("empty access counts: %v", snap.Counters)
	}
	if got := snap.Counters["rtsim.events.read"]; got != reads {
		t.Errorf("rtsim reads %d != detector reads %d", got, reads)
	}
	if got := snap.Counters["rtsim.events.write"]; got != writes {
		t.Errorf("rtsim writes %d != detector writes %d", got, writes)
	}
	if snap.Counters["detector.reads.fast"]+snap.Counters["detector.reads.slow"] != reads {
		t.Errorf("read fast/slow split does not sum to total")
	}
	h, ok := snap.Histograms["latency.read_ns"]
	if !ok || h.Count == 0 {
		t.Errorf("latency.read_ns empty: %+v", h)
	}
	if snap.Gauges["detector.shadow.vars"] == 0 {
		t.Errorf("shadow.vars gauge empty")
	}
}

// The paper's §5 claim behind the v2 design: on real workload kernels, the
// three lock-free pure blocks — [Read Same Epoch], [Write Same Epoch] and
// [Read Shared Same Epoch] — cover the overwhelming majority of accesses.
// montecarlo and pmd are the suite's clearest exemplars (the suite-wide
// share sits lower, pulled down by barrier-heavy kernels like sor).
func TestV2SameEpochRulesDominate(t *testing.T) {
	for _, name := range []string{"montecarlo", "pmd"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		snap := metricsPass(w, w.TestSize, "vft-v2")
		same := snap.Counters["detector.rule.read_same_epoch"] +
			snap.Counters["detector.rule.write_same_epoch"] +
			snap.Counters["detector.rule.read_shared_same_epoch"]
		total := snap.Counters["detector.reads.total"] + snap.Counters["detector.writes.total"]
		if total == 0 {
			t.Fatalf("%s: no accesses recorded", name)
		}
		share := float64(same) / float64(total)
		if share <= 0.9 {
			t.Errorf("%s: same-epoch rules cover %.1f%% of accesses, want >90%%",
				name, 100*share)
		}
		if fp := FastPathShare(snap); fp <= 0.9 {
			t.Errorf("%s: fast-path share %.1f%%, want >90%%", name, 100*fp)
		}
	}
}

// The bench JSON must round-trip the new observability fields.
func TestWriteJSONCarriesMetrics(t *testing.T) {
	opts := Options{
		Warmup: 0, Iters: 1, Quick: true,
		Detectors: []string{"vft-v2"},
		Programs:  []string{"montecarlo"},
		Registry:  obs.NewRegistry(),
	}
	table, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := table.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Rows []struct {
			FastPath map[string]float64      `json:"fast_path"`
			Metrics  map[string]obs.Snapshot `json:"metrics"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Rows) != 1 {
		t.Fatalf("rows = %d", len(decoded.Rows))
	}
	r := decoded.Rows[0]
	if r.FastPath["vft-v2"] <= 0.9 {
		t.Errorf("fast_path = %v", r.FastPath)
	}
	m := r.Metrics["vft-v2"]
	if m.Counters["detector.reads.total"] == 0 {
		t.Errorf("metrics snapshot missing detector counters: %v", m.Counters)
	}
	// The live registry received the frozen cell source and progress gauge.
	live := opts.Registry.Snapshot()
	if live.Counters["montecarlo.vft-v2.detector.reads.total"] == 0 {
		t.Errorf("registry missing frozen cell source: %v", live.Counters)
	}
	if live.Gauges["bench.cells_done"] != 1 {
		t.Errorf("bench.cells_done = %d", live.Gauges["bench.cells_done"])
	}
}

// The "+elide" wrapper path must still yield detector stats (via Inner) and
// its own hit/miss counters.
func TestMetricsPassElide(t *testing.T) {
	w, err := workloads.ByName("montecarlo")
	if err != nil {
		t.Fatal(err)
	}
	snap := metricsPass(w, w.TestSize, "vft-v2+elide")
	if snap.Counters["detector.reads.total"] == 0 {
		t.Errorf("elide-wrapped detector stats missing: %v", snap.Counters)
	}
	if snap.Counters["elide.hits"]+snap.Counters["elide.misses"] == 0 {
		t.Errorf("elide counters missing")
	}
}
