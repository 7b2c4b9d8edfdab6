// Command perfbench is the repository's benchmark: one command that runs
// a workload against the default configuration (VerifiedFT-v2, dense
// clocks, no sampling, the sequential checker except where vft-server uses
// parcheck), checks every output against a reference, and prints the
// end-to-end metrics; with --trace 1 it prints the per-layer metrics of a
// traced run instead.
//
//	perfbench --workload offline-core --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it are a
// human-readable summary: provenance, and every metric by name and unit.
// A failed correctness check is counted in failed and makes the command
// exit 1; a benchmark that cannot run at all exits 2 without a result.
// README.md next to this file explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/harness"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run produced.
type result struct {
	mu        sync.Mutex // guards Attempted, Failed and Failures
	Attempted int
	Failed    int
	// Failures describes each failed correctness check, for the summary.
	Failures []string
	// Metrics holds what the workload measured, keyed by name. execute
	// keeps in it only the metrics of the result line: the end-to-end ones
	// of an untraced run, the per-layer ones of a traced run.
	Metrics map[string]metric
	// Extra holds the rest, which only the summary table prints.
	Extra map[string]metric
}

func newResult() *result {
	return &result{Metrics: map[string]metric{}, Extra: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// check counts one attempted operation and records it as failed when ok
// is false.
func (r *result) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
		}
	}
}

// config is one run's parameters: the command-line flags plus the input
// sizes, which the self-test shrinks.
type config struct {
	Seed    int64
	Seconds time.Duration
	Trace   bool
	// Dir is a scratch directory inside the checkout for files the
	// workload writes (the offline trace); it is removed when the run ends.
	Dir string
	// Setups is how many times set-up is repeated; setup_s is the median.
	Setups int

	OfflineSteps int            // trace.Generate steps of the offline-core trace
	OnlineSizes  map[string]int // problem size of each online kernel
	ServerSteps  int            // trace.Generate steps of one upload body
	ServerBodies int            // distinct bodies in the upload pool

	// Planted faults, used only by the self-test to prove that a wrong
	// report and a non-200 upload are counted as failures.
	PlantWrongReport bool
	PlantBadUpload   bool
}

func defaultConfig() config {
	return config{
		Setups:       3,
		OfflineSteps: 2_000_000,
		OnlineSizes:  onlineSizes,
		ServerSteps:  20_000,
		ServerBodies: 48,
	}
}

// runners maps each workload name to its runner. A runner returns an
// error only when the benchmark itself cannot run; wrong outputs are
// counted in the result.
var runners = map[string]func(config, *tracer) (*result, error){
	"offline-core":  runOffline,
	"online-table1": runOnline,
	"server-upload": runServer,
}

// endToEnd and perLayer name every metric a run prints, with its unit.
// Every workload prints all of them; BENCHMARK.json lists the same names.
var endToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"check_ops_per_s", "ops/s"},
	{"latency_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// onlinePrograms are the Table 1 kernels of online-table1.
var onlinePrograms = []string{"sunflow", "montecarlo", "tomcat", "sor"}

func perLayer() []struct{ Name, Unit string } {
	out := []struct{ Name, Unit string }{
		{"trace.iterate_ns_per_op", "ns/op"},
		{"trace.decode_binary_ns_per_op", "ns/op"},
		{"trace.validate_ns_per_op", "ns/op"},
		{"trace.lower_ns_per_op", "ns/op"},
		{"core.dispatch_ns_per_op", "ns/op"},
		{"core.fast_path_share", "ratio"},
		{"core.slow_accesses", "count"},
		{"pipeline.front_end_ratio", "ratio"},
		{"offline.unattributed_ns_per_op", "ns/op"},
		{"vc.joins", "count"},
		{"vc.join_scanned", "count"},
		{"shadow.bytes", "bytes"},
		{"online_slowdown", "x"},
	}
	for _, p := range onlinePrograms {
		out = append(out, []struct{ Name, Unit string }{
			{"online_slowdown." + p, "x"},
			{"rtsim.base_ms." + p, "ms"},
			{"rtsim.checked_ms." + p, "ms"},
			{"rtsim.events." + p, "count"},
			{"core.fast_path_share." + p, "ratio"},
			{"core.handler_retries." + p, "count"},
			{"vc.joins." + p, "count"},
			{"core.access_handler_ns_mean." + p, "ns"},
			{"core.sync_handler_ns_mean." + p, "ns"},
		}...)
	}
	return append(out, []struct{ Name, Unit string }{
		{"parcheck.check_ms_p50", "ms"},
		{"parcheck.intern_hit_share", "ratio"},
		{"parcheck.fused_ops_share", "ratio"},
		{"parcheck.vc.joins", "count/upload"},
		{"core.sequential_check_ms_p50", "ms"},
		{"ingest.overhead_ms_p50", "ms"},
		{"ingest.rejected", "count"},
		{"ingest.reports.deduped", "count"},
		{"go.gc_cpu_frac", "ratio"},
		{"go.alloc_bytes_per_op", "B/op"},
		{"bench.tracing_overhead_frac", "ratio"},
	}...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: offline-core, online-table1 or server-upload")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long the measured region lasts")
	traced := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := runners[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (offline-core, online-table1, server-upload), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	cfg := defaultConfig()
	cfg.Seed = *seed
	cfg.Seconds = time.Duration(*seconds) * time.Second
	cfg.Trace = *traced == 1
	// Files the run writes stay inside the checkout, under the directory
	// the build outputs use.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)
	cfg.Dir = dir

	res, spans, err := execute(*name, runner, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	prov := collectProvenance(*name, cfg)
	if spans != nil {
		// The span dump lands next to the build outputs, outside the
		// removed scratch directory, so it survives the run.
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *name, cfg.Seed))
		if err := spans.writeFile(path, prov); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	printSummary(stdout, prov, res)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// execute runs one workload and completes its metric set: every workload
// reports every end-to-end metric (untraced) or every per-layer metric
// (traced), a layer the workload never reaches reading 0.
func execute(name string, runner func(config, *tracer) (*result, error), cfg config) (*result, *tracer, error) {
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	res, err := runner(cfg, tr)
	if err != nil {
		return nil, nil, err
	}
	if res.Attempted < 1 {
		return nil, nil, fmt.Errorf("no operation attempted")
	}
	want := perLayer()
	if !cfg.Trace {
		res.set("peak_rss_mb", peakRSSMB(), "MB")
		want = endToEnd
	}
	named := map[string]bool{}
	for _, m := range want {
		named[m.Name] = true
		if _, ok := res.Metrics[m.Name]; ok {
			continue
		}
		if !cfg.Trace {
			return nil, nil, fmt.Errorf("workload did not measure %s", m.Name)
		}
		res.set(m.Name, 0, m.Unit)
	}
	// Anything else the workload measured goes to the summary table only.
	for k, v := range res.Metrics {
		if !named[k] {
			res.Extra[k] = v
			delete(res.Metrics, k)
		}
	}
	return res, tr, nil
}

// provenance identifies the run; every field is measured when it runs.
type provenance struct {
	harness.Provenance
	GoVersion string `json:"go_version"`
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Traced    bool   `json:"traced"`
}

func collectProvenance(workload string, cfg config) provenance {
	p := provenance{
		Provenance: harness.CollectProvenance(),
		GoVersion:  runtime.Version(),
		Workload:   workload,
		Seed:       cfg.Seed,
		Seconds:    int(cfg.Seconds / time.Second),
		Traced:     cfg.Trace,
	}
	// The benchmark usually runs outside a git work tree; the go command
	// stamps the revision it was built from into the binary when it is
	// built inside one.
	if p.GitRev == "unknown" {
		if bi, ok := debug.ReadBuildInfo(); ok {
			var rev, modified string
			for _, s := range bi.Settings {
				switch s.Key {
				case "vcs.revision":
					rev = s.Value
				case "vcs.modified":
					modified = s.Value
				}
			}
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if rev != "" && modified == "true" {
				rev += "-dirty"
			}
			if rev != "" {
				p.GitRev = rev
			}
		}
	}
	return p
}

func printSummary(w io.Writer, prov provenance, res *result) {
	b, _ := json.Marshal(prov) // plain struct of strings and numbers
	fmt.Fprintf(w, "provenance: %s\n", b)
	fmt.Fprintf(w, "%-40s %16.6g %s\n", "failed_frac", failedFrac(res), "ratio")
	all := map[string]metric{}
	for k, v := range res.Extra {
		all[k] = v
	}
	for k, v := range res.Metrics {
		all[k] = v
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", k, all[k].Value, all[k].Unit)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}

// failedFrac is the share of attempted operations that failed: errored,
// got a non-200 response, or failed a correctness check.
func failedFrac(res *result) float64 {
	if res.Attempted == 0 {
		return 0
	}
	return float64(res.Failed) / float64(res.Attempted)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
