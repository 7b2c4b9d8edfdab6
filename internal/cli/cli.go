// Package cli implements the command-line tools (vft-race, vft-bench,
// vft-stats, vft-fuzz, vft-run, vft-lint) as testable functions: each
// command is a Run function over explicit streams and returns its exit
// code, and the binaries under cmd/ are one-line wrappers. Exit codes
// follow the usual grep-style convention for vft-race and vft-lint:
// 0 no race/warning, 1 race/warning found, 2 error.
package cli

import (
	"bufio"
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/harness"
	"repro/internal/hb"
	"repro/internal/minilang"
	"repro/internal/obs"
	"repro/internal/parcheck"
	"repro/internal/rtsim"
	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/staticrace"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// serveMetrics publishes reg as the expvar variable name and serves it over
// HTTP on addr: /metrics is the indented obs snapshot, /debug/vars the
// standard expvar dump (which embeds the same snapshot under name), and
// /debug/pprof/* the usual profiling handlers — CPU profiles taken there
// carry the program/detector pprof labels the tools set around their hot
// loops. Returns a shutdown function.
func serveMetrics(addr, name string, reg *obs.Registry, stderr io.Writer) (func(), error) {
	obs.Publish(name, reg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(reg))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	fmt.Fprintf(stderr, "%s: serving metrics on http://%s/metrics (expvar /debug/vars, pprof /debug/pprof/)\n",
		name, ln.Addr())
	return func() { srv.Close() }, nil
}

// parseChanCaps parses a -chancaps flag value: comma-separated id:cap
// pairs ("0:2,3:1"). Channels absent from the map default to capacity 0,
// an unbuffered channel. Empty input yields nil (all defaults).
func parseChanCaps(s string) (map[trace.Lock]int, error) {
	if s == "" {
		return nil, nil
	}
	caps := map[trace.Lock]int{}
	for _, pair := range strings.Split(s, ",") {
		id, val, ok := strings.Cut(pair, ":")
		if !ok {
			return nil, fmt.Errorf("-chancaps: %q is not an id:cap pair", pair)
		}
		i, err := strconv.Atoi(id)
		if err != nil || i < 0 {
			return nil, fmt.Errorf("-chancaps: bad channel id %q", id)
		}
		c, err := strconv.Atoi(val)
		if err != nil || c < 0 {
			return nil, fmt.Errorf("-chancaps: bad capacity %q for channel %d", val, i)
		}
		caps[trace.Lock(i)] = c
	}
	return caps, nil
}

// Race implements vft-race: check a trace (file argument, or stdin via
// "-" or no argument) for races. Inputs may be text, binary or gzip; the
// encoding is sniffed from the stream. The multi-variant cross-check and
// the oracle need the whole trace, so this tool materializes it; use
// CheckReader/CheckSource (or vft-run on a trace input) for streams that
// must stay out of memory.
func Race(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vft-race", flag.ContinueOnError)
	fs.SetOutput(stderr)
	variant := fs.String("d", "vft-v2", "detector variant")
	all := fs.Bool("all", false, "run every precise variant and cross-check")
	oracle := fs.Bool("oracle", false, "also compare against the happens-before oracle")
	explain := fs.Bool("explain", false, "explain every conflicting pair: a happens-before witness chain or RACE")
	parties := fs.Int("parties", 2, "participant count for barrier lowering")
	chancaps := fs.String("chancaps", "",
		"per-channel buffer capacities as comma-separated id:cap pairs, e.g. 0:2,1:0 (absent channels are unbuffered)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	caps, err := parseChanCaps(*chancaps)
	if err != nil {
		fmt.Fprintln(stderr, "vft-race:", err)
		return 2
	}

	in, closeIn, err := openInput(fs.Arg(0), stdin)
	if err != nil {
		fmt.Fprintln(stderr, "vft-race:", err)
		return 2
	}
	defer closeIn()

	src, err := trace.NewDecoder(in)
	if err != nil {
		fmt.Fprintln(stderr, "vft-race:", err)
		return 2
	}
	tr, err := trace.ReadAll(src)
	if err != nil {
		fmt.Fprintln(stderr, "vft-race:", err)
		return 2
	}
	partyMap := map[trace.Lock]int{}
	for _, op := range tr {
		if op.Kind == trace.Barrier {
			partyMap[op.M] = *parties
		}
	}
	ext := &trace.Extensions{BarrierParties: partyMap, ChanCapacity: caps}
	if err := trace.ValidateExt(tr, ext); err != nil {
		fmt.Fprintln(stderr, "vft-race:", err)
		return 2
	}
	low := tr.Desugar(ext)

	variants := []string{*variant}
	if *all {
		variants = core.PreciseVariants()
	}

	raced := false
	var verdicts []bool
	for _, v := range variants {
		d, err := newDetectorFor(v, configFor(low))
		if err != nil {
			fmt.Fprintln(stderr, "vft-race:", err)
			return 2
		}
		reports := core.Replay(d, low)
		verdicts = append(verdicts, len(reports) > 0)
		if len(reports) > 0 {
			raced = true
		}
		for _, r := range reports {
			fmt.Fprintln(stdout, r)
		}
		if len(reports) == 0 && !*all {
			fmt.Fprintf(stdout, "[%s] no races detected (%d operations)\n", v, len(tr))
		}
	}
	if *all {
		for i := 1; i < len(verdicts); i++ {
			if verdicts[i] != verdicts[0] {
				fmt.Fprintf(stderr, "vft-race: VERDICT MISMATCH between %s and %s — detector bug\n",
					variants[0], variants[i])
				return 2
			}
		}
		if !raced {
			fmt.Fprintf(stdout, "no races detected by any of %v (%d operations)\n", variants, len(tr))
		}
	}
	if *oracle {
		rep := hb.Analyze(low)
		fmt.Fprintf(stdout, "oracle: %d concurrent conflicting pairs", len(rep.Races))
		if rep.HasRace() {
			fmt.Fprintf(stdout, " (first completes at operation #%d)", rep.FirstRaceAt())
		}
		fmt.Fprintln(stdout)
		if rep.HasRace() != raced {
			fmt.Fprintln(stderr, "vft-race: detector verdict disagrees with the oracle — precision bug")
			return 2
		}
	}
	if *explain {
		// Witness chains are computed on the lowered trace; positions
		// refer to it (the lowering only inserts lock operations).
		g := hb.BuildExplainedGraph(low)
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "conflicting pairs (positions in the lowered trace):")
		for _, v := range g.ExplainConflicts() {
			fmt.Fprintln(stdout, g.Format(v))
		}
	}
	if raced {
		return 1
	}
	return 0
}

// newDetectorFor builds the detector for a variant spelling, accepting
// the "sampled[:rate]" tier everywhere the precise names are accepted.
// The inner detector of a sampled tier is pre-sized for the expected
// sampled population, not the full id space (lazy materialization); the
// decision table covers the full space at four bytes per variable.
func newDetectorFor(variant string, cfg core.Config) (core.Detector, error) {
	base, pol, err := sample.ParseVariant(variant)
	if err != nil {
		return nil, err
	}
	return newSampled(base, cfg, pol)
}

// newSampled builds a base-variant detector, wrapped in the sampling tier
// when pol is non-nil.
func newSampled(base string, cfg core.Config, pol *sample.Policy) (core.Detector, error) {
	if pol == nil {
		return core.New(base, cfg)
	}
	innerCfg := cfg
	innerCfg.Vars = sampledVarsHint(pol.Rate, cfg.Vars)
	inner, err := core.New(base, innerCfg)
	if err != nil {
		return nil, err
	}
	return core.NewSampling(inner, *pol, cfg.Vars), nil
}

// sampledVarsHint sizes a sampled tier's inner shadow tables for the
// expected sampled population: rate·vars plus slack, clamped to [1, vars].
func sampledVarsHint(rate float64, vars int) int {
	hint := int(rate*float64(vars)) + 16
	if hint > vars {
		hint = vars
	}
	if hint < 1 {
		hint = 1
	}
	return hint
}

func configFor(tr trace.Trace) core.Config {
	cfg := core.Config{Threads: 8, Vars: 64, Locks: 16}
	for _, op := range tr {
		if int(op.T)+1 > cfg.Threads {
			cfg.Threads = int(op.T) + 1
		}
		if op.IsAccess() && int(op.X)+1 > cfg.Vars {
			cfg.Vars = int(op.X) + 1
		}
		if (op.Kind == trace.Acquire || op.Kind == trace.Release) && int(op.M)+1 > cfg.Locks {
			cfg.Locks = int(op.M) + 1
		}
	}
	return cfg
}

// Bench implements vft-bench: regenerate Table 1 (+ ablations).
func Bench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vft-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	iters := fs.Int("iters", 10, "measured iterations per cell (the paper uses 10)")
	warmup := fs.Int("warmup", 2, "warm-up iterations per cell")
	quick := fs.Bool("quick", false, "use the small test sizes")
	detectors := fs.String("detectors", "ft-mutex,ft-cas,vft-v1,vft-v1.5,vft-v2",
		"comma-separated detector variants (append +elide for check elision)")
	programs := fs.String("programs", "", "comma-separated program subset (default: whole suite)")
	ablation := fs.Bool("ablation", false, "also run the §3 rule-change ablations")
	parallel := fs.String("parallel", "",
		"comma-separated worker counts (e.g. 1,2,4,8): run the parallel-checking benchmark (EXPERIMENTS.md E17) instead of Table 1; 1 is the sequential baseline; uses the -detectors variant when exactly one is named, else vft-v2")
	fastpath := fs.Bool("fastpath", false,
		"run the clock-layer benchmark (EXPERIMENTS.md E20) instead of Table 1: same-epoch fast-path latency and allocs per detector, plus offline checking of the paper-scale workloads sequentially and through the parallel checker with a report cross-check")
	sampling := fs.Bool("sampling", false,
		"run the sampling-tier benchmark (EXPERIMENTS.md E22) instead of Table 1: per-access cost, trace-checking overhead and conformance recall per sampling rate, with the soundness gates checked")
	samplingRates := fs.String("rates", "",
		"comma-separated sampling rates for -sampling (default 1,0.1,0.01,0.001)")
	traceFile := fs.String("trace", "",
		"benchmark the detectors over this recorded trace (text, binary or gzip) instead of the workload suite")
	format := fs.String("format", "text", "output format: text or csv")
	jsonPath := fs.String("json", "BENCH_table1.json",
		"also write the table as machine-readable JSON to this file ('' disables)")
	metricsAddr := fs.String("metrics-addr", "",
		"serve live metrics over HTTP on this address while the bench runs (e.g. localhost:8071)")
	metricsLinger := fs.Duration("metrics-linger", 0,
		"keep the metrics endpoint up this long after the run finishes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(stderr, "vft-bench: unknown format %q\n", *format)
		return 2
	}

	if *traceFile != "" {
		return benchTrace(*traceFile, splitList(*detectors), *iters, *warmup, stdout, stderr)
	}
	if *fastpath {
		path := *jsonPath
		if path == "BENCH_table1.json" {
			path = "BENCH_fastpath.json" // the -json default names the other table
		}
		return benchFastPath(splitList(*detectors), *programs, *iters, *warmup, *quick, path, stdout, stderr)
	}
	if *sampling {
		path := *jsonPath
		if path == "BENCH_table1.json" {
			path = "BENCH_sampling.json" // the -json default names the other table
		}
		return benchSampling(*samplingRates, *iters, *warmup, *quick, path, stdout, stderr)
	}
	if *parallel != "" {
		path := *jsonPath
		if path == "BENCH_table1.json" {
			path = "BENCH_parallel.json" // the -json default names the other table
		}
		return benchParallel(*parallel, splitList(*detectors), *programs, *iters, *warmup, *quick, path, stdout, stderr)
	}

	opts := harness.Options{
		Warmup:    *warmup,
		Iters:     *iters,
		Detectors: splitList(*detectors),
		Quick:     *quick,
	}
	if *programs != "" {
		opts.Programs = splitList(*programs)
	}
	if *metricsAddr != "" {
		opts.Registry = obs.NewRegistry()
		shutdown, err := serveMetrics(*metricsAddr, "vft-bench", opts.Registry, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "vft-bench:", err)
			return 2
		}
		defer shutdown()
		// Registered after shutdown, so it runs first (LIFO): the endpoint
		// stays scrapeable for the linger window, then closes.
		defer func() {
			if *metricsLinger > 0 {
				fmt.Fprintf(stderr, "vft-bench: metrics endpoint lingering %v\n", *metricsLinger)
				time.Sleep(*metricsLinger)
			}
		}()
	}

	table, err := harness.Run(opts)
	if err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(stderr, "vft-bench:", err)
			return 2
		}
		err = table.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "vft-bench:", err)
			return 2
		}
		fmt.Fprintf(stderr, "vft-bench: wrote %s\n", *jsonPath)
	}
	if *format == "csv" {
		if err := table.FormatCSV(stdout); err != nil {
			fmt.Fprintln(stderr, "vft-bench:", err)
			return 2
		}
		return 0
	}
	fmt.Fprintln(stdout, "Table 1 — checking overhead (x base time); cf. paper §8")
	fmt.Fprintln(stdout)
	if err := table.Format(stdout); err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}

	if *ablation {
		fmt.Fprintln(stdout)
		runAblations(stdout)
	}
	return 0
}

// benchTrace is vft-bench -trace: time detector replay over one recorded
// trace, reporting throughput per variant — for sizing detectors on
// captured workloads rather than the built-in suite.
func benchTrace(path string, detectors []string, iters, warmup int, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	defer f.Close()
	src, err := trace.NewDecoder(f)
	if err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	tr, err := trace.ReadAll(src)
	if err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	if err := trace.Validate(tr); err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	low := tr.Desugar(nil)
	fmt.Fprintf(stdout, "Detector throughput over %s (%d ops after lowering; best of %d iterations)\n\n",
		path, len(low), iters)
	for _, v := range detectors {
		var best time.Duration
		for i := 0; i < warmup+iters; i++ {
			d, err := core.New(v, core.DefaultConfig())
			if err != nil {
				fmt.Fprintln(stderr, "vft-bench:", err)
				return 2
			}
			start := time.Now()
			core.Replay(d, low)
			if el := time.Since(start); i >= warmup && (best == 0 || el < best) {
				best = el
			}
		}
		if best <= 0 {
			best = time.Nanosecond
		}
		fmt.Fprintf(stdout, "%-10s %14.0f ops/sec  (best %v)\n",
			v, float64(len(low))/best.Seconds(), best)
	}
	return 0
}

// benchFastPath is vft-bench -fastpath: the clock-layer benchmark of
// EXPERIMENTS.md E20, written to BENCH_fastpath.json unless -json renames
// or disables it. A divergence between the sequential and parallel report
// lists is a correctness failure and exits nonzero.
func benchFastPath(detectors []string, programs string, iters, warmup int, quick bool, jsonPath string, stdout, stderr io.Writer) int {
	opts := harness.DefaultFastPathOptions()
	opts.Warmup, opts.Iters, opts.Quick = warmup, iters, quick
	// The Table-1 overhead geomean rides along in the JSON so the E20
	// gate has an end-to-end number, not just micro cells.
	opts.Table1 = true
	if len(detectors) > 0 {
		opts.Detectors = detectors
	}
	if programs != "" {
		opts.Programs = splitList(programs)
	}
	table, err := harness.RunFastPath(opts)
	if err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(stderr, "vft-bench:", err)
			return 2
		}
		err = table.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "vft-bench:", err)
			return 2
		}
		fmt.Fprintf(stderr, "vft-bench: wrote %s\n", jsonPath)
	}
	if err := table.Format(stdout); err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	if table.Divergent() {
		fmt.Fprintln(stderr, "vft-bench: report lists diverged between sequential and parallel checking")
		return 1
	}
	return 0
}

// benchSampling is vft-bench -sampling: the overhead-vs-recall sweep of
// the sampling tier (EXPERIMENTS.md E22), written to BENCH_sampling.json.
// Exit 1 flags a soundness failure — a rate-1.0 run that was not
// report-identical to the precise tier, or any rate whose reports were
// not the precise reports restricted to its sampled variables.
func benchSampling(rates string, iters, warmup int, quick bool, jsonPath string, stdout, stderr io.Writer) int {
	opts := harness.SamplingOptions{Iters: iters, Warmup: warmup, Quick: quick}
	for _, raw := range splitList(rates) {
		rate, err := sample.ParseRate(raw)
		if err != nil {
			fmt.Fprintln(stderr, "vft-bench:", err)
			return 2
		}
		opts.Rates = append(opts.Rates, rate)
	}
	table, err := harness.RunSampling(opts)
	if err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(stderr, "vft-bench:", err)
			return 2
		}
		err = table.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "vft-bench:", err)
			return 2
		}
		fmt.Fprintf(stderr, "vft-bench: wrote %s\n", jsonPath)
	}
	fmt.Fprintln(stdout, "Sampling tier — overhead vs recall (EXPERIMENTS.md E22)")
	fmt.Fprintln(stdout)
	if err := table.Format(stdout); err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	if table.Divergent() {
		fmt.Fprintln(stderr, "vft-bench: sampling soundness gate failed (see the gates column)")
		return 1
	}
	return 0
}

// benchParallel is vft-bench -parallel: the sequential-vs-sharded
// end-to-end comparison of EXPERIMENTS.md E17, written to
// BENCH_parallel.json unless -json renames or disables it.
func benchParallel(workerSpec string, detectors []string, programs string, iters, warmup int, quick bool, jsonPath string, stdout, stderr io.Writer) int {
	var workers []int
	for _, w := range splitList(workerSpec) {
		n, err := strconv.Atoi(w)
		if err != nil || n < 1 {
			fmt.Fprintf(stderr, "vft-bench: -parallel wants positive worker counts, got %q\n", w)
			return 2
		}
		workers = append(workers, n)
	}
	opts := harness.DefaultParallelOptions()
	opts.Warmup, opts.Iters, opts.Workers, opts.Quick = warmup, iters, workers, quick
	if len(detectors) == 1 {
		opts.Variant = detectors[0]
	}
	if programs != "" {
		opts.Programs = splitList(programs)
	}
	table, err := harness.RunParallel(opts)
	if err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(stderr, "vft-bench:", err)
			return 2
		}
		err = table.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "vft-bench:", err)
			return 2
		}
		fmt.Fprintf(stderr, "vft-bench: wrote %s\n", jsonPath)
	}
	if err := table.Format(stdout); err != nil {
		fmt.Fprintln(stderr, "vft-bench:", err)
		return 2
	}
	return 0
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runAblations times the two §3 rule changes at the specification level.
func runAblations(stdout io.Writer) {
	fmt.Fprintln(stdout, "Ablations — the §3 rule changes (VerifiedFT arm vs original FastTrack arm)")
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, timeFlavors("[Write Shared] keeps R (thrash pattern)", ThrashTrace(2000)))
	fmt.Fprintln(stdout, timeFlavors("[Join] without the Su.V(u) increment", JoinLadder(2000)))
}

func timeFlavors(name string, tr trace.Trace) harness.AblationResult {
	const reps = 50
	run := func(f spec.Flavor) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			if res := spec.Run(f, tr); res.RaceAt != -1 {
				panic(fmt.Sprintf("ablation trace raced: %v", res.Err))
			}
		}
		return time.Since(start) / reps
	}
	return harness.AblationResult{
		Name:        name,
		Description: name,
		ArmA:        "VerifiedFT",
		ArmB:        "FastTrackOrig",
		TimeA:       run(spec.VerifiedFT),
		TimeB:       run(spec.FastTrackOrig),
	}
}

// ThrashTrace alternates concurrent reads (keeping x Shared) with ordered
// writes — the §3 pattern on which the original [Write Shared] reset makes
// R oscillate between the shared and exclusive representations.
func ThrashTrace(rounds int) trace.Trace {
	tr := trace.Trace{trace.ForkOp(0, 1)}
	for r := 0; r < rounds; r++ {
		tr = append(tr,
			trace.Rd(0, 0),
			trace.Acq(1, 0), trace.Rd(1, 0), trace.Rel(1, 0),
			trace.Acq(0, 0), trace.Wr(0, 0), trace.Rel(0, 0),
			trace.Acq(1, 0), trace.Rel(1, 0),
		)
	}
	trace.MustValidate(tr)
	return tr
}

// JoinLadder forks, runs and joins a fresh thread per round.
func JoinLadder(rounds int) trace.Trace {
	var tr trace.Trace
	next := epoch.Tid(1)
	for r := 0; r < rounds; r++ {
		u := next
		next++
		tr = append(tr,
			trace.ForkOp(0, u),
			trace.Wr(u, trace.Var(r%8)),
			trace.JoinOp(0, u),
			trace.Rd(0, trace.Var(r%8)),
		)
	}
	trace.MustValidate(tr)
	return tr
}

// Stats implements vft-stats: the §5 rule-frequency table. -snapshot
// accepts a file or "-" for stdin, and gzip-compressed snapshots are
// decompressed transparently.
func Stats(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vft-stats", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "use the small test sizes")
	perProgram := fs.Bool("per-program", false, "also print the per-program serialization table")
	memory := fs.Bool("memory", false, "also print the shadow-memory footprint table (v2 vs djit)")
	snapshotFile := fs.String("snapshot", "",
		"pretty-print an obs metrics snapshot JSON file (as served at /metrics; '-' for stdin, gzip ok) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *snapshotFile != "" {
		in, closeIn, err := openInput(*snapshotFile, stdin)
		if err != nil {
			fmt.Fprintln(stderr, "vft-stats:", err)
			return 2
		}
		defer closeIn()
		r, err := maybeGzip(in)
		if err != nil {
			fmt.Fprintln(stderr, "vft-stats:", err)
			return 2
		}
		b, err := io.ReadAll(r)
		if err != nil {
			fmt.Fprintln(stderr, "vft-stats:", err)
			return 2
		}
		snap := obs.NewSnapshot()
		if err := json.Unmarshal(b, &snap); err != nil {
			fmt.Fprintln(stderr, "vft-stats:", err)
			return 2
		}
		fmt.Fprint(stdout, obs.FormatSnapshot(snap))
		return 0
	}

	s, err := stats.CollectSuite(*quick)
	if err != nil {
		fmt.Fprintln(stderr, "vft-stats:", err)
		return 2
	}
	fmt.Fprintln(stdout, "Analysis-rule frequency across the suite (cf. paper §5)")
	fmt.Fprintln(stdout)
	if err := s.Format(stdout); err != nil {
		fmt.Fprintln(stderr, "vft-stats:", err)
		return 2
	}
	if *perProgram {
		fmt.Fprintln(stdout)
		printSerializationTable(stdout, s)
	}
	if *memory {
		detectors := []string{"vft-v2", "ft-cas", "djit"}
		rows, err := stats.CollectMemory(*quick, detectors)
		if err != nil {
			fmt.Fprintln(stderr, "vft-stats:", err)
			return 2
		}
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "Shadow-state footprint at end of run (epochs vs full vector clocks)")
		fmt.Fprintln(stdout)
		if err := stats.FormatMemory(stdout, rows, detectors); err != nil {
			fmt.Fprintln(stderr, "vft-stats:", err)
			return 2
		}
	}
	return 0
}

func printSerializationTable(stdout io.Writer, s *stats.Summary) {
	fmt.Fprintln(stdout, "Per-program share of accesses serialized through the variable lock")
	fmt.Fprintln(stdout, "(the hardware-independent predictor of Table 1's many-core blowups;")
	fmt.Fprintln(stdout, " on the paper's 16-core testbed, high v1/v1.5 shares on sparse and")
	fmt.Fprintln(stdout, " sunflow are what produce the 316x/159x overheads)")
	fmt.Fprintln(stdout)
	variants := []string{"vft-v1", "vft-v1.5", "ft-mutex", "ft-cas", "vft-v2"}
	fmt.Fprintf(stdout, "%-12s %10s", "Program", "Accesses")
	for _, v := range variants {
		fmt.Fprintf(stdout, " %9s", v)
	}
	fmt.Fprintln(stdout)
	for _, w := range workloads.All() {
		counts := s.PerProgram[w.Name]
		var total uint64
		for r := spec.Rule(0); r < spec.NumRules; r++ {
			switch r {
			case spec.ReadSameEpoch, spec.WriteSameEpoch, spec.ReadSharedSameEpoch,
				spec.ReadExclusive, spec.ReadShare, spec.ReadShared,
				spec.WriteExclusive, spec.WriteShared:
				total += counts[r]
			}
		}
		fmt.Fprintf(stdout, "%-12s %10d", w.Name, total)
		for _, v := range variants {
			fmt.Fprintf(stdout, " %8.0f%%", 100*stats.SerializedShare(counts, v))
		}
		fmt.Fprintln(stdout)
	}
}

// Fuzz implements vft-fuzz: differential fuzzing of the whole stack. The
// sequential pass checks every generated trace as-is; with -schedules N,
// each trace is additionally re-executed as a concurrent program under N
// controlled schedules and every detector is cross-checked against the
// oracle on every explored linearization (see internal/conformance). The
// whole run, including schedule exploration, is a deterministic function of
// -seed. With -replay, one recorded trace (file or "-" for stdin; text,
// binary or gzip) goes through the same differential stack instead of
// generated ones — the triage path for traces captured in the field.
func Fuzz(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vft-fuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 2000, "number of traces to check")
	ops := fs.Int("ops", 60, "operations per trace")
	threads := fs.Int("threads", 4, "maximum threads per trace")
	seed := fs.Int64("seed", 1, "base RNG seed")
	racy := fs.Bool("racy", false, "disable the generator's locking bias (more races)")
	gosync := fs.Bool("gosync", false,
		"mix Go synchronization (channels, atomics, once) into the generated traces and lower it onto the core language before the differential check")
	shrink := fs.Bool("shrink", true, "delta-minimize a diverging trace before printing it")
	schedules := fs.Int("schedules", 0, "controlled schedules to explore per trace (0: sequential check only)")
	policy := fs.String("sched-policy", "pct",
		fmt.Sprintf("schedule exploration policy, one of %v", sched.PolicyNames()))
	replayFile := fs.String("replay", "",
		"differentially re-check one recorded trace (file or '-' for stdin; text, binary or gzip) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := sched.NewPolicy(*policy, 0); err != nil {
		fmt.Fprintln(stderr, "vft-fuzz:", err)
		return 2
	}

	if *replayFile != "" {
		return fuzzReplay(*replayFile, stdin, *schedules, *policy, *seed, *shrink, stdout, stderr)
	}

	cfg := trace.DefaultGenConfig()
	if *gosync {
		cfg = trace.GoSyncGenConfig()
	}
	cfg.Ops = *ops
	cfg.Threads = *threads
	if *racy {
		cfg.LockedFraction = 0
	}
	ext := cfg.Extensions()

	races, clean := 0, 0
	var explored harness.ScheduleStats
	for i := 0; i < *n; i++ {
		traceSeed := *seed + int64(i)
		rng := rand.New(rand.NewSource(traceSeed))
		tr := trace.Generate(rng, cfg)
		if *gosync {
			// The differential stack compares detectors on the §2 core
			// language; lower the Go-synchronization kinds first. The
			// lowering is what's under test here: a bug in it surfaces
			// as a divergence on the lowered trace.
			tr = tr.Desugar(ext)
		}
		if err := CheckOne(tr); err != nil {
			if *shrink {
				tr = Shrink(tr)
				err = CheckOne(tr) // re-derive the message for the minimized trace
			}
			fmt.Fprintf(stderr, "vft-fuzz: divergence on trace %d (seed %d): %v\n\n",
				i, traceSeed, err)
			fmt.Fprintln(stderr, "# replay with: vft-race -all -oracle <this file>")
			trace.Encode(stderr, tr)
			return 1
		}
		if hb.Analyze(tr).HasRace() {
			races++
		} else {
			clean++
		}

		if *schedules > 0 {
			prog, err := conformance.FromTrace(fmt.Sprintf("trace-%d", i), tr)
			if err != nil {
				fmt.Fprintln(stderr, "vft-fuzz:", err)
				return 2
			}
			sum, err := conformance.Explore(prog, conformance.Options{
				Policy:    *policy,
				Schedules: *schedules,
				// Derived from the trace seed alone, so replaying one
				// trace with `-n 1 -seed <traceSeed>` re-explores the
				// identical schedules.
				SeedBase: sched.SplitMix64(uint64(traceSeed)),
				Shrink:   *shrink,
			})
			if err != nil {
				fmt.Fprintln(stderr, "vft-fuzz:", err)
				return 2
			}
			explored.Add(sum.Schedules, sum.Distinct, sum.Racy, sum.Events)
			if len(sum.Divergences) > 0 {
				d := sum.Divergences[0]
				fmt.Fprintf(stderr, "vft-fuzz: schedule divergence on trace %d: %v\n\n", i, d)
				fmt.Fprintf(stderr, "# replay this trace's exploration with: vft-fuzz -n 1 -seed %d -schedules %d -sched-policy %s\n",
					traceSeed, *schedules, *policy)
				fmt.Fprintf(stderr, "# schedule seed %#x; minimized linearization (vft-race -all -oracle <this file>):\n", d.Seed)
				trace.Encode(stderr, d.Trace)
				return 1
			}
		}
	}
	fmt.Fprintf(stdout, "vft-fuzz: %d traces checked, no divergence (%d racy, %d race-free)\n",
		*n, races, clean)
	if *schedules > 0 {
		fmt.Fprintf(stdout, "vft-fuzz: %s\n", explored.Summary(*policy))
	}
	return 0
}

// fuzzReplay is vft-fuzz -replay: load one recorded trace, lower extended
// operations (the differential checker compares detectors on the core
// language), run the sequential cross-check, and optionally explore
// controlled schedules of it. Exit codes mirror the fuzz loop: 0 agreement,
// 1 divergence, 2 bad input.
func fuzzReplay(path string, stdin io.Reader, schedules int, policy string, seed int64, shrink bool, stdout, stderr io.Writer) int {
	in, closeIn, err := openInput(path, stdin)
	if err != nil {
		fmt.Fprintln(stderr, "vft-fuzz:", err)
		return 2
	}
	defer closeIn()
	src, err := trace.NewDecoder(in)
	if err != nil {
		fmt.Fprintln(stderr, "vft-fuzz:", err)
		return 2
	}
	tr, err := trace.ReadAll(src)
	if err != nil {
		fmt.Fprintln(stderr, "vft-fuzz:", err)
		return 2
	}
	if err := trace.Validate(tr); err != nil {
		fmt.Fprintln(stderr, "vft-fuzz:", err)
		return 2
	}
	low := tr.Desugar(nil)
	if err := CheckOne(low); err != nil {
		fmt.Fprintf(stderr, "vft-fuzz: divergence on replayed trace: %v\n", err)
		return 1
	}
	verdict := "race-free"
	if hb.Analyze(low).HasRace() {
		verdict = "racy"
	}
	fmt.Fprintf(stdout, "vft-fuzz: replayed trace agrees across all detectors and the oracle (%d ops after lowering, %s)\n",
		len(low), verdict)
	if schedules > 0 {
		prog, err := conformance.FromTrace(path, low)
		if err != nil {
			fmt.Fprintln(stderr, "vft-fuzz:", err)
			return 2
		}
		sum, err := conformance.Explore(prog, conformance.Options{
			Policy:    policy,
			Schedules: schedules,
			SeedBase:  sched.SplitMix64(uint64(seed)),
			Shrink:    shrink,
		})
		if err != nil {
			fmt.Fprintln(stderr, "vft-fuzz:", err)
			return 2
		}
		if len(sum.Divergences) > 0 {
			d := sum.Divergences[0]
			fmt.Fprintf(stderr, "vft-fuzz: schedule divergence on replayed trace: %v\n\n", d)
			fmt.Fprintf(stderr, "# schedule seed %#x; minimized linearization (vft-race -all -oracle <this file>):\n", d.Seed)
			trace.Encode(stderr, d.Trace)
			return 1
		}
		var explored harness.ScheduleStats
		explored.Add(sum.Schedules, sum.Distinct, sum.Racy, sum.Events)
		fmt.Fprintf(stdout, "vft-fuzz: %s\n", explored.Summary(policy))
	}
	return 0
}

// CheckOne runs the full differential comparison on one feasible trace.
// (The implementation lives in internal/conformance, which also applies it
// per explored schedule; this wrapper keeps the historical cli API.)
func CheckOne(tr trace.Trace) error { return conformance.CheckTrace(tr) }

// Shrink delta-minimizes a diverging trace so fuzz failures arrive at a
// human-readable size. See conformance.Shrink.
func Shrink(tr trace.Trace) trace.Trace { return conformance.Shrink(tr) }

// RunProg implements vft-run: execute a minilang program — or re-execute
// a recorded trace — under a detector. The input may be a file or "-" for
// stdin. Gzip-compressed and binary-encoded inputs are recognized from the
// stream head and replayed as traces through the streaming pipeline
// (decode → validate → desugar → rtsim demux replay), never materialized;
// -trace forces the same for a text-format trace, which is otherwise
// indistinguishable from a program source. Re-execution runs the trace's
// threads as real concurrent goroutines, so on racy inputs the detected
// interleaving (and with it the report set) is schedule-dependent, exactly
// as re-running a live program would be.
func RunProg(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vft-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	variant := fs.String("d", "vft-v2", "detector variant ('none' for an uninstrumented run)")
	runs := fs.Int("runs", 1, "number of executions (races are schedule-dependent; more runs, more schedules)")
	traceMode := fs.Bool("trace", false,
		"treat the input as a trace to re-execute (automatic for binary and gzip inputs)")
	parallelN := fs.Int("parallel", 1,
		"check a trace input offline with this many shard workers (0 = all cores) instead of re-executing it; deterministic, and incompatible with -runs > 1 and -static")
	static := fs.Bool("static", false,
		"run the static race analyzer on the program before executing it (warnings go to stderr; the exit code still reflects the dynamic runs — use vft-lint to gate on static warnings)")
	metricsAddr := fs.String("metrics-addr", "",
		"serve metrics over HTTP on this address: live rtsim event counts during the run, frozen detector stats after each run")
	metricsLinger := fs.Duration("metrics-linger", 0,
		"keep the metrics endpoint up this long after the last run")
	chancaps := fs.String("chancaps", "",
		"per-channel buffer capacities for trace inputs, comma-separated id:cap pairs (absent channels are unbuffered)")
	sampleRate := fs.Float64("sample", 1,
		"check through the sampling tier at this per-variable rate (1 = precise unless set explicitly; overrides a -d sampled:<rate> spelling)")
	sampleSeed := fs.Uint64("sample-seed", 0,
		"sampling seed (0 = library default); decisions are a pure function of (seed, variable id)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "vft-run: usage: vft-run [-d variant] [-runs N] [-trace] program.vft | trace | -")
		return 2
	}
	base, pol, err := sample.ParseVariant(*variant)
	if err != nil {
		fmt.Fprintln(stderr, "vft-run:", err)
		return 2
	}
	*variant = base
	fs.Visit(func(f *flag.Flag) {
		// An explicit -sample (even -sample 1, the identity gate) selects
		// the sampling tier and overrides a -d sampled:<rate> spelling.
		if f.Name == "sample" {
			pol = &sample.Policy{Rate: *sampleRate}
		}
	})
	if pol != nil {
		pol.Seed = *sampleSeed
		if pol.Seed == 0 {
			pol.Seed = sample.DefaultSeed
		}
		if err := pol.Validate(); err != nil {
			fmt.Fprintln(stderr, "vft-run:", err)
			return 2
		}
		if *variant == "none" {
			fmt.Fprintln(stderr, "vft-run: -sample needs a detector variant, not 'none'")
			return 2
		}
	}
	detCfg := core.DefaultConfig()
	caps, err := parseChanCaps(*chancaps)
	if err != nil {
		fmt.Fprintln(stderr, "vft-run:", err)
		return 2
	}
	var ext *trace.Extensions
	if caps != nil {
		ext = &trace.Extensions{ChanCapacity: caps}
	}
	path := fs.Arg(0)
	in, closeIn, err := openInput(path, stdin)
	if err != nil {
		fmt.Fprintln(stderr, "vft-run:", err)
		return 2
	}
	defer closeIn()

	var reg *obs.Registry
	var rtOpts []rtsim.Option
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		rtOpts = append(rtOpts, rtsim.WithMetrics(reg))
		shutdown, err := serveMetrics(*metricsAddr, "vft-run", reg, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "vft-run:", err)
			return 2
		}
		defer shutdown()
		defer func() {
			if *metricsLinger > 0 {
				fmt.Fprintf(stderr, "vft-run: metrics endpoint lingering %v\n", *metricsLinger)
				time.Sleep(*metricsLinger)
			}
		}()
	}

	br := bufio.NewReader(in)
	if *traceMode || sniffGzipOrBinaryTrace(br) {
		if *static {
			fmt.Fprintln(stderr, "vft-run: -static applies to program sources, not traces")
			return 2
		}
		if *parallelN != 1 {
			// The parallel checker replays the recorded interleaving
			// offline, so repeating it is pointless (it is deterministic,
			// unlike re-execution) and -runs > 1 is rejected rather than
			// silently re-measured.
			if *runs > 1 {
				fmt.Fprintln(stderr, "vft-run: -parallel replays offline deterministically; -runs must be 1")
				return 2
			}
			if *variant == "none" {
				fmt.Fprintln(stderr, "vft-run: -parallel needs a detector variant, not 'none'")
				return 2
			}
			return runTraceParallel(br, path, *variant, *parallelN, ext, reg, pol, stdout, stderr)
		}
		if (path == "-" || path == "") && *runs > 1 {
			fmt.Fprintln(stderr, "vft-run: -runs > 1 needs a re-readable file, not stdin")
			return 2
		}
		return runTrace(path, br, *variant, *runs, detCfg, ext, reg, rtOpts, pol, stdout, stderr)
	}
	if *parallelN != 1 {
		fmt.Fprintln(stderr, "vft-run: -parallel applies to trace inputs (use -trace for text traces)")
		return 2
	}
	src, err := io.ReadAll(br)
	if err != nil {
		fmt.Fprintln(stderr, "vft-run:", err)
		return 2
	}
	if *static {
		prog, err := minilang.Parse(string(src))
		if err != nil {
			fmt.Fprintln(stderr, "vft-run:", err)
			return 2
		}
		res := staticrace.Analyze(prog)
		for _, w := range res.Warnings {
			fmt.Fprintf(stderr, "%s:%s\n", path, w)
		}
		fmt.Fprintf(stderr, "vft-run: static analysis: %d warning(s); executing\n", len(res.Warnings))
	}

	raced := false
	for i := 0; i < *runs; i++ {
		var d core.Detector
		if *variant != "none" {
			d, err = newSampled(*variant, detCfg, pol)
			if err != nil {
				fmt.Fprintln(stderr, "vft-run:", err)
				return 2
			}
		}
		var reports []core.Report
		pprof.Do(context.Background(), pprof.Labels("program", fs.Arg(0), "detector", *variant), func(context.Context) {
			reports, err = minilang.Run(string(src), d, stdout, rtOpts...)
		})
		if err != nil {
			fmt.Fprintln(stderr, "vft-run:", err)
			return 2
		}
		if reg != nil {
			// The program has quiesced (minilang joins all threads), so the
			// detector's per-thread counters are coherent: freeze them into
			// the live registry. Repeat runs get ".2", ".3", … suffixes.
			if ss, ok := d.(core.StatsSource); ok {
				reg.RegisterSource(*variant, ss.Stats().Source())
			}
		}
		seen := map[trace.Var]bool{}
		for _, r := range reports {
			if !seen[r.X] {
				seen[r.X] = true
				fmt.Fprintln(stdout, r)
			}
		}
		if len(reports) > 0 {
			raced = true
		}
	}
	if raced {
		return 1
	}
	if *variant != "none" {
		fmt.Fprintf(stdout, "[%s] no races detected over %d run(s)\n", *variant, *runs)
	}
	return 0
}

// runTrace is RunProg's trace mode: each run streams the input through
// decode → validate → desugar → rtsim.Replay on a fresh runtime, never
// materializing the trace. The first run consumes in; later runs reopen
// path (the caller has already ruled out stdin when runs > 1).
func runTrace(path string, in io.Reader, variant string, runs int, cfg core.Config, ext *trace.Extensions, reg *obs.Registry, rtOpts []rtsim.Option, pol *sample.Policy, stdout, stderr io.Writer) int {
	raced := false
	for i := 0; i < runs; i++ {
		r := in
		if i > 0 {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintln(stderr, "vft-run:", err)
				return 2
			}
			r = f
		}
		racedOnce, code := runTraceOnce(r, path, variant, cfg, ext, reg, rtOpts, pol, stdout, stderr)
		if f, ok := r.(*os.File); ok && i > 0 {
			f.Close()
		}
		if code != 0 {
			return code
		}
		raced = raced || racedOnce
	}
	if raced {
		return 1
	}
	if variant != "none" {
		fmt.Fprintf(stdout, "[%s] no races detected over %d run(s)\n", variant, runs)
	}
	return 0
}

// runTraceParallel is vft-run -parallel: materialize the trace and check
// it offline through the variable-sharded parallel checker. The report
// set equals the sequential offline replay of the recorded interleaving
// (schedule-independent, unlike re-execution), printed deduplicated per
// variable like the other modes. With -metrics-addr, the checker's
// "parcheck" source lands in the registry.
func runTraceParallel(in io.Reader, path, variant string, workers int, ext *trace.Extensions, reg *obs.Registry, pol *sample.Policy, stdout, stderr io.Writer) int {
	src, err := trace.NewDecoder(in)
	if err != nil {
		fmt.Fprintln(stderr, "vft-run:", err)
		return 2
	}
	tr, err := trace.ReadAll(src)
	if err != nil {
		fmt.Fprintln(stderr, "vft-run:", err)
		return 2
	}
	ids := trace.Scan(tr)
	var reports []core.Report
	pprof.Do(context.Background(), pprof.Labels("program", path, "detector", variant), func(context.Context) {
		reports, err = parcheck.CheckTrace(tr, ext, parcheck.Options{
			Variant:  variant,
			Workers:  workers,
			Threads:  clampTableHint(ids.Threads, 1<<16),
			Vars:     clampTableHint(ids.Vars, 1<<20),
			Locks:    clampTableHint(ids.Locks, 1<<20),
			Metrics:  reg,
			Sampling: pol,
		})
	})
	if err != nil {
		fmt.Fprintln(stderr, "vft-run:", err)
		return 2
	}
	seen := map[trace.Var]bool{}
	for _, r := range reports {
		if !seen[r.X] {
			seen[r.X] = true
			fmt.Fprintln(stdout, r)
		}
	}
	if len(reports) > 0 {
		return 1
	}
	fmt.Fprintf(stdout, "[%s] no races detected (parallel offline check, %d ops)\n", variant, len(tr))
	return 0
}

// clampTableHint bounds a prescan size hint so hostile sparse ids in an
// input file cannot force huge eager shadow allocations.
func clampTableHint(n, max int) int {
	if n < 1 {
		return 1
	}
	if n > max {
		return max
	}
	return n
}

// runTraceOnce re-executes one trace stream as a live concurrent program.
// Like a program run, reports are deduplicated per variable for printing.
func runTraceOnce(in io.Reader, path, variant string, cfg core.Config, ext *trace.Extensions, reg *obs.Registry, rtOpts []rtsim.Option, pol *sample.Policy, stdout, stderr io.Writer) (bool, int) {
	src, err := trace.NewDecoder(in)
	if err != nil {
		fmt.Fprintln(stderr, "vft-run:", err)
		return false, 2
	}
	var d core.Detector
	if variant != "none" {
		if d, err = newSampled(variant, cfg, pol); err != nil {
			fmt.Fprintln(stderr, "vft-run:", err)
			return false, 2
		}
	}
	rt := rtsim.New(d, rtOpts...)
	pipe := trace.DesugarSource(trace.ValidateSource(src, ext), ext)
	pprof.Do(context.Background(), pprof.Labels("program", path, "detector", variant), func(context.Context) {
		err = rtsim.Replay(rt, pipe)
	})
	if err != nil {
		fmt.Fprintln(stderr, "vft-run:", err)
		return false, 2
	}
	if reg != nil && d != nil {
		if ss, ok := d.(core.StatsSource); ok {
			reg.RegisterSource(variant, ss.Stats().Source())
		}
	}
	reports := rt.Reports()
	seen := map[trace.Var]bool{}
	for _, r := range reports {
		if !seen[r.X] {
			seen[r.X] = true
			fmt.Fprintln(stdout, r)
		}
	}
	return len(reports) > 0, 0
}

// lintFile is one file's worth of vft-lint -json output.
type lintFile struct {
	File     string               `json:"file"`
	Warnings []staticrace.Warning `json:"warnings"`
}

// Lint implements vft-lint: run the static race analyzer over minilang
// program files (or stdin via "-" or no argument) without executing them.
// Warnings print one per line as file:line:col: ..., grep/editor style;
// -json emits a machine-readable array instead. Exit codes follow
// vft-race's convention: 0 clean, 1 warnings, 2 bad input. The analyzer
// is sound but not precise — a warning means no locking discipline or
// program structure visible to the analyzer rules the race out, not that
// some schedule certainly exhibits it (vft-run and schedule exploration
// answer that).
func Lint(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vft-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit warnings as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	paths := fs.Args()
	if len(paths) == 0 {
		paths = []string{"-"}
	}

	warned := false
	var files []lintFile
	for _, path := range paths {
		in, closeIn, err := openInput(path, stdin)
		if err != nil {
			fmt.Fprintln(stderr, "vft-lint:", err)
			return 2
		}
		src, err := io.ReadAll(in)
		closeIn()
		if err != nil {
			fmt.Fprintln(stderr, "vft-lint:", err)
			return 2
		}
		name := path
		if name == "-" || name == "" {
			name = "<stdin>"
		}
		prog, err := minilang.Parse(string(src))
		if err != nil {
			fmt.Fprintf(stderr, "vft-lint: %s: %v\n", name, err)
			return 2
		}
		res := staticrace.Analyze(prog)
		if len(res.Warnings) > 0 {
			warned = true
		}
		if *jsonOut {
			ws := res.Warnings
			if ws == nil {
				ws = []staticrace.Warning{} // encode clean files as [], not null
			}
			files = append(files, lintFile{File: name, Warnings: ws})
			continue
		}
		for _, w := range res.Warnings {
			fmt.Fprintf(stdout, "%s:%s\n", name, w)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(files); err != nil {
			fmt.Fprintln(stderr, "vft-lint:", err)
			return 2
		}
	}
	if warned {
		return 1
	}
	return 0
}
