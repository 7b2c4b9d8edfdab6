package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	verifiedft "repro"
	"repro/internal/ingest"
	"repro/internal/parcheck"
	"repro/internal/spec"
	"repro/internal/trace"
)

// serverGenConfig is one upload body's generator configuration: the Go
// synchronization mix (channels, atomics, once) over 8 threads, 256
// variables and 16 locks. At 20,000 steps a body holds about 36k ops.
func serverGenConfig(steps int) trace.GenConfig {
	c := trace.GoSyncGenConfig()
	c.Ops, c.Threads, c.Vars, c.Locks = steps, 8, 256, 16
	return c
}

// uploadBody is one distinct trace of the upload pool.
type uploadBody struct {
	ops     trace.Trace
	bin     []byte
	ext     *trace.Extensions
	chancap string // the ?chancap= value matching ext
	want    []byte // JSON of the offline sequential CheckTrace reports
}

func genPool(cfg config) ([]*uploadBody, error) {
	gc := serverGenConfig(cfg.ServerSteps)
	ext := gc.Extensions()
	var caps []string
	if ext != nil {
		for c, n := range ext.ChanCapacity {
			caps = append(caps, fmt.Sprintf("%d:%d", c, n))
		}
		sort.Strings(caps)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pool := make([]*uploadBody, cfg.ServerBodies)
	for i := range pool {
		ops := trace.Generate(rand.New(rand.NewSource(rng.Int63())), gc)
		var buf bytes.Buffer
		if err := verifiedft.EncodeBinary(&buf, ops); err != nil {
			return nil, err
		}
		pool[i] = &uploadBody{ops: ops, bin: buf.Bytes(), ext: ext, chancap: strings.Join(caps, ",")}
	}
	return pool, nil
}

// serverReference computes, once per pool, the offline sequential report
// list of every body, and checks that its race verdict and first race
// agree with the specification.
func serverReference(r *result, pool []*uploadBody) error {
	for i, b := range pool {
		var opts []verifiedft.CheckOption
		if b.ext != nil {
			opts = append(opts, verifiedft.WithChanCapacities(b.ext.ChanCapacity))
		}
		reps, err := verifiedft.CheckTrace(b.ops, opts...)
		if err != nil {
			return fmt.Errorf("reference CheckTrace of body %d: %w", i, err)
		}
		if b.want, err = json.Marshal(ingest.FromCoreAll(reps)); err != nil {
			return err
		}
		ref := spec.Run(spec.VerifiedFT, b.ops.Desugar(b.ext))
		r.check(verdictAgrees(ref, reps), "server: body %d: %d offline reports disagree with spec (race at %d)", i, len(reps), ref.RaceAt)
	}
	return nil
}

// liveServer is an in-process ingest server on a loopback listener.
type liveServer struct {
	ing  *ingest.Server
	http *http.Server
	base string
	done chan error
}

// startServer starts an ingest server with the default configuration.
// With a tracer, each request runs inside an "ingest.handler" span, a
// child of the client's "ingest.upload" span.
func startServer(t *tracer) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ing := ingest.New(ingest.Config{})
	h := ing.Handler()
	if t != nil {
		h = tracedHandler(t, h)
	}
	s := &liveServer{
		ing:  ing,
		http: &http.Server{Handler: h},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits until Serve has returned.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// spanHeader carries the client span's index to the server-side span,
// so the two spans of one upload share its id.
const spanHeader = "X-Perfbench-Span"

func tracedHandler(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, err := strconv.Atoi(req.Header.Get(spanHeader))
		if err != nil {
			parent = -1
		}
		id, _ := strconv.ParseInt(req.Header.Get(spanHeader+"-Id"), 10, 64)
		sp := t.start(id, "ingest.handler", parent)
		defer t.end(sp)
		h.ServeHTTP(w, req)
	})
}

// upload is one completed request.
type upload struct {
	latency time.Duration
	ops     int
	ok      bool
}

// loadResult is one closed-loop load phase.
type loadResult struct {
	uploads []upload
	wall    time.Duration
}

// serverClients is the number of closed-loop clients. The server already
// checks each upload with one parcheck worker per CPU. With a client per
// CPU as well, more goroutines are runnable than there are CPUs, and
// upload latency follows how the scheduler interleaves them rather than
// the server's own work.
const serverClients = 1

// runLoad drives the server with serverClients closed-loop clients, each
// on its own keep-alive connection and tenant, cycling through the pool,
// until d has passed or each client made maxUploads uploads (0: no cap).
func runLoad(r *result, srv *liveServer, pool []*uploadBody, d time.Duration, maxUploads int, t *tracer, plantBad bool) loadResult {
	clients := serverClients
	var mu sync.Mutex
	var all []upload
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			var mine []upload
			tenant := fmt.Sprintf("client-%d", c)
			for i := 0; (maxUploads == 0 || i < maxUploads) && time.Now().Before(deadline); i++ {
				b := pool[(c*len(pool)/clients+i)%len(pool)]
				ten := tenant
				if plantBad && c == 0 && i == 0 {
					ten = "bad!tenant"
				}
				mine = append(mine, doUpload(r, client, srv.base, ten, b, t))
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return loadResult{uploads: all, wall: time.Since(start)}
}

// uploadIDs numbers uploads for their spans.
var uploadIDs atomic.Int64

// doUpload posts one body, waits for the whole response and checks that
// it is a 200 whose reports equal the offline reference.
func doUpload(r *result, client *http.Client, base, tenant string, b *uploadBody, t *tracer) upload {
	url := base + "/v1/traces?variant=vft-v2&tenant=" + tenant
	if b.chancap != "" {
		url += "&chancap=" + b.chancap
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b.bin))
	if err != nil {
		panic(err) // the URL is built from fixed parts
	}
	id := uploadIDs.Add(1)
	sp := t.start(id, "ingest.upload", -1)
	req.Header.Set(spanHeader, strconv.Itoa(sp))
	req.Header.Set(spanHeader+"-Id", strconv.FormatInt(id, 10))
	t0 := time.Now()
	resp, err := client.Do(req)
	var body []byte
	status := 0
	if err == nil {
		status = resp.StatusCode
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(t0)
	t.end(sp)
	var res ingest.UploadResult
	ok := err == nil && status == http.StatusOK && json.Unmarshal(body, &res) == nil
	if ok {
		got, _ := json.Marshal(res.Reports) // decoded from JSON, so it re-encodes
		if res.Reports == nil {
			got = []byte("[]")
		}
		ok = res.Ops == len(b.ops) && bytes.Equal(got, b.want)
	}
	r.check(ok, "server: upload as %s: status %d, err %v, %d ops (want %d)", tenant, status, err, res.Ops, len(b.ops))
	return upload{latency: lat, ops: len(b.ops), ok: ok}
}

func runServer(cfg config, t *tracer) (*result, error) {
	r := newResult()
	var pool []*uploadBody
	var srv *liveServer
	var setups []time.Duration
	for i := 0; i < cfg.Setups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		pool, srv = nil, nil
		runtime.GC()
		var err error
		gen := since(func() { pool, err = genPool(cfg) })
		if err != nil {
			return nil, err
		}
		// The reference verdicts are not set-up work: they are computed
		// between the timed parts.
		if err := serverReference(r, pool); err != nil {
			return nil, err
		}
		serve := since(func() {
			if srv, err = startServer(nil); err != nil {
				return
			}
			// Warm-up: every body once, from every client in turn.
			runLoad(r, srv, pool, time.Hour, (len(pool)+serverClients-1)/serverClients, nil, false)
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, gen+serve)
	}
	r.set("setup_s", medianDur(setups).Seconds(), "s")

	if t == nil {
		load := runLoad(r, srv, pool, cfg.Seconds, 0, nil, cfg.PlantBadUpload)
		setLoadMetrics(r, load)
		return r, srv.stop()
	}

	// Traced run: an untraced load phase, then a traced one on a server
	// whose handler is wrapped in spans, then the in-process layers on
	// the same bodies.
	plain := runLoad(r, srv, pool, cfg.Seconds/2, 0, nil, cfg.PlantBadUpload)
	if err := srv.stop(); err != nil {
		return nil, err
	}
	srv, err := startServer(t)
	if err != nil {
		return nil, err
	}
	before := readRuntime()
	traced := runLoad(r, srv, pool, cfg.Seconds/2, 0, t, false)
	var rt runtimeSample
	rt.add(readRuntime(), before)
	if err := srv.stop(); err != nil {
		return nil, err
	}
	setLoadMetrics(r, traced)
	ops := 0
	for _, u := range traced.uploads {
		ops += u.ops
	}
	r.setRuntime(rt, float64(ops))
	r.set("bench.tracing_overhead_frac", latencyMean(traced)/latencyMean(plain)-1, "ratio")
	setIngestCounters(r, srv.ing, len(traced.uploads))
	return r, inProcessLayers(r, t, pool, latencyP50(traced))
}

func latencyP50(l loadResult) float64 {
	lat := make([]float64, len(l.uploads))
	for i, u := range l.uploads {
		lat[i] = float64(u.latency)
	}
	return median(lat)
}

func latencyMean(l loadResult) float64 {
	var sum time.Duration
	for _, u := range l.uploads {
		sum += u.latency
	}
	return float64(sum) / float64(len(l.uploads))
}

// setLoadMetrics records throughput and client-side latency.
func setLoadMetrics(r *result, l loadResult) {
	var lat []float64
	ops := 0
	for _, u := range l.uploads {
		if u.ok {
			lat = append(lat, ms(u.latency))
			ops += u.ops
		}
	}
	perS := float64(len(lat)) / l.wall.Seconds()
	r.set("uploads_per_s", perS, "uploads/s")
	r.set("upload_p50_ms", median(lat), "ms")
	r.set("upload.samples", float64(len(lat)), "count")
	// The tail is the highest of p99, p95 and p90 that leaves at least
	// ten samples beyond it.
	for _, p := range []float64{99, 95, 90} {
		if float64(len(lat))*(100-p)/100 >= 10 {
			r.set(fmt.Sprintf("upload_p%.0f_ms", p), percentile(lat, p), "ms")
			break
		}
	}
	r.set("check_ops_per_s", float64(ops)/l.wall.Seconds(), "ops/s")
	// Upload latency is bimodal, with modes near 10 and 17 ms on a 2-CPU
	// host, and its median falls between them, where a small shift in
	// the modes' weights moves it by several ms. The mean moves only in
	// proportion.
	r.set("latency_ms", mean(lat), "ms")
}

// setIngestCounters reads the server registry's ingest.* and parcheck.*
// counters after a load phase of n uploads.
func setIngestCounters(r *result, ing *ingest.Server, n int) {
	c := ing.Registry().Snapshot().Counters
	var rejected uint64
	for k, v := range c {
		if strings.HasPrefix(k, "ingest.rejected.") {
			rejected += v
		}
	}
	r.set("ingest.rejected", float64(rejected), "count")
	r.set("ingest.reports.deduped", float64(c["ingest.reports.deduped"]), "count")
	if hits, misses := c["parcheck.intern.hits"], c["parcheck.intern.misses"]; hits+misses > 0 {
		r.set("parcheck.intern_hit_share", float64(hits)/float64(hits+misses), "ratio")
	}
	if acc := c["parcheck.ops.access"]; acc > 0 {
		r.set("parcheck.fused_ops_share", float64(c["parcheck.fused.ops"])/float64(acc), "ratio")
	}
	if n > 0 {
		r.set("parcheck.vc.joins", float64(c["parcheck.vc.joins"])/float64(n), "count/upload")
	}
}

// inProcessLayers times, outside the server, the same bodies through
// parcheck.Check as the server calls it, through sequential CheckReader,
// and through the trace and core stage stacks.
func inProcessLayers(r *result, t *tracer, pool []*uploadBody, uploadP50 float64) error {
	const reps = 3
	var par, seq []float64
	for rep := 0; rep < reps; rep++ {
		for i, b := range pool {
			id := int64(rep*len(pool) + i)
			sp := t.start(id, "parcheck.Check", -1)
			dec, err := trace.NewDecoder(bytes.NewReader(b.bin))
			if err != nil {
				return err
			}
			pipe := trace.DesugarSource(trace.ValidateSource(dec, b.ext), b.ext)
			_, err = parcheck.Check(pipe, parcheck.Options{Variant: verifiedft.V2})
			par = append(par, float64(t.end(sp)))
			if err != nil {
				return fmt.Errorf("parcheck.Check: %w", err)
			}

			var opts []verifiedft.CheckOption
			if b.ext != nil {
				opts = append(opts, verifiedft.WithChanCapacities(b.ext.ChanCapacity))
			}
			sp = t.start(id, "verifiedft.CheckReader", -1)
			_, err = verifiedft.CheckReader(bytes.NewReader(b.bin), opts...)
			seq = append(seq, float64(t.end(sp)))
			if err != nil {
				return fmt.Errorf("CheckReader: %w", err)
			}
		}
	}
	r.set("parcheck.check_ms_p50", median(par)/1e6, "ms")
	r.set("core.sequential_check_ms_p50", median(seq)/1e6, "ms")
	r.set("ingest.overhead_ms_p50", (uploadP50-median(par))/1e6, "ms")

	inputs := make([]stackInput, len(pool))
	ops, lowered := 0, 0
	for i, b := range pool {
		low, err := trace.ReadAll(trace.DesugarSource(trace.ValidateSource(b.ops.Source(), b.ext), b.ext))
		if err != nil {
			return err
		}
		bin := b.bin
		inputs[i] = stackInput{
			ops: b.ops, lowered: low, ext: b.ext,
			open: func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(bin)), nil },
		}
		ops += len(b.ops)
		lowered += len(low)
	}
	for rep := 0; rep < reps; rep++ {
		root := t.start(int64(rep), "server.stacks", -1)
		s, err := runStacks(t, int64(rep), root, inputs)
		t.end(root)
		if err != nil {
			return err
		}
		if rep == reps-1 {
			setLayerMetrics(r, t, ops, lowered, s)
		}
	}
	return nil
}
