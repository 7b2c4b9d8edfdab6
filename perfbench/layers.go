package main

import (
	"bufio"
	"fmt"
	"io"
	"time"

	verifiedft "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// stackInput is one trace the layer stacks drain: the decoded ops, the
// same ops already validated and lowered, a way to reopen its binary
// encoding, and the extensions it is checked with.
type stackInput struct {
	ops     trace.Trace
	lowered trace.Trace
	open    func() (io.ReadCloser, error)
	ext     *trace.Extensions
}

// Names of the stage-stack spans. The iterate, validate and lower stacks
// each drain the same ops through one more stage than the one before, so
// a stage's self time is the difference of two stacks; the decoder and
// dispatch are timed alone.
const (
	spanIterate  = "trace.iterate"
	spanDecode   = "trace.decode_binary"
	spanValidate = "trace.iterate+validate"
	spanLower    = "trace.iterate+validate+lower"
	spanDispatch = "core.dispatch"
)

// drain pulls src to its end and returns the op count.
func drain(src trace.Source) (int, error) {
	n := 0
	for {
		_, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// runStacks drains every input once through each stage stack, one span
// per stack, all children of parent. It returns the Stats of the vft-v2
// detectors the dispatch stack fed, summed over the inputs.
func runStacks(t *tracer, id int64, parent int, inputs []stackInput) (obs.Snapshot, error) {
	stats := obs.NewSnapshot()
	pass := func(name string, f func(in stackInput) error) error {
		sp := t.start(id, name, parent)
		defer t.end(sp)
		for _, in := range inputs {
			if err := f(in); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	if err := pass(spanIterate, func(in stackInput) error {
		_, err := drain(trace.NewSliceSource(in.ops))
		return err
	}); err != nil {
		return stats, err
	}
	if err := pass(spanDecode, func(in stackInput) error {
		rc, err := in.open()
		if err != nil {
			return err
		}
		defer rc.Close()
		dec := trace.NewBinaryDecoder(bufio.NewReader(rc))
		n, err := drain(dec)
		if err == nil && n != len(in.ops) {
			err = fmt.Errorf("decoded %d ops, want %d", n, len(in.ops))
		}
		return err
	}); err != nil {
		return stats, err
	}
	if err := pass(spanValidate, func(in stackInput) error {
		_, err := drain(trace.ValidateSource(trace.NewSliceSource(in.ops), in.ext))
		return err
	}); err != nil {
		return stats, err
	}
	if err := pass(spanLower, func(in stackInput) error {
		_, err := drain(trace.DesugarSource(trace.ValidateSource(trace.NewSliceSource(in.ops), in.ext), in.ext))
		return err
	}); err != nil {
		return stats, err
	}
	// Detectors are built before the dispatch span opens: CheckReader
	// builds its detector before the first op too, and construction is
	// not dispatch work.
	dets := make([]verifiedft.Detector, len(inputs))
	for i := range inputs {
		d, err := verifiedft.New(verifiedft.V2)
		if err != nil {
			return stats, err
		}
		dets[i] = d
	}
	sp := t.start(id, spanDispatch, parent)
	for i, in := range inputs {
		d := dets[i]
		for _, op := range in.lowered {
			core.Dispatch(d, op)
		}
	}
	t.end(sp)
	for _, d := range dets {
		s := d.(core.StatsSource).Stats()
		for k, v := range s.Counters {
			stats.Counters[k] += v
		}
		for k, v := range s.Gauges {
			stats.Gauges[k] += v
		}
	}
	return stats, nil
}

// setLayerMetrics turns the stack spans into per-op self times and the
// dispatch detectors' counters into the core and vc/shadow metrics. ops
// is the decoded op count of one pass over every input, lowered the
// lowered op count the dispatch stack saw. It returns the summed self
// time per op of decode, validate, lower and dispatch.
func setLayerMetrics(r *result, t *tracer, ops, lowered int, det obs.Snapshot) float64 {
	per := func(name string, n int) float64 { return float64(medianDur(t.durations(name))) / float64(n) }
	iter := per(spanIterate, ops)
	dec := per(spanDecode, ops)
	val := per(spanValidate, ops) - iter
	low := per(spanLower, ops) - per(spanValidate, ops)
	disp := per(spanDispatch, lowered)
	r.set("trace.iterate_ns_per_op", iter, "ns/op")
	r.set("trace.decode_binary_ns_per_op", dec, "ns/op")
	r.set("trace.validate_ns_per_op", val, "ns/op")
	r.set("trace.lower_ns_per_op", low, "ns/op")
	r.set("core.dispatch_ns_per_op", disp, "ns/op")
	if disp > 0 {
		r.set("pipeline.front_end_ratio", (dec+val+low)/disp, "ratio")
	}

	c := det.Counters
	fast := c["reads.fast"] + c["writes.fast"]
	if total := c["reads.total"] + c["writes.total"]; total > 0 {
		r.set("core.fast_path_share", float64(fast)/float64(total), "ratio")
	}
	r.set("core.slow_accesses", float64(c["reads.slow"]+c["writes.slow"]), "count")
	r.set("vc.joins", float64(c["vc.joins"]), "count")
	r.set("vc.join_scanned", float64(c["vc.join_scanned"]), "count")
	r.set("shadow.bytes", float64(det.Gauges["shadow.bytes"]), "bytes")
	t.count("trace.ops", float64(ops))
	t.count("core.accesses", float64(c["reads.total"]+c["writes.total"]))
	return dec + val + low + float64(lowered)/float64(ops)*disp
}

// reportText renders a report list for byte comparison.
func reportText(reps []verifiedft.Report) string {
	b := make([]byte, 0, 64*len(reps))
	for _, r := range reps {
		b = append(b, r.String()...)
		b = append(b, '\n')
	}
	return string(b)
}

// since runs f and returns how long it took.
func since(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}
