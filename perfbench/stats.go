package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// median of xs (0 for none).
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile is the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p >= 100 {
		return s[len(s)-1]
	}
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runtimeSample reads the Go runtime's GC CPU time, total CPU time and
// cumulative heap allocation, so a measured region's GC share and
// allocation volume are the differences of two samples.
type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// add accumulates the difference after − before into s.
func (s *runtimeSample) add(after, before runtimeSample) {
	s.gcCPU += after.gcCPU - before.gcCPU
	s.totalCPU += after.totalCPU - before.totalCPU
	s.allocBytes += after.allocBytes - before.allocBytes
}

// setRuntime records go.gc_cpu_frac and go.alloc_bytes_per_op from the
// differences accumulated over the measured calls, in which ops
// operations were checked.
func (r *result) setRuntime(acc runtimeSample, ops float64) {
	if acc.totalCPU > 0 {
		r.set("go.gc_cpu_frac", acc.gcCPU/acc.totalCPU, "ratio")
	}
	if ops > 0 {
		r.set("go.alloc_bytes_per_op", acc.allocBytes/ops, "B/op")
	}
}
