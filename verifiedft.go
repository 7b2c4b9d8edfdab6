// Package verifiedft is a Go implementation of VerifiedFT (Wilcox,
// Flanagan, Freund — PPoPP 2018): a precise dynamic data-race detector in
// the FastTrack family whose core algorithm is simple enough to verify,
// with lock-free fast paths for the three most common analysis cases.
//
// The package offers two levels of API.
//
// # Trace checking
//
// Build or parse a trace in the §2 trace language and check it:
//
//	tr := verifiedft.Trace{
//		verifiedft.Fork(0, 1),
//		verifiedft.Write(0, 0),
//		verifiedft.Write(1, 0),
//	}
//	reports, err := verifiedft.CheckTrace(tr)
//
// CheckTrace validates feasibility, lowers extended operations (volatiles,
// barriers), replays the trace through a VerifiedFT-v2 detector and returns
// one report per detected race. The analysis is precise: it reports at
// least one race if and only if the trace has two concurrent conflicting
// accesses (Theorem 3.1).
//
// # Online checking
//
// Attach a detector to a running concurrent program through the Runtime,
// which mirrors the RoadRunner execution model (§7): every instrumented
// operation invokes the analysis inline in the acting goroutine.
//
//	d, _ := verifiedft.New(verifiedft.V2)
//	rt := verifiedft.NewRuntime(d)
//	main := rt.Main()
//	x := rt.NewVar()
//	child := main.Go(func(w *verifiedft.Thread) { x.Store(w, 1) })
//	x.Store(main, 2) // races with the child's store
//	main.Join(child)
//	races := rt.Reports()
//
// Seven detector variants share the Detector interface: the three
// VerifiedFT stages the paper evaluates (V1, V15, V2), the two prior
// FastTrack implementations it compares against (FTMutex, FTCAS), and two
// classical baselines (DJIT, Eraser). V2 is the paper's contribution and
// the right default.
package verifiedft

import (
	"io"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/hb"
	"repro/internal/parcheck"
	"repro/internal/rtsim"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Detector variant names accepted by New.
const (
	// V1 is VerifiedFT-v1: every handler fully lock-protected (Fig. 3).
	V1 = "vft-v1"
	// V15 is VerifiedFT-v1.5: lock-free same-epoch cases only.
	V15 = "vft-v1.5"
	// V2 is VerifiedFT-v2, the paper's algorithm (Fig. 4): lock-free
	// [Read Same Epoch], [Write Same Epoch] and [Read Shared Same Epoch].
	V2 = "vft-v2"
	// FTMutex is the prior write-protected/optimistic-retry FastTrack.
	FTMutex = "ft-mutex"
	// FTCAS is the prior CAS-packed FastTrack.
	FTCAS = "ft-cas"
	// DJIT is a pure vector-clock detector (no epochs).
	DJIT = "djit"
	// Eraser is the classical lockset detector (imprecise).
	Eraser = "eraser"
)

// Detector is the six-handler event interface of the idealized
// implementations; see the core package for the handler contracts.
type Detector = core.Detector

// Report describes one detected race.
type Report = core.Report

// Config sizes a detector's shadow tables (hints; tables grow on demand).
type Config = core.Config

// Rule identifies a Fig. 2 analysis rule.
type Rule = spec.Rule

// Tid, Var and Lock are the identity types of the trace language.
type (
	// Tid is a thread identifier.
	Tid = epoch.Tid
	// VarID is a variable identifier.
	VarID = trace.Var
	// LockID is a lock identifier.
	LockID = trace.Lock
)

// Op is one operation of the trace language; Trace is a sequence of them.
type (
	// Op is a single trace operation.
	Op = trace.Op
	// Trace is an execution trace.
	Trace = trace.Trace
	// Source is a pull iterator over trace operations (Next returns
	// io.EOF at end of stream) — the streaming counterpart of Trace.
	Source = trace.Source
)

// NewSliceSource adapts a materialized Trace to the Source interface.
var NewSliceSource = trace.NewSliceSource

// NewTraceDecoder returns a Source decoding r incrementally, sniffing the
// encoding: gzip is transparently decompressed, then the binary format is
// recognized by its magic, and anything else reads as the text format. A
// binary stream from a newer writer fails with a typed
// *UnsupportedVersionError rather than a corruption error.
func NewTraceDecoder(r io.Reader) (Source, error) { return trace.NewDecoder(r) }

// EncodeText writes tr in the line-oriented text trace format.
func EncodeText(w io.Writer, tr Trace) error { return trace.Encode(w, tr) }

// EncodeBinary writes tr in the binary trace format, by default at the
// newest version (BinaryFormatVersion):
//
//	err := verifiedft.EncodeBinary(f, tr)
//	err := verifiedft.EncodeBinary(f, tr, verifiedft.WithFormatVersion(1))
//
// WithFormatVersion pins an older version for consumers that predate it;
// encoding an operation kind the pinned version cannot carry fails.
func EncodeBinary(w io.Writer, tr Trace, opts ...EncodeOption) error {
	s := encodeSettings{version: trace.MaxBinaryVersion}
	for _, o := range opts {
		o.applyEncode(&s)
	}
	return trace.EncodeBinaryVersion(w, tr, s.version)
}

// Trace-operation constructors (§2 syntax, plus the Go-synchronization
// kinds of trace format v2).
var (
	// Read builds rd(t,x).
	Read = trace.Rd
	// Write builds wr(t,x).
	Write = trace.Wr
	// Acquire builds acq(t,m).
	Acquire = trace.Acq
	// Release builds rel(t,m).
	Release = trace.Rel
	// Fork builds fork(t,u).
	Fork = trace.ForkOp
	// Join builds join(t,u).
	Join = trace.JoinOp
	// VolatileRead builds vrd(t,x).
	VolatileRead = trace.VRd
	// VolatileWrite builds vwr(t,x).
	VolatileWrite = trace.VWr
	// BarrierArrive builds barrier(t,b).
	BarrierArrive = trace.BarrierOp
	// ChanSend builds send(t,c), a channel send (see WithChanCapacities
	// for buffered channels; a send without buffer room blocks t until a
	// matching ChanRecv).
	ChanSend = trace.SendOp
	// ChanRecv builds recv(t,c), a channel receive.
	ChanRecv = trace.RecvOp
	// ChanClose builds close(t,c), a channel close.
	ChanClose = trace.CloseOp
	// AtomicLoad builds aload(t,a), a sync/atomic load.
	AtomicLoad = trace.ALoad
	// AtomicStore builds astore(t,a), a sync/atomic store.
	AtomicStore = trace.AStore
	// AtomicRMW builds armw(t,a), a sync/atomic read-modify-write.
	AtomicRMW = trace.ARMW
	// OnceDo builds once(t,o), a sync.Once.Do return.
	OnceDo = trace.OnceOp
)

// UnsupportedVersionError reports a binary trace written by a newer
// format version than this build reads; it is the "upgrade the reader"
// error, as opposed to a corruption error.
type UnsupportedVersionError = trace.UnsupportedVersionError

// BinaryFormatVersion is the newest binary wire-format version this build
// reads and writes (see EncodeBinary and WithFormatVersion).
const BinaryFormatVersion = trace.MaxBinaryVersion

// Runtime couples a concurrent Go program with a detector (the RoadRunner
// model, §7); Thread, Var, Array, Mutex, Volatile and Barrier are its
// instrumented primitives.
type (
	// Runtime is an instrumented execution environment.
	Runtime = rtsim.Runtime
	// Thread is an instrumented thread identity.
	Thread = rtsim.Thread
	// Var is an instrumented memory location.
	Var = rtsim.Var
	// Array is a block of instrumented memory locations.
	Array = rtsim.Array
	// Mutex is an instrumented lock.
	Mutex = rtsim.Mutex
	// Volatile is an instrumented volatile location.
	Volatile = rtsim.Volatile
	// Barrier is an instrumented cyclic barrier.
	Barrier = rtsim.Barrier
)

// metricsSampleInterval is the per-thread latency sampling stride used when
// a Metrics registry is attached: every 64th event a thread performs is
// timed into the latency.* histograms. Dense enough to fill histograms on
// realistic runs, sparse enough that the sampled run stays usable.
const metricsSampleInterval = 64

// New constructs a detector variant; see the variant constants. With no
// options the shadow tables get mid-sized hints (they grow on demand, so
// hints only matter for construction cost):
//
//	d, err := verifiedft.New(verifiedft.V2)
//	d, err := verifiedft.New(verifiedft.V2,
//		verifiedft.WithThreads(64),
//		verifiedft.WithMaxReportsPerVar(1),
//		verifiedft.WithMetrics(m))
func New(variant string, opts ...Option) (Detector, error) {
	s := settings{variant: variant, cfg: core.DefaultConfig()}
	for _, o := range opts {
		o.applyNew(&s)
	}
	if err := s.resolveSampling(); err != nil {
		return nil, err
	}
	d, err := newDetector(s)
	if err != nil {
		return nil, err
	}
	if s.metrics != nil {
		return core.InstrumentLatency(d, s.metrics, metricsSampleInterval), nil
	}
	return d, nil
}

// newDetector builds the resolved settings' detector: the precise variant,
// wrapped in the sampling tier when one is configured. The inner
// detector's variable table is pre-sized for the expected sampled
// population only — the full id space is covered by the wrapper's
// four-byte decision words, which is the tier's lazy-materialization rule.
func newDetector(s settings) (Detector, error) {
	if s.sampling == nil {
		return core.New(s.variant, s.cfg)
	}
	innerCfg := s.cfg
	innerCfg.Vars = samplingVarHint(s.sampling.Rate, s.cfg.Vars)
	inner, err := core.New(s.variant, innerCfg)
	if err != nil {
		return nil, err
	}
	return core.NewSampling(inner, *s.sampling, s.cfg.Vars), nil
}

// Variants lists all detector variant names.
func Variants() []string { return core.Variants() }

// NewRuntime returns an instrumented runtime delivering events to d; a nil
// detector gives an uninstrumented baseline runtime.
func NewRuntime(d Detector) *Runtime { return rtsim.New(d) }

// ValidateTrace checks the §2 feasibility constraints.
func ValidateTrace(tr Trace) error { return trace.Validate(tr) }

// CheckSource is the streaming form of CheckTrace: it pulls operations
// from src through a pipeline of composable stages — incremental §2
// feasibility validation (erroring at the offending op index), on-the-fly
// lowering of extended operations, and dispatch into a fresh detector
// (VerifiedFT-v2 unless WithVariant says otherwise) — and returns every
// detected race once the stream ends:
//
//	src, err := verifiedft.NewTraceDecoder(file) // text, binary or gzip
//	reports, err := verifiedft.CheckSource(src,
//		verifiedft.WithVariant(verifiedft.FTCAS),
//		verifiedft.WithMaxReportsPerVar(1))
//
// Every stage holds state proportional to the id spaces in use, never to
// the stream's length, so arbitrarily long traces check in bounded memory
// (pair with WithMaxReportsPerVar on racy streams so the report list stays
// bounded too). Shadow tables start from the defaults and grow on demand.
// On a validation or decode error the error is returned and any reports
// from the consumed prefix are discarded, matching CheckTrace's contract
// that an infeasible trace yields no reports. With WithMetrics, the run is
// latency-sampled and the detector's counters are frozen into the registry
// under the variant name when the stream ends.
func CheckSource(src Source, opts ...CheckOption) ([]Report, error) {
	s := settings{variant: V2, cfg: core.DefaultConfig(), parallel: 1}
	for _, o := range opts {
		o.applyCheck(&s)
	}
	if err := s.resolveSampling(); err != nil {
		return nil, err
	}
	if s.parallel != 1 {
		return checkParallel(src, s)
	}
	d, err := newDetector(s)
	if err != nil {
		return nil, err
	}
	var det Detector = d
	if s.metrics != nil {
		det = core.InstrumentLatency(d, s.metrics, metricsSampleInterval)
	}
	ext := s.extensions()
	pipe := trace.DesugarSource(trace.ValidateSource(src, ext), ext)
	for {
		op, err := pipe.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		core.Dispatch(det, op)
	}
	if s.metrics != nil {
		// The pipeline is sequential and has ended: the detector is
		// quiescent, so its per-thread counters are coherent and safe to
		// freeze.
		if ss, ok := d.(core.StatsSource); ok {
			s.metrics.RegisterSource(s.variant, ss.Stats().Source())
		}
	}
	return det.Reports(), nil
}

// checkParallel is CheckSource's WithParallelism arm: the same
// validation/lowering pipeline feeds the two-phase variable-sharded
// checker instead of a sequential detector. The report list is identical
// to the sequential replay's by construction (see internal/parcheck).
func checkParallel(src Source, s settings) ([]Report, error) {
	ext := s.extensions()
	pipe := trace.DesugarSource(trace.ValidateSource(src, ext), ext)
	return parcheck.Check(pipe, parcheckOptions(s))
}

// parcheckOptions maps resolved check settings onto the parallel
// checker's option set.
func parcheckOptions(s settings) parcheck.Options {
	return parcheck.Options{
		Variant:          s.variant,
		Workers:          s.parallel,
		MaxReportsPerVar: s.cfg.MaxReportsPerVar,
		Threads:          s.cfg.Threads,
		Vars:             s.cfg.Vars,
		Locks:            s.cfg.Locks,
		Metrics:          s.metrics,
		Sampling:         s.sampling,
	}
}

// CheckReader decodes a trace stream from r — sniffing gzip, the binary
// format and the text format, like the CLI tools — and checks it with
// CheckSource. The stream is never materialized.
func CheckReader(r io.Reader, opts ...CheckOption) ([]Report, error) {
	src, err := trace.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	return CheckSource(src, opts...)
}

// CheckTrace validates tr, lowers extended operations, and replays it
// through a fresh detector (VerifiedFT-v2 unless WithVariant says
// otherwise), returning every detected race:
//
//	reports, err := verifiedft.CheckTrace(tr)
//	reports, err := verifiedft.CheckTrace(tr,
//		verifiedft.WithVariant(verifiedft.FTCAS),
//		verifiedft.WithBarrierParties(map[verifiedft.LockID]int{0: 4}),
//		verifiedft.WithMetrics(m))
//
// Sequentially it is a thin wrapper over CheckSource on a slice-backed
// Source, so the materialized and streaming paths cannot drift: identical
// operation sequences produce identical reports whichever entry point
// sees them. Because the trace is materialized, CheckTrace first runs a
// cheap O(n) id-space prescan and pre-sizes the shadow tables so they
// never grow mid-run; explicit WithThreads/WithVars/WithLocks/WithConfig
// options override the prescan. With WithParallelism, the materialized
// form additionally lets the checker fuse validation and lowering into
// the parallel prepass (parcheck.CheckTrace) — same reports, same errors,
// without the streaming pipeline's per-op dispatch on the serial phase.
func CheckTrace(tr Trace, opts ...CheckOption) ([]Report, error) {
	sized := make([]CheckOption, 0, len(opts)+1)
	sized = append(sized, withIDSpace(trace.Scan(tr)))
	sized = append(sized, opts...)
	s := settings{variant: V2, cfg: core.DefaultConfig(), parallel: 1}
	for _, o := range sized {
		o.applyCheck(&s)
	}
	if s.parallel != 1 {
		if err := s.resolveSampling(); err != nil {
			return nil, err
		}
		return parcheck.CheckTrace(tr, s.extensions(), parcheckOptions(s))
	}
	return CheckSource(tr.Source(), sized...)
}

// Pre-sizing caps: a prescan hint eagerly allocates that many shadow
// entries, so hostile traces with huge sparse ids must not translate into
// huge tables. Beyond the cap, tables fall back to growing on demand.
const (
	maxThreadHint = 1 << 16 // the whole Tid space
	maxVarHint    = 1 << 20
	maxLockHint   = 1 << 20
)

// withIDSpace seeds the shadow-table hints from a trace prescan. It is
// prepended to the user's options so explicit sizing options win.
func withIDSpace(ids trace.IDSpace) CheckOption {
	return checkOption(func(s *settings) {
		s.cfg.Threads = clampHint(ids.Threads, maxThreadHint)
		s.cfg.Vars = clampHint(ids.Vars, maxVarHint)
		s.cfg.Locks = clampHint(ids.Locks, maxLockHint)
	})
}

func clampHint(n, max int) int {
	if n < 1 {
		return 1
	}
	if n > max {
		return max
	}
	return n
}

// HasRace is the oracle of §2: it decides, directly from the happens-before
// relation, whether the trace contains two concurrent conflicting accesses.
// It is independent of the detector implementation and exists for
// ground-truth comparison.
func HasRace(tr Trace) (bool, error) {
	if err := trace.Validate(tr); err != nil {
		return false, err
	}
	return hb.Analyze(tr.Desugar(nil)).HasRace(), nil
}

// Version identifies this implementation. 2.3.0 redesigns the trace
// language around the Go memory model: channel send/recv/close, atomic
// load/store/RMW and once-do are first-class operations (binary wire
// format v2, WithChanCapacities, EncodeBinary/WithFormatVersion), lowered
// onto pseudo-locks by the shared trace.Lowerer so every detector variant
// checks them unchanged. The deprecated NewWithConfig, DefaultConfig and
// CheckTraceWith wrappers from the 2.0 options migration are removed.
// 2.4.0 removes the clock-representation option: the dense
// grow-on-demand vector clock of Fig. 3 is the only representation.
const Version = "2.4.0"
