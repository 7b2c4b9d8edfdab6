// Package epoch implements the bit-packed epoch datatype of the VerifiedFT
// analysis (Wilcox, Flanagan, Freund — PPoPP 2018, §3).
//
// An epoch t@c pairs a thread identifier t with that thread's clock c. The
// VerifiedFT analysis state stores an epoch for the last write to each
// variable (and, while reads are totally ordered, for the last read), so the
// representation must be compact and cheap to compare. As in the paper's
// Java artifact, epochs are bit-packed into a single machine word: here 16
// bits of thread id and 48 bits of clock inside a uint64, which lets the
// concurrent detectors load and store epochs atomically on all platforms.
//
// A reserved value, Shared, marks a variable whose read history has become a
// full vector clock ([Read Share] in Fig. 2). Shared is not a valid epoch:
// Tid, Clock, Leq, Max and Inc must not be applied to it.
package epoch

import "fmt"

// Epoch is a bit-packed thread-id/clock pair, or the distinguished Shared
// marker. The zero value is 0@0, a minimal epoch for thread 0.
type Epoch uint64

const (
	// tidBits is the width of the thread-id field. 16 bits bounds the
	// number of distinct threads per execution at 65535 (tid MaxTid is
	// reserved for Shared), far beyond what the workloads create.
	tidBits = 16
	// clockBits is the width of the clock field.
	clockBits = 64 - tidBits

	// clockMask extracts the clock field.
	clockMask = (1 << clockBits) - 1

	// MaxTid is the largest representable thread identifier.
	MaxTid = 1<<tidBits - 2
	// MaxClock is the largest representable clock value.
	MaxClock = clockMask

	// Shared is the distinguished marker recording that a variable is
	// read-shared and its read history lives in a vector clock. It is
	// all-ones, which no Make call can produce (tid MaxTid+1 is reserved).
	Shared Epoch = 1<<64 - 1
)

// Make returns the epoch t@c.
//
// Make panics if t or c is out of range; both limits are far above anything
// the detectors or workloads produce, so a violation indicates a logic error
// (e.g. an unbounded clock increment loop) rather than a recoverable
// condition.
func Make(t Tid, c uint64) Epoch {
	if uint64(t) > MaxTid {
		panic(fmt.Sprintf("epoch: tid %d exceeds MaxTid %d", t, MaxTid))
	}
	if c > MaxClock {
		panic(fmt.Sprintf("epoch: clock %d exceeds MaxClock %d", c, uint64(MaxClock)))
	}
	return Epoch(uint64(t)<<clockBits | c)
}

// Tid is a thread identifier. The trace language of §2 ranges t over
// Tid = {A, B, ...}; here they are small dense integers so they can index
// vector clocks directly.
type Tid int32

// Tid returns the thread component of e. It must not be called on Shared.
func (e Epoch) Tid() Tid {
	return Tid(e >> clockBits)
}

// Clock returns the clock component of e. It must not be called on Shared.
func (e Epoch) Clock() uint64 {
	return uint64(e) & clockMask
}

// IsShared reports whether e is the Shared marker.
func (e Epoch) IsShared() bool {
	return e == Shared
}

// Leq reports t@c1 <= t@c2 for two epochs of the same thread. Comparing
// epochs of different threads is undefined in the analysis (§3); in this
// implementation it panics to surface detector bugs in tests.
func (e Epoch) Leq(other Epoch) bool {
	if e.Tid() != other.Tid() {
		panic(fmt.Sprintf("epoch: Leq across threads: %v vs %v", e, other))
	}
	return e <= other
}

// Max returns the larger of two same-thread epochs. Because the tid occupies
// the high bits, the raw integer comparison agrees with the clock comparison
// whenever the tids match.
func (e Epoch) Max(other Epoch) Epoch {
	if e.Tid() != other.Tid() {
		panic(fmt.Sprintf("epoch: Max across threads: %v vs %v", e, other))
	}
	if other > e {
		return other
	}
	return e
}

// Inc returns t@(c+1).
func (e Epoch) Inc() Epoch {
	if e.Clock() == MaxClock {
		panic("epoch: clock overflow")
	}
	return e + 1
}

// Min returns the minimal epoch t@0 for thread t. The analysis's ⊥e is any
// such minimal epoch (the paper notes the minimal element is not unique).
func Min(t Tid) Epoch {
	return Make(t, 0)
}

// FillMin overwrites v[from:] with minimal epochs, where v[i] belongs to
// thread base+i. It is the bulk form of the grow-on-demand minimal fill
// every vector-clock growth performs (Fig. 3's get view of entries
// beyond the representation): recycled backing arrays carry stale epochs,
// so growth paths must fill, not just extend.
func FillMin(v []Epoch, base Tid, from int) {
	for i := from; i < len(v); i++ {
		v[i] = Min(base + Tid(i))
	}
}

// String renders e as "t@c", or "SHARED" for the marker, matching the
// paper's notation.
func (e Epoch) String() string {
	if e.IsShared() {
		return "SHARED"
	}
	return fmt.Sprintf("%d@%d", e.Tid(), e.Clock())
}
