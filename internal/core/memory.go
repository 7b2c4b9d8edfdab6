package core

import (
	"unsafe"

	"repro/internal/vc"
)

// ShadowSized is implemented by detectors that can report the size of
// their shadow state. The number is a semantic footprint — bytes of
// epochs, vector-clock entries and per-entity fixed costs actually
// allocated — not a heap measurement, so it is deterministic and
// comparable across detectors. This quantifies the claim behind
// FastTrack's epochs (inherited by VerifiedFT): most variables need O(1)
// shadow space instead of a full O(threads) vector clock per variable.
type ShadowSized interface {
	// ShadowBytes returns the current shadow-state footprint. Call at
	// quiescence.
	ShadowBytes() uint64
}

const (
	epochBytes   = 8
	pointerBytes = 8
)

// vcBytes is the footprint of a vector clock: its entries plus the slice
// header.
func vcBytes(v *vc.VC) uint64 {
	return uint64(v.Size())*epochBytes + 3*pointerBytes
}

// ShadowBytes for the common thread/lock state of the vector-clock
// detectors.
func (b *syncBase) threadLockBytes() uint64 {
	var total uint64
	for _, st := range b.threads.Snapshot() {
		total += vcBytes(st.vc) + epochBytes // the cached epoch
	}
	for _, lk := range b.locks.Snapshot() {
		total += vcBytes(lk.vc)
	}
	return total
}

// ShadowBytes implements ShadowSized for VerifiedFT-v1.
func (d *V1) ShadowBytes() uint64 {
	total := d.threadLockBytes()
	for _, sx := range d.vars.Snapshot() {
		total += 2*epochBytes + vcBytes(sx.v)
	}
	return total
}

// atomicVarBytes is the footprint of the optimized VarState: two epochs,
// the vector pointer, and the vector if the Share transition allocated it.
func atomicVarBytes(sx *atomicVarState) uint64 {
	total := uint64(2*epochBytes + pointerBytes)
	if p := sx.v.Load(); p != nil {
		total += uint64(len(*p)) * epochBytes
	}
	return total
}

// ShadowBytes implements ShadowSized for VerifiedFT-v1.5.
func (d *V15) ShadowBytes() uint64 {
	total := d.threadLockBytes()
	for _, sx := range d.vars.Snapshot() {
		total += atomicVarBytes(sx)
	}
	return total
}

// ShadowBytes implements ShadowSized for VerifiedFT-v2.
func (d *V2) ShadowBytes() uint64 {
	total := d.threadLockBytes()
	for _, sx := range d.vars.Snapshot() {
		total += atomicVarBytes(sx)
	}
	return total
}

// ShadowBytes implements ShadowSized for FT-Mutex.
func (d *FTMutex) ShadowBytes() uint64 {
	total := d.threadLockBytes()
	for _, sx := range d.vars.Snapshot() {
		total += atomicVarBytes(sx)
	}
	return total
}

// ShadowBytes implements ShadowSized for FT-CAS: both epochs share one
// word; the vector is lock-protected and plain.
func (d *FTCAS) ShadowBytes() uint64 {
	total := d.threadLockBytes()
	for _, sx := range d.vars.Snapshot() {
		total += epochBytes // the packed (R,W) word
		total += uint64(len(sx.v.arr)) * epochBytes
	}
	return total
}

// ShadowBytes implements ShadowSized for DJIT: two full vector clocks per
// variable — the O(threads)-per-variable cost epochs exist to avoid.
func (d *DJIT) ShadowBytes() uint64 {
	total := d.threadLockBytes()
	for _, sx := range d.vars.Snapshot() {
		total += vcBytes(sx.rvc) + vcBytes(sx.wvc)
	}
	return total
}

// ShadowBytes implements ShadowSized for Eraser: a lockset per variable
// and a held-set per thread.
func (d *Eraser) ShadowBytes() uint64 {
	var total uint64
	for _, ts := range d.threads.Snapshot() {
		total += uint64(len(ts.held)) * uint64(unsafe.Sizeof(int32(0)))
	}
	for _, sx := range d.vars.Snapshot() {
		total += 2 // state byte + reported flag
		total += uint64(len(sx.lockset)) * uint64(unsafe.Sizeof(int32(0)))
	}
	return total
}

// Compile-time interface checks.
var (
	_ ShadowSized = (*V1)(nil)
	_ ShadowSized = (*V15)(nil)
	_ ShadowSized = (*V2)(nil)
	_ ShadowSized = (*FTMutex)(nil)
	_ ShadowSized = (*FTCAS)(nil)
	_ ShadowSized = (*DJIT)(nil)
	_ ShadowSized = (*Eraser)(nil)
)
