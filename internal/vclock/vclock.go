// Package vclock implements the logical-time metadata CLEAN is built on:
// vector clocks for threads and locks, and fixed-width 32-bit epochs — a
// packed (thread id, scalar clock) pair — kept per shared memory byte.
//
// The bit layout follows §4.5 and §5.3 of the paper: the highest bit of an
// epoch is reserved for the hardware compact/expanded flag, the next bits
// hold a reusable thread id, and the low bits hold the scalar clock. The
// paper's default is 8 tid bits and 23 clock bits; both widths are
// configurable through Layout so the Table 1 experiment can widen the
// clock to 28 bits.
package vclock

import "fmt"

// Layout describes how a 32-bit epoch is divided between the expand flag,
// the thread id, and the scalar clock.
type Layout struct {
	TIDBits   uint // number of bits for the thread id
	ClockBits uint // number of bits for the scalar clock
}

// DefaultLayout is the paper's default configuration: 1 expand bit,
// 8 tid bits, 23 clock bits.
var DefaultLayout = Layout{TIDBits: 8, ClockBits: 23}

// WideClockLayout is the Table 1 alternative: 28 clock bits leave no room
// for the hardware expand bit, so it is only used by the software rollover
// experiment (4 tid bits cap the thread count at 16, enough for the paper's
// 8-thread runs).
var WideClockLayout = Layout{TIDBits: 4, ClockBits: 28}

// Validate reports whether the layout fits an epoch in 32 bits with at
// least one bit left for the expand flag, or — for the wide-clock software
// configuration — exactly 32 bits with no expand flag.
func (l Layout) Validate() error {
	total := l.TIDBits + l.ClockBits
	if l.TIDBits == 0 || l.ClockBits == 0 {
		return fmt.Errorf("vclock: layout %+v has a zero-width field", l)
	}
	if total > 32 {
		return fmt.Errorf("vclock: layout %+v needs %d bits, epoch has 32", l, total)
	}
	return nil
}

// MaxTID returns the largest representable thread id.
func (l Layout) MaxTID() int { return (1 << l.TIDBits) - 1 }

// MaxClock returns the largest representable scalar clock. Once a thread's
// clock would exceed this value a rollover reset is required (§4.5).
func (l Layout) MaxClock() uint32 { return (1 << l.ClockBits) - 1 }

// HasExpandBit reports whether the layout leaves the high bit free for the
// hardware compact/expanded flag of §5.3.
func (l Layout) HasExpandBit() bool { return l.TIDBits+l.ClockBits < 32 }

// Epoch is the packed (tid, clock) pair the paper stores per shared byte.
// The zero Epoch means "never written" and happens-before everything.
type Epoch uint32

// expandBit is the hardware compact/expanded flag position (§5.3). It is
// only meaningful for layouts where HasExpandBit is true.
const expandBit Epoch = 1 << 31

// Pack builds an epoch from a thread id and scalar clock.
func (l Layout) Pack(tid int, clock uint32) Epoch {
	return Epoch(uint32(tid)<<l.ClockBits | clock&l.MaxClock())
}

// TID extracts the thread-id component of e. The mask alone keeps the
// expand flag out: in a 32-bit layout such as WideClockLayout, bit 31 is
// the top bit of the thread id, not a flag.
func (l Layout) TID(e Epoch) int {
	return int(uint32(e) >> l.ClockBits & uint32(l.MaxTID()))
}

// Clock extracts the scalar-clock component of e.
func (l Layout) Clock(e Epoch) uint32 { return uint32(e) & l.MaxClock() }

// Expanded reports the hardware expand flag of e.
func (l Layout) Expanded(e Epoch) bool { return l.HasExpandBit() && e&expandBit != 0 }

// WithExpanded returns e with the expand flag set or cleared.
func (l Layout) WithExpanded(e Epoch, expanded bool) Epoch {
	if expanded {
		return e | expandBit
	}
	return e &^ expandBit
}

// String formats an epoch for diagnostics using the default layout.
func (e Epoch) String() string {
	l := DefaultLayout
	s := fmt.Sprintf("%d@%d", l.TID(e), l.Clock(e))
	if l.Expanded(e) {
		s += "+x"
	}
	return s
}

// VC is a vector clock: one scalar clock per thread. CLEAN maintains one VC
// per running thread and one per lock (§3.2); unlike FastTrack it never
// keeps VCs for memory locations.
//
// The zero value is a VC of length zero; use New or let Join grow it.
type VC struct {
	c []uint32
}

// New returns a vector clock with n elements, all zero.
func New(n int) VC { return VC{c: make([]uint32, n)} }

// Len returns the number of elements.
func (v VC) Len() int { return len(v.c) }

// Clock returns the element for thread tid (zero if beyond the length).
func (v VC) Clock(tid int) uint32 {
	if tid < len(v.c) {
		return v.c[tid]
	}
	return 0
}

// SetClock sets the element for thread tid, growing the vector as needed.
func (v *VC) SetClock(tid int, clock uint32) {
	v.grow(tid + 1)
	v.c[tid] = clock
}

// Tick increments the element for thread tid — the "main element" when tid
// is the owning thread — and returns the new value.
func (v *VC) Tick(tid int) uint32 {
	v.grow(tid + 1)
	v.c[tid]++
	return v.c[tid]
}

// Join makes v the element-wise maximum of v and o. This is the update
// performed on lock acquire, thread start, and join (§2.3).
func (v *VC) Join(o VC) {
	v.grow(len(o.c))
	for i, oc := range o.c {
		if oc > v.c[i] {
			v.c[i] = oc
		}
	}
}

// HappensBefore reports whether every element of v is ≤ its counterpart in
// o, i.e. all events recorded in v happen-before the point described by o.
func (v VC) HappensBefore(o VC) bool {
	for i, vc := range v.c {
		if vc > o.Clock(i) {
			return false
		}
	}
	return true
}

// Copy returns an independent copy of v.
func (v VC) Copy() VC {
	c := make([]uint32, len(v.c))
	copy(c, v.c)
	return VC{c: c}
}

// CopyInto makes dst an independent copy of v, reusing dst's storage when
// it is large enough, so a clock published on every release (a mutex's)
// is copied without allocating once its buffer has grown.
func (v VC) CopyInto(dst *VC) {
	if cap(dst.c) < len(v.c) {
		dst.c = make([]uint32, len(v.c))
	}
	dst.c = dst.c[:len(v.c)]
	copy(dst.c, v.c)
}

// Reset zeroes every element in place. Used by the deterministic rollover
// reset (§4.5).
func (v *VC) Reset() {
	for i := range v.c {
		v.c[i] = 0
	}
}

// Epoch returns the epoch naming thread tid's current main element under
// layout l.
func (v VC) Epoch(l Layout, tid int) Epoch { return l.Pack(tid, v.Clock(tid)) }

func (v *VC) grow(n int) {
	if n <= len(v.c) {
		return
	}
	c := make([]uint32, n)
	copy(c, v.c)
	v.c = c
}

// String formats the vector clock for diagnostics.
func (v VC) String() string { return fmt.Sprintf("%v", v.c) }
