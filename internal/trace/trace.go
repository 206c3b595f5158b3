// Package trace captures the dynamic event stream of a machine run —
// every memory access with the accessing thread's epoch, and every
// synchronization operation — for replay into the hardware simulator
// (§6.3), the way the paper feeds Pin-observed executions to its timing
// model.
package trace

import (
	"repro/internal/machine"
	"repro/internal/vclock"
)

// Kind distinguishes trace events.
type Kind uint8

// Event kinds.
const (
	Read Kind = iota
	Write
	Sync
	Work
)

// Event is one dynamic event. For Read/Write events Addr/Size/Shared
// describe the access and Clock is the thread's main vector-clock element
// at the time (so TID+Clock form the thread's current epoch). For Sync
// events SyncKind identifies the operation.
type Event struct {
	Kind     Kind
	TID      uint8
	Size     uint8
	Shared   bool
	SyncKind machine.SyncEvent
	Addr     uint64
	Clock    uint32
}

// Epoch returns the thread's epoch at an access event under layout l.
func (e Event) Epoch(l vclock.Layout) vclock.Epoch { return l.Pack(int(e.TID), e.Clock) }

// Trace is a recorded event sequence in global interleaving order.
type Trace struct {
	Events []Event
}

// Recorder implements machine.Tracer by appending to a Trace.
type Recorder struct {
	Trace Trace
}

var _ machine.Tracer = (*Recorder)(nil)

// Access implements machine.Tracer.
func (r *Recorder) Access(t *machine.Thread, addr uint64, size int, write, shared bool) {
	k := Read
	if write {
		k = Write
	}
	r.Trace.Events = append(r.Trace.Events, Event{
		Kind: k, TID: uint8(t.ID), Size: uint8(size),
		Shared: shared, Addr: addr, Clock: t.VC.Clock(t.ID),
	})
}

// Sync implements machine.Tracer. The hardware simulator charges a
// channel send as one synchronization operation, so the send is recorded
// at its arrival and its completion event is dropped.
func (r *Recorder) Sync(t *machine.Thread, kind machine.SyncEvent, obj uint64, pos, capacity int) {
	if kind == machine.SyncChanSendDone {
		return
	}
	r.Trace.Events = append(r.Trace.Events, Event{
		Kind: Sync, TID: uint8(t.ID), SyncKind: kind, Addr: obj,
	})
}

// Work implements machine.Tracer. n units of computation are stored in
// Addr (they have no address of their own).
func (r *Recorder) Work(t *machine.Thread, n int) {
	r.Trace.Events = append(r.Trace.Events, Event{
		Kind: Work, TID: uint8(t.ID), Addr: uint64(n),
	})
}

// Counts summarizes a trace.
type Counts struct {
	Accesses  uint64
	Shared    uint64
	Writes    uint64
	Syncs     uint64
	WorkUnits uint64
}

// Count summarizes the trace.
func (t *Trace) Count() Counts {
	var c Counts
	for _, e := range t.Events {
		switch e.Kind {
		case Sync:
			c.Syncs++
		case Work:
			c.WorkUnits += e.Addr
		default:
			c.Accesses++
			if e.Shared {
				c.Shared++
			}
			if e.Kind == Write {
				c.Writes++
			}
		}
	}
	return c
}
