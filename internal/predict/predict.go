// Package predict implements sync-preserving predictive race detection:
// from one recorded execution it reports races that other correct
// reorderings of the same trace would exhibit, without paying explore's
// exponential schedule search.
//
// The pipeline has three stages:
//
//  1. Record — run the target once under the seeded scheduler with no
//     detector attached (an exception must not truncate the trace) and
//     capture every shared access and synchronization event, attributed
//     to logical threads by spawn sequence number (thread ids are
//     reused; sequence numbers are not).
//
//  2. Screen — a weak-vector-clock pass in the style of WCP
//     (Kini/Mathur/Viswanathan, "Dynamic Race Prediction in Linear
//     Time"): order events by program order, fork/join, the Go memory
//     model's channel edges and barrier episodes, but deliberately drop
//     lock release→acquire edges — a sync-preserving reordering may
//     omit an earlier critical section entirely, so lock edges observed
//     in the recording do not constrain the reorderings we search.
//     Conflicting cross-thread pairs left unordered that hold no common
//     lock are candidates; accesses are compared only when they share
//     an 8-byte word.
//
//  3. Reorder + certify — for each candidate, compute the
//     sync-preserving closure of the pair's program-order prefixes
//     (Mathur/Pavlogiannis/Viswanathan, "Optimal Prediction of
//     Synchronization-Preserving Races"): the least prefix set that
//     respects join/channel/lock-completion rules and includes barrier
//     episodes whole. If the closure fits under the pair (no required
//     event lies beyond either access) it linearizes into a witness
//     schedule ending with the two accesses back-to-back, write first.
//     The witness is then re-executed on a fresh machine with a real
//     detector attached; the prediction is reported only if the
//     detector raises the predicted exception, and only if a second
//     replay reproduces it byte-identically (race identity, final
//     deterministic counters, shared-region hash). Every reported race
//     is therefore self-certifying: it comes with a schedule the
//     machine actually executed into a detector hit.
//
// Certification uses the CLEAN core detector by default, so predictions
// inherit CLEAN's semantics: WAW and RAW only (the witness orders a
// mixed pair write-first, realizing it as RAW — WAR is deliberately
// undetected, §3.1 of the paper).
package predict

import (
	"repro/internal/machine"
)

// Kind enumerates recorded event kinds.
type Kind uint8

// Event kinds, in no particular order. KindBarrier is one arrival at a
// barrier; the arrivals at positions 0 through Cap-1 form an episode,
// which the analyses treat as one n-party synchronization. KindOther
// covers condition-variable and signal events, which the analyses treat
// conservatively as operations on a serializing object.
const (
	KindRead Kind = iota
	KindWrite
	KindAcquire
	KindRelease
	KindSend
	KindRecv
	KindFork
	KindJoin
	KindWork
	KindOther
	KindBarrier
)

var kindNames = [...]string{
	"read", "write", "acquire", "release", "send", "recv", "fork", "join", "work", "sync", "barrier",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "event"
}

// Event is one recorded operation of one logical thread.
type Event struct {
	Kind   Kind
	Thread int // spawn sequence number of the executing thread (0 = root)
	Index  int // position in the thread's program order
	G      int // position in the recorded global order

	Addr  uint64 // Read/Write: accessed address
	Size  int    // Read/Write: access width in bytes
	Obj   uint64 // machine object id (locks, channels, barriers, other sync)
	Child int    // Fork/Join: child thread's spawn sequence number
	Pos   int    // Send/Recv: channel queue position; Barrier: position in the episode
	Cap   int    // Send/Recv: channel capacity; Barrier: party size
	Work  int    // Work: units of private computation
}

// gref points into the recording's global order. A send appears twice:
// once at arrival (taking its queue position and publishing its message)
// and once at completion (joining the receive that freed its capacity
// slot); the completion reference carries done=true and shares the
// arrival's program-order event.
type gref struct {
	thread, index int
	done          bool
}

// Recording is one run's event stream grouped by logical thread.
type Recording struct {
	// Threads holds per-thread program orders indexed by spawn sequence
	// number; Threads[0] is the root.
	Threads [][]Event
	// Events counts recorded program-order events across all threads.
	Events int
	// Steps is the scheduler-step cost of the recording run.
	Steps uint64
	// Err is how the recording run ended (nil = clean exit). A deadlocked
	// or truncated run still yields a usable partial trace.
	Err error

	order []gref
}

// Recorder is a machine.Tracer that builds a Recording as the machine
// runs, attributing every event to its thread's spawn sequence number.
type Recorder struct {
	rec Recording
}

// NewRecorder returns a Recorder ready to be installed as a machine's
// Tracer.
func NewRecorder() *Recorder {
	r := &Recorder{}
	r.rec.Threads = [][]Event{nil}
	return r
}

// Recording returns the recording built so far.
func (r *Recorder) Recording() *Recording { return &r.rec }

func (r *Recorder) add(t *machine.Thread, e Event) {
	s := t.Seq
	e.Thread = s
	e.Index = len(r.rec.Threads[s])
	e.G = len(r.rec.order)
	r.rec.Threads[s] = append(r.rec.Threads[s], e)
	r.rec.order = append(r.rec.order, gref{thread: s, index: e.Index})
	r.rec.Events++
}

// Access records a shared access; private memory cannot race and is
// dropped.
func (r *Recorder) Access(t *machine.Thread, addr uint64, size int, write, shared bool) {
	if shared {
		r.add(t, Event{Kind: accessKind(write), Addr: addr, Size: size})
	}
}

// Sync records a synchronization event. A send's completion adds no
// program-order event, only a global-order marker for the capacity-slot
// join, pointing at the send's arrival event.
func (r *Recorder) Sync(t *machine.Thread, kind machine.SyncEvent, obj uint64, pos, capacity int) {
	e := Event{Kind: syncKind(kind), Obj: obj}
	switch kind {
	case machine.SyncSpawn:
		e.Obj, e.Child = 0, int(obj)
		for e.Child >= len(r.rec.Threads) {
			r.rec.Threads = append(r.rec.Threads, nil)
		}
	case machine.SyncJoin:
		e.Obj, e.Child = 0, int(obj)
	case machine.SyncChanSend, machine.SyncChanRecv, machine.SyncBarrier:
		e.Pos, e.Cap = pos, capacity
	case machine.SyncChanSendDone:
		th := r.rec.Threads[t.Seq]
		for i := len(th) - 1; i >= 0; i-- {
			if th[i].Kind == KindSend && th[i].Obj == obj && th[i].Pos == pos {
				r.rec.order = append(r.rec.order, gref{thread: t.Seq, index: i, done: true})
				break
			}
		}
		return
	}
	r.add(t, e)
}

// Work records private computation (kept so replay cursors can track it).
func (r *Recorder) Work(t *machine.Thread, n int) {
	r.add(t, Event{Kind: KindWork, Work: n})
}

var _ machine.Tracer = (*Recorder)(nil)

func accessKind(write bool) Kind {
	if write {
		return KindWrite
	}
	return KindRead
}

// syncKind maps a machine synchronization event to the kind it is
// recorded (and replayed) as; condition-variable and signal events are
// KindOther.
func syncKind(kind machine.SyncEvent) Kind {
	switch kind {
	case machine.SyncAcquire:
		return KindAcquire
	case machine.SyncRelease:
		return KindRelease
	case machine.SyncSpawn:
		return KindFork
	case machine.SyncJoin:
		return KindJoin
	case machine.SyncChanSend:
		return KindSend
	case machine.SyncChanRecv:
		return KindRecv
	case machine.SyncBarrier:
		return KindBarrier
	default:
		return KindOther
	}
}
