package predict

import (
	"errors"
	"hash/fnv"

	"repro/internal/machine"
)

// The certification stage: re-execute the witness schedule on a fresh
// machine with a real detector attached and accept the prediction only
// if the detector raises the predicted exception — and raises it again,
// byte-identically (race identity, final deterministic counters,
// shared-region hash), on a second replay. A prediction that survives is
// not a heuristic: the machine actually executed the schedule into a
// race exception.
//
// The replay driver steers the machine through the Picker hook: it
// dispatches the thread owning the next witness event until the tracer
// observes that event, then advances. Within a thread the witness is
// exactly a program-order prefix (the closure is PO-downward closed), so
// dispatching the target executes only expected events. When the target
// is not runnable — typically a parent blocked in Join waiting for a
// child that has executed its whole recorded trace but not yet exited —
// the driver dispatches any runnable thread whose recorded events are
// exhausted; such a thread can only run to completion. A step budget
// converts any residual wedge into an uncertified prediction rather
// than a hang.

type replay struct {
	rec    *Recording
	wit    []*Event
	cursor int
	counts []int // events observed per spawn sequence
}

func newReplay(rec *Recording, wit []*Event) *replay {
	return &replay{
		rec:    rec,
		wit:    wit,
		counts: make([]int, len(rec.Threads)),
	}
}

// observe advances the witness cursor when the expected event executes.
// Matching is positional: the i-th observed event of a thread must be
// that thread's i-th recorded event, so kind plus index identifies it.
// A thread the recording never spawned cannot match.
func (r *replay) observe(t *machine.Thread, kind Kind) {
	s := t.Seq
	if s >= len(r.counts) {
		return
	}
	j := r.counts[s]
	r.counts[s]++
	if r.cursor < len(r.wit) {
		w := r.wit[r.cursor]
		if w.Thread == s && w.Index == j && w.Kind == kind {
			r.cursor++
		}
	}
}

func (r *replay) Access(t *machine.Thread, addr uint64, size int, write, shared bool) {
	if shared {
		r.observe(t, accessKind(write))
	}
}

// Sync observes a synchronization event; a send's completion is not a
// program-order event of the recording.
func (r *replay) Sync(t *machine.Thread, kind machine.SyncEvent, obj uint64, pos, capacity int) {
	if kind != machine.SyncChanSendDone {
		r.observe(t, syncKind(kind))
	}
}

func (r *replay) Work(t *machine.Thread, n int) { r.observe(t, KindWork) }

var _ machine.Tracer = (*replay)(nil)

// pick steers the scheduler toward the next witness event's thread.
func (r *replay) pick(runnable []*machine.Thread) int {
	if r.cursor < len(r.wit) {
		want := r.wit[r.cursor].Thread
		for i, th := range runnable {
			if th.Seq == want {
				return i
			}
		}
		// The target is blocked. Drain threads that have executed their
		// whole recorded trace — they can only run to exit (unblocking
		// joins), never consume a witness event.
		for i, th := range runnable {
			if s := th.Seq; s < len(r.counts) && s < len(r.rec.Threads) && r.counts[s] >= len(r.rec.Threads[s]) {
				return i
			}
		}
	}
	return 0
}

// outcome captures everything two replays must agree on.
type outcome struct {
	race     *machine.RaceError
	hash     uint64
	steps    uint64
	finished bool // witness cursor reached the end
}

func runWitness(t Target, o Options, rec *Recording, wit []*Event) outcome {
	rp := newReplay(rec, wit)
	budget := 4*uint64(rec.Events) + 8*uint64(len(wit)) + 512
	m := machine.New(machine.Config{
		Detector:   o.detector(),
		Tracer:     rp,
		Picker:     rp.pick,
		YieldEvery: 1,
		MaxSteps:   budget,
	})
	root, hashAddr, hashLen := t.Build(m)
	err := m.Run(root)
	var out outcome
	out.steps = m.Stats().Steps
	out.finished = rp.cursor >= len(rp.wit)
	var race *machine.RaceError
	if errors.As(err, &race) {
		out.race = race
	}
	h := fnv.New64a()
	if out.race != nil {
		put := func(v uint64) {
			var b [8]byte
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
		put(uint64(out.race.Kind))
		put(out.race.Addr)
		put(uint64(out.race.Size))
		put(uint64(out.race.TID))
		put(out.race.SFR)
		put(uint64(out.race.PrevTID))
		put(uint64(out.race.PrevClock))
		for _, c := range m.FinalCounters() {
			put(c)
		}
		if hashLen > 0 {
			put(m.HashMem(hashAddr, hashLen))
		}
		out.hash = h.Sum64()
	}
	return out
}

// certify replays the witness twice and promotes the candidate to a
// certified prediction when both replays raise the predicted exception
// with identical digests. The returned steps charge both replays to the
// prediction budget whether or not certification succeeds.
func certify(t Target, o Options, rec *Recording, wit []*Event, first, second *Event) (Prediction, uint64, bool) {
	want := predictedKind([2]*Event{first, second})
	r1 := runWitness(t, o, rec, wit)
	steps := r1.steps
	if !matches(r1, want, second) {
		return Prediction{}, steps, false
	}
	r2 := runWitness(t, o, rec, wit)
	steps += r2.steps
	if !matches(r2, want, second) || r1.hash != r2.hash || *r1.race != *r2.race {
		return Prediction{}, steps, false
	}
	sched := make([]int, len(wit))
	for i, e := range wit {
		sched[i] = e.Thread
	}
	return Prediction{
		First:     accessOf(first),
		Second:    accessOf(second),
		Kind:      r1.race.Kind,
		Schedule:  sched,
		Certified: true,
		Race:      r1.race,
		Hash:      r1.hash,
	}, steps, true
}

// matches accepts a replay only when the detector fired at the witness's
// final access with the predicted kind — a different exception means the
// schedule realized some other race, which its own candidate pair will
// certify separately.
func matches(o outcome, want machine.RaceKind, second *Event) bool {
	return o.race != nil &&
		o.race.Kind == want &&
		o.race.Addr == second.Addr &&
		o.race.Size == second.Size
}
