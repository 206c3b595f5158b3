package predict

// The screening pass: a single linear sweep over the recorded global
// order maintaining one vector clock per logical thread, with one
// component per thread and every event ticking its own component. Only
// edges that every sync-preserving reordering must respect are applied —
// program order, fork/join, and the Go memory model's channel edges
// (send k happens before receive k completes; receive k happens before
// send k+C completes). Lock release→acquire edges are deliberately
// dropped: a reordering may omit the earlier critical section, so an
// ordering observed through a lock is not a constraint on the search
// space. Barrier/condvar/signal events are chained per object in
// observed order, a conservative over-approximation.
//
// Two conflicting accesses left unordered by this weak relation may race
// in some reordering; pairs it orders cannot, so they are screened out
// before the quadratic-in-candidates closure work.

// uvc is the screen's vector clock: one uint32 per logical thread.
type uvc []uint32

func (v uvc) join(o uvc) {
	for i, c := range o {
		if c > v[i] {
			v[i] = c
		}
	}
}

func (v uvc) clone() uvc {
	c := make(uvc, len(v))
	copy(c, v)
	return c
}

// candidate is a conflicting cross-thread pair unordered under the weak
// screen, with a.G < b.G.
type candidate struct {
	a, b *Event
}

func overlaps(a, b *Event) bool {
	return a.Addr < b.Addr+uint64(b.Size) && b.Addr < a.Addr+uint64(a.Size)
}

// screen runs the weak-vector-clock pass and returns up to max unordered
// conflicting pairs in deterministic (trace) order; capped reports that
// it stopped at max, so more pairs may have gone unlisted.
func screen(rec *Recording, max int) (out []candidate, capped bool) {
	n := len(rec.Threads)
	if n < 2 {
		return nil, false
	}
	tvc := make([]uvc, n)
	for i := range tvc {
		tvc[i] = make(uvc, n)
	}
	sendVC := make(map[uint64][]uvc)
	recvVC := make(map[uint64][]uvc)
	otherVC := make(map[uint64]uvc)

	// accs collects shared accesses with the clock snapshot taken at
	// their execution point.
	type acc struct {
		e    *Event
		snap uvc
	}
	var accs []acc

	for _, g := range rec.order {
		e := &rec.Threads[g.thread][g.index]
		me := tvc[g.thread]
		if g.done {
			// Send completion: join the receive that freed its slot.
			if need := e.Pos - e.Cap; need >= 0 {
				if rv := recvVC[e.Obj]; need < len(rv) {
					me.join(rv[need])
				}
			}
			continue
		}
		me[g.thread]++
		switch e.Kind {
		case KindRead, KindWrite:
			accs = append(accs, acc{e: e, snap: me.clone()})
		case KindFork:
			if e.Child < n {
				tvc[e.Child].join(me)
			}
		case KindJoin:
			if e.Child < n {
				me.join(tvc[e.Child])
			}
		case KindSend:
			sv := sendVC[e.Obj]
			for len(sv) <= e.Pos {
				sv = append(sv, nil)
			}
			sv[e.Pos] = me.clone()
			sendVC[e.Obj] = sv
		case KindRecv:
			if sv := sendVC[e.Obj]; e.Pos < len(sv) && sv[e.Pos] != nil {
				me.join(sv[e.Pos])
			}
			rv := recvVC[e.Obj]
			for len(rv) <= e.Pos {
				rv = append(rv, nil)
			}
			rv[e.Pos] = me.clone()
			recvVC[e.Obj] = rv
		case KindOther:
			if o := otherVC[e.Obj]; o != nil {
				me.join(o)
			}
			otherVC[e.Obj] = me.clone()
		case KindAcquire, KindRelease, KindWork:
			// Program order only under the weak screen.
		}
	}

	for j := 1; j < len(accs); j++ {
		for i := 0; i < j; i++ {
			a, b := accs[i], accs[j]
			if a.e.Thread == b.e.Thread {
				continue
			}
			if a.e.Kind != KindWrite && b.e.Kind != KindWrite {
				continue
			}
			if !overlaps(a.e, b.e) {
				continue
			}
			// a precedes b in the trace, so only the forward ordering can
			// hold: a is before b iff b's snapshot covers a's own tick.
			if b.snap[a.e.Thread] >= a.snap[a.e.Thread] {
				continue
			}
			out = append(out, candidate{a: a.e, b: b.e})
			if len(out) >= max {
				return out, true
			}
		}
	}
	return out, false
}
