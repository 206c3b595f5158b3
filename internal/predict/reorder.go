package predict

// The reordering stage: given a screened candidate pair, compute the
// sync-preserving closure of the two program-order prefixes — the least
// set of events that must execute before the pair can run back-to-back —
// and linearize it into a concrete witness schedule. The closure rules
// mirror the Mathur/Pavlogiannis/Viswanathan construction specialized to
// this machine's primitives:
//
//   - prefixes are program-order downward closed;
//   - a join requires the joined thread's entire trace;
//   - a receive requires its matching send's arrival; a send requires
//     the receive that frees its capacity slot (every included event
//     must be able to complete, not merely start);
//   - any event of a thread requires the fork that created it;
//   - of two included critical sections on one lock, the trace-earlier
//     acquire's release must be included (sync-preservation keeps the
//     observed lock order), which in particular rejects pairs that hold
//     a common lock — the earlier holder's release lies beyond its cut
//     (the screen already drops such pairs by lockset);
//   - a barrier arrival requires every arrival of its episode and of the
//     episodes before it on the same barrier: the n-party case of the
//     closure, since no participant leaves an episode until all have
//     arrived;
//   - condvar/signal events require their observed same-object
//     predecessor.
//
// If any rule demands an event at or beyond either racing access, the
// candidate has no sync-preserving witness and is dropped.

type loc struct{ t, j int }

// objLink ties a barrier, condvar or signal event to the other events
// on its object.
type objLink struct {
	prev loc // the same-object predecessor in the recorded order; t = -1 if none
	// Barrier arrivals only: last is the episode's last recorded arrival,
	// and full reports that every party arrived.
	last loc
	full bool
}

// index holds per-recording lookup tables the closure needs.
type index struct {
	send  map[uint64]map[int]loc // channel -> queue position -> send arrival
	recv  map[uint64]map[int]loc // channel -> queue position -> receive
	fork  []loc                  // thread seq -> its fork event; {-1,-1} for the root
	rel   [][]int                // rel[t][j] = matching release index for an acquire, -1 if never released
	link  [][]int                // link[t][j] = index into links for a barrier, condvar or signal event, else -1
	links []objLink
}

func buildIndex(rec *Recording) *index {
	idx := &index{
		send: make(map[uint64]map[int]loc),
		recv: make(map[uint64]map[int]loc),
		fork: make([]loc, len(rec.Threads)),
		rel:  make([][]int, len(rec.Threads)),
		link: make([][]int, len(rec.Threads)),
	}
	for t := range rec.Threads {
		idx.fork[t] = loc{-1, -1}
		idx.rel[t] = make([]int, len(rec.Threads[t]))
		idx.link[t] = make([]int, len(rec.Threads[t]))
		for j := range idx.rel[t] {
			idx.rel[t][j] = -1
			idx.link[t][j] = -1
		}
	}
	type tl struct {
		t    int
		lock uint64
	}
	openAcq := make(map[tl]int)
	lastOnObj := make(map[uint64]loc)
	episode := make(map[uint64][]int) // barrier -> links of its open episode
	for _, g := range rec.order {
		if g.done {
			continue
		}
		e := &rec.Threads[g.thread][g.index]
		here := loc{g.thread, g.index}
		switch e.Kind {
		case KindFork:
			if e.Child < len(idx.fork) {
				idx.fork[e.Child] = here
			}
		case KindAcquire:
			openAcq[tl{g.thread, e.Obj}] = g.index
		case KindRelease:
			if a, ok := openAcq[tl{g.thread, e.Obj}]; ok {
				idx.rel[g.thread][a] = g.index
				delete(openAcq, tl{g.thread, e.Obj})
			}
		case KindSend:
			m := idx.send[e.Obj]
			if m == nil {
				m = make(map[int]loc)
				idx.send[e.Obj] = m
			}
			m[e.Pos] = here
		case KindRecv:
			m := idx.recv[e.Obj]
			if m == nil {
				m = make(map[int]loc)
				idx.recv[e.Obj] = m
			}
			m[e.Pos] = here
		case KindOther, KindBarrier:
			prev, ok := lastOnObj[e.Obj]
			if !ok {
				prev = loc{-1, -1}
			}
			lastOnObj[e.Obj] = here
			idx.link[g.thread][g.index] = len(idx.links)
			idx.links = append(idx.links, objLink{prev: prev})
			if e.Kind != KindBarrier {
				break
			}
			ep := append(episode[e.Obj], len(idx.links)-1)
			full := e.Pos == e.Cap-1
			for _, k := range ep {
				idx.links[k].last, idx.links[k].full = here, full
			}
			if full {
				ep = ep[:0]
			}
			episode[e.Obj] = ep
		}
	}
	return idx
}

// objLinkOf returns the object link of a barrier, condvar or signal
// event.
func (idx *index) objLinkOf(t, j int) (objLink, bool) {
	if k := idx.link[t][j]; k >= 0 {
		return idx.links[k], true
	}
	return objLink{}, false
}

// closure computes required program-order prefix lengths per thread, or
// reports the candidate infeasible.
func closure(rec *Recording, idx *index, first, second *Event) ([]int, bool) {
	n := len(rec.Threads)
	req := make([]int, n)
	capv := make([]int, n)
	for t := range capv {
		capv[t] = len(rec.Threads[t])
	}
	capv[first.Thread] = first.Index
	capv[second.Thread] = second.Index

	ok := true
	var queue []loc
	include := func(t, count int) {
		if !ok {
			return
		}
		if count > capv[t] {
			ok = false
			return
		}
		for req[t] < count {
			queue = append(queue, loc{t, req[t]})
			req[t]++
		}
	}
	requireFork := func(t int) {
		if f := idx.fork[t]; f.t >= 0 {
			include(f.t, f.j+1)
		}
	}
	requireFork(first.Thread)
	requireFork(second.Thread)
	include(first.Thread, first.Index)
	include(second.Thread, second.Index)

	lockAcqs := make(map[uint64][]loc)
	for ok && len(queue) > 0 {
		l := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if l.j == 0 {
			requireFork(l.t)
		}
		e := &rec.Threads[l.t][l.j]
		switch e.Kind {
		case KindJoin:
			if e.Child < n {
				include(e.Child, len(rec.Threads[e.Child]))
			}
		case KindRecv:
			if s, found := idx.send[e.Obj][e.Pos]; found {
				include(s.t, s.j+1)
			} else {
				ok = false
			}
		case KindSend:
			if need := e.Pos - e.Cap; need >= 0 {
				if r, found := idx.recv[e.Obj][need]; found {
					include(r.t, r.j+1)
				} else {
					ok = false
				}
			}
		case KindAcquire:
			for _, a := range lockAcqs[e.Obj] {
				// The trace-earlier of the two acquires must release
				// inside the witness.
				earlier := a
				if rec.Threads[a.t][a.j].G > e.G {
					earlier = l
				}
				if r := idx.rel[earlier.t][earlier.j]; r >= 0 {
					include(earlier.t, r+1)
				} else {
					ok = false
				}
			}
			lockAcqs[e.Obj] = append(lockAcqs[e.Obj], l)
		case KindBarrier, KindOther:
			// Each requires its same-object predecessor. An arrival also
			// requires its episode's last arrival, which through the
			// chain pulls in the whole episode and every earlier one.
			k, found := idx.objLinkOf(l.t, l.j)
			if !found {
				break
			}
			if k.prev.t >= 0 {
				include(k.prev.t, k.prev.j+1)
			}
			if e.Kind == KindBarrier {
				include(k.last.t, k.last.j+1)
			}
		}
	}
	if !ok {
		return nil, false
	}
	return req, true
}

// reorder computes the closure and linearizes it into a witness: the
// closure's events in an executable order, then the racing pair, first
// before second. Linearization is greedy by observed trace position
// among enabled events, tracking lock and channel state so the schedule
// is executable on a real machine.
func reorder(rec *Recording, idx *index, first, second *Event) ([]*Event, bool) {
	if first.Thread == second.Thread {
		return nil, false
	}
	req, ok := closure(rec, idx, first, second)
	if !ok {
		return nil, false
	}

	n := len(rec.Threads)
	done := make([]int, n)
	total := 0
	for _, c := range req {
		total += c
	}
	lockHeld := make(map[uint64]bool)
	sendsDone := make(map[uint64]int)
	recvsDone := make(map[uint64]int)

	completed := func(t, j int) bool {
		if done[t] <= j {
			return false
		}
		e := &rec.Threads[t][j]
		switch e.Kind {
		case KindSend:
			if need := e.Pos - e.Cap; need >= 0 {
				return recvsDone[e.Obj] > need
			}
		case KindBarrier:
			// An arrival completes once its whole episode has arrived.
			if k, found := idx.objLinkOf(t, j); found {
				return k.full && done[k.last.t] > k.last.j
			}
		}
		return true
	}
	ready := func(t, j int) bool {
		if j > 0 && !completed(t, j-1) {
			return false
		}
		if j == 0 {
			if f := idx.fork[t]; f.t >= 0 && !completed(f.t, f.j) {
				return false
			}
		}
		return true
	}
	enabled := func(t int) bool {
		j := done[t]
		if j >= req[t] || !ready(t, j) {
			return false
		}
		e := &rec.Threads[t][j]
		switch e.Kind {
		case KindAcquire:
			return !lockHeld[e.Obj]
		case KindSend:
			return sendsDone[e.Obj] == e.Pos
		case KindRecv:
			return recvsDone[e.Obj] == e.Pos && sendsDone[e.Obj] > e.Pos
		case KindJoin:
			c := e.Child
			if c >= n || done[c] < req[c] {
				return false
			}
			return req[c] == 0 || completed(c, req[c]-1)
		case KindBarrier:
			// Arrivals on one barrier keep their recorded order, so each
			// episode forms exactly as recorded.
			if k, found := idx.objLinkOf(t, j); found && k.prev.t >= 0 {
				return done[k.prev.t] > k.prev.j
			}
		case KindOther:
			if k, found := idx.objLinkOf(t, j); found && k.prev.t >= 0 {
				return completed(k.prev.t, k.prev.j)
			}
		}
		return true
	}

	wit := make([]*Event, 0, total+2)
	for len(wit) < total {
		best, bestG := -1, int(^uint(0)>>1)
		for t := 0; t < n; t++ {
			if enabled(t) {
				if g := rec.Threads[t][done[t]].G; g < bestG {
					best, bestG = t, g
				}
			}
		}
		if best < 0 {
			// Wedged: a closure edge this linearizer cannot realize,
			// such as a join of a thread blocked in an episode the
			// recording never completed.
			return nil, false
		}
		e := &rec.Threads[best][done[best]]
		done[best]++
		switch e.Kind {
		case KindAcquire:
			lockHeld[e.Obj] = true
		case KindRelease:
			lockHeld[e.Obj] = false
		case KindSend:
			sendsDone[e.Obj]++
		case KindRecv:
			recvsDone[e.Obj]++
		}
		wit = append(wit, e)
	}
	if !ready(first.Thread, first.Index) || !ready(second.Thread, second.Index) {
		return nil, false
	}
	wit = append(wit, first, second)
	return wit, true
}
