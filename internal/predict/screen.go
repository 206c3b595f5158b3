package predict

import (
	"cmp"
	"slices"
)

// The screening pass: a single linear sweep over the recorded global
// order maintaining one vector clock per logical thread, with one
// component per thread and every event ticking its own component. Only
// edges that every sync-preserving reordering must respect are applied —
// program order, fork/join, the Go memory model's channel edges (send k
// happens before receive k completes; receive k happens before send k+C
// completes) and barrier episodes (at an episode's last arrival, every
// participant joins the clocks of all its arrivals). Lock
// release→acquire edges are deliberately dropped: a reordering may omit
// the earlier critical section, so an ordering observed through a lock
// is not a constraint on the search space. Condvar/signal events are
// chained per object in observed order, a conservative
// over-approximation. The sweep also tracks the locks each thread
// holds, so every access carries its lockset.
//
// Two conflicting accesses left unordered by this weak relation that
// hold no common lock may race in some reordering. Pairs it orders
// cannot, and neither can pairs under a common lock: sync-preservation
// keeps the observed lock order, so the trace-earlier critical section
// must end — past its access — before the other begins, and the
// closure rejects every such pair. Both are screened out before the
// per-candidate closure work.
//
// The pair pass costs O(accesses × log accesses) plus one comparison
// per pair of accesses that share an 8-byte word: accesses are sorted
// by (word, trace position), so each access meets only the earlier
// accesses that touch one of its words.

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

// access is one shared access as the sweep saw it.
type access struct {
	e     *Event
	snap  uvc      // the thread's clock at the access
	locks []uint64 // the locks the thread held at the access
}

// commonLock reports whether two locksets share a lock.
func commonLock(a, b []uint64) bool {
	for _, x := range a {
		if slices.Contains(b, x) {
			return true
		}
	}
	return false
}

// conflict reports whether the trace-earlier access a and the later
// access b are a candidate: different threads, at least one write,
// overlapping bytes, not ordered by the weak relation, and no common
// lock.
func conflict(a, b *access) bool {
	if a.e.Thread == b.e.Thread {
		return false
	}
	if a.e.Kind != KindWrite && b.e.Kind != KindWrite {
		return false
	}
	if !overlaps(a.e, b.e) {
		return false
	}
	// a precedes b in the trace, so only the forward ordering can hold:
	// a is before b iff b's snapshot covers a's own tick.
	if b.snap[a.e.Thread] >= a.snap[a.e.Thread] {
		return false
	}
	return !commonLock(a.locks, b.locks)
}

// screen runs the weak-vector-clock pass and returns up to limit
// candidate pairs in deterministic (trace) order — by the later access,
// then by the earlier one; capped reports that it stopped at limit, so
// more pairs may have gone unlisted.
func screen(rec *Recording, limit int) (out []candidate, capped bool) {
	if len(rec.Threads) < 2 {
		return nil, false
	}
	return pairs(sweep(rec), limit)
}

// sweep runs the weak-vector-clock pass over the recorded global order
// and returns every shared access in trace order, with its clock and its
// lockset.
func sweep(rec *Recording) []access {
	n := len(rec.Threads)
	tvc := make([]uvc, n)
	for i := range tvc {
		tvc[i] = make(uvc, n)
	}
	sendVC := make(map[uint64][]uvc)
	recvVC := make(map[uint64][]uvc)
	otherVC := make(map[uint64]uvc)
	type episode struct {
		joint uvc   // join of the arrivals' clocks so far
		parts []int // the arrivals' threads
	}
	episodes := make(map[uint64]*episode)

	// held[t] lists the locks thread t holds; heldSnap[t] is a copy
	// shared by t's accesses until its next acquire or release.
	held := make([][]uint64, n)
	heldSnap := make([][]uint64, n)

	nacc := 0
	for _, th := range rec.Threads {
		for i := range th {
			if k := th[i].Kind; k == KindRead || k == KindWrite {
				nacc++
			}
		}
	}
	accs := make([]access, 0, nacc)
	snaps := make([]uint32, 0, nacc*n)

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
			if len(held[g.thread]) > 0 && heldSnap[g.thread] == nil {
				heldSnap[g.thread] = slices.Clone(held[g.thread])
			}
			k := len(snaps)
			snaps = append(snaps, me...)
			accs = append(accs, access{e: e, snap: snaps[k:len(snaps):len(snaps)], locks: heldSnap[g.thread]})
		case KindAcquire:
			held[g.thread] = append(held[g.thread], e.Obj)
			heldSnap[g.thread] = nil
		case KindRelease:
			if i := slices.Index(held[g.thread], e.Obj); i >= 0 {
				held[g.thread] = slices.Delete(held[g.thread], i, i+1)
				heldSnap[g.thread] = nil
			}
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
		case KindBarrier:
			ep := episodes[e.Obj]
			if ep == nil {
				ep = &episode{joint: make(uvc, n)}
				episodes[e.Obj] = ep
			}
			ep.joint.join(me)
			ep.parts = append(ep.parts, g.thread)
			if e.Pos == e.Cap-1 {
				for _, t := range ep.parts {
					tvc[t].join(ep.joint)
				}
				clear(ep.joint)
				ep.parts = ep.parts[:0]
			}
		case KindOther:
			if o := otherVC[e.Obj]; o != nil {
				me.join(o)
			}
			otherVC[e.Obj] = me.clone()
		case KindWork:
			// Program order only.
		}
	}
	return accs
}

// wordRef places one access in the 8-byte word it touches; an access
// that straddles a word boundary has one wordRef per word.
type wordRef struct {
	word  uint64
	acc   int32 // index into the accesses
	start int32 // first position of this word's run in the sorted refs
}

// pairs emits the candidate pairs among accs (in trace order) by the
// later access, then by the earlier one, up to limit. Sorting the accesses'
// words by (word, access) puts every access after the earlier accesses
// that share one of its words, so each access is compared only with
// those; a straddling access merges the runs of its two words.
func pairs(accs []access, limit int) (out []candidate, capped bool) {
	refs := make([]wordRef, 0, len(accs))
	for k := range accs {
		e := accs[k].e
		// A zero-width access still overlaps an access covering its
		// address, so it is placed in that address's word.
		last := e.Addr + uint64(max(e.Size, 1)) - 1
		for w := e.Addr >> 3; w <= last>>3; w++ {
			refs = append(refs, wordRef{word: w, acc: int32(k)})
		}
	}
	slices.SortFunc(refs, func(x, y wordRef) int {
		if c := cmp.Compare(x.word, y.word); c != 0 {
			return c
		}
		return cmp.Compare(x.acc, y.acc)
	})
	// at[k] holds the positions of access k's refs (the second is -1
	// for an access within one word).
	at := make([][2]int32, len(accs))
	for k := range at {
		at[k] = [2]int32{-1, -1}
	}
	for p := range refs {
		r := &refs[p]
		if p > 0 && refs[p-1].word == r.word {
			r.start = refs[p-1].start
		} else {
			r.start = int32(p)
		}
		if a := &at[r.acc]; a[0] < 0 {
			a[0] = int32(p)
		} else {
			a[1] = int32(p)
		}
	}

	for j := range accs {
		// Merge the earlier accesses of j's word runs, ascending and
		// without duplicates.
		x, xe := refs[at[j][0]].start, at[j][0]
		y, ye := int32(0), int32(0)
		if p := at[j][1]; p >= 0 {
			y, ye = refs[p].start, p
		}
		for x < xe || y < ye {
			var i int32
			switch {
			case y >= ye || (x < xe && refs[x].acc < refs[y].acc):
				i = refs[x].acc
				x++
			case x >= xe || refs[y].acc < refs[x].acc:
				i = refs[y].acc
				y++
			default:
				i = refs[x].acc
				x++
				y++
			}
			if conflict(&accs[i], &accs[j]) {
				out = append(out, candidate{a: accs[i].e, b: accs[j].e})
				if len(out) >= limit {
					return out, true
				}
			}
		}
	}
	return out, false
}
