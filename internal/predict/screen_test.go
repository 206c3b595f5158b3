package predict

import (
	"fmt"
	"testing"

	"repro/internal/prog"
	"repro/internal/progen"
	"repro/internal/workloads"
)

// referencePairs is the screen's pair pass written as the all-pairs loop:
// every later access against every earlier one, with the weak-order and
// lockset filters inline, and no cap. The word-bucketed pass at cap L
// must return its first L pairs, capped iff there are at least L. The
// byte ranges and threads are copied out first, since the loop runs
// under the race detector in CI.
func referencePairs(accs []access) []candidate {
	lo, hi, th := make([]uint64, len(accs)), make([]uint64, len(accs)), make([]int, len(accs))
	for i, a := range accs {
		lo[i], hi[i], th[i] = a.e.Addr, a.e.Addr+uint64(a.e.Size), a.e.Thread
	}
	var out []candidate
	for j := 1; j < len(accs); j++ {
		b, bl, bh, bt := &accs[j], lo[j], hi[j], th[j]
		for i := 0; i < j; i++ {
			if lo[i] >= bh || bl >= hi[i] || th[i] == bt {
				continue
			}
			a := &accs[i]
			if a.e.Kind != KindWrite && b.e.Kind != KindWrite {
				continue
			}
			if b.snap[a.e.Thread] >= a.snap[a.e.Thread] {
				continue
			}
			shared := false
			for _, x := range a.locks {
				for _, y := range b.locks {
					shared = shared || x == y
				}
			}
			if !shared {
				out = append(out, candidate{a: a.e, b: b.e})
			}
		}
	}
	return out
}

// screenCase is one recording the equivalence test screens.
type screenCase struct {
	name string
	rec  *Recording
}

// straddleProgram's 4-byte accesses at offsets 6 and 10 straddle the
// 8-byte words of the region, so their pairs are found through two word
// runs; the accesses at 4, 8 and 0 share only one word with them, and the
// locked writes at 6 are screened out by their common lock.
func straddleProgram() *prog.Program {
	w := func(off uint64, size int) prog.Op { return prog.Op{Kind: prog.Write, Off: off, Size: size} }
	r := func(off uint64, size int) prog.Op { return prog.Op{Kind: prog.Read, Off: off, Size: size} }
	lock, unlock := prog.Op{Kind: prog.Lock, Lock: 0}, prog.Op{Kind: prog.Unlock, Lock: 0}
	return &prog.Program{Region: 16, Locks: 1, Threads: [][]prog.Op{
		{w(6, 4), r(4, 4), w(8, 4), w(10, 4), lock, w(6, 4), unlock, r(0, 1)},
		{w(6, 4), r(0, 1), r(10, 4), lock, w(6, 4), unlock, w(4, 4), r(8, 8)},
		{r(6, 4), w(12, 4), lock, w(6, 4), unlock, w(0, 8), w(10, 4)},
	}}
}

func screenCases(t *testing.T) []screenCase {
	var cs []screenCase
	add := func(name string, tg Target, seed int64) {
		rec := Record(tg, Options{Seed: seed})
		if rec.Err != nil {
			t.Fatalf("%s: recording failed: %v", name, rec.Err)
		}
		cs = append(cs, screenCase{name: name, rec: rec})
	}
	for seed := int64(0); seed < 3; seed++ {
		add(fmt.Sprintf("straddle/seed%d", seed), ProgramTarget(straddleProgram()), seed)
		for _, l := range prog.Litmuses() {
			add(fmt.Sprintf("litmus %s/seed%d", l.Name, seed), ProgramTarget(l.P), seed)
		}
		if !testing.Short() {
			for _, w := range workloads.All() {
				add(fmt.Sprintf("%s/seed%d", w.Name, seed), WorkloadTarget(w, workloads.ScaleTest, workloads.Unmodified), seed)
			}
		}
	}
	gens := []func(int64) progen.Config{progen.SmallConfig, progen.NestedConfig, progen.DefaultConfig}
	for seed := int64(0); seed < 200; seed++ {
		add(fmt.Sprintf("progen/%d", seed), ProgramTarget(progen.Generate(gens[seed%3](seed))), seed)
	}
	return cs
}

// TestScreenMatchesAllPairs: the word-bucketed screen returns the same
// candidate pairs, in the same order, with the same capped flag, as the
// all-pairs loop with the lockset filter — on the kernels, the litmuses,
// generated programs and a program whose accesses straddle words, at the
// default cap and at a cap of 7.
func TestScreenMatchesAllPairs(t *testing.T) {
	straddled, capped := 0, 0
	for _, c := range screenCases(t) {
		all := referencePairs(sweep(c.rec))
		for _, limit := range []int{DefaultMaxCandidates, 7} {
			got, gotCapped := screen(c.rec, limit)
			want, wantCapped := all, len(all) >= limit
			if wantCapped {
				want = all[:limit]
			}
			if gotCapped != wantCapped || len(got) != len(want) {
				t.Fatalf("%s, cap %d: %d candidates (capped %v), all-pairs %d (capped %v)",
					c.name, limit, len(got), gotCapped, len(want), wantCapped)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("%s, cap %d: candidate %d is (%d,%d)-(%d,%d), all-pairs (%d,%d)-(%d,%d)",
						c.name, limit, k, got[k].a.Thread, got[k].a.Index, got[k].b.Thread, got[k].b.Index,
						want[k].a.Thread, want[k].a.Index, want[k].b.Thread, want[k].b.Index)
				}
				if a, b := got[k].a, got[k].b; a.Addr>>3 != (a.Addr+uint64(a.Size)-1)>>3 || b.Addr>>3 != (b.Addr+uint64(b.Size)-1)>>3 {
					straddled++
				}
			}
			if gotCapped {
				capped++
			}
		}
	}
	if straddled == 0 {
		t.Error("no candidate involved a word-straddling access")
	}
	if capped == 0 {
		t.Error("no case reached the cap")
	}
}
