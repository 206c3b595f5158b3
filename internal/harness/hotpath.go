package harness

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/shadow"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// Hotpath measures the per-access cost of the detector fast path — the
// quantity every §6 slowdown figure ultimately rests on — as a set of
// steady-state micro-measurements: the shadow region's single-epoch and
// vectorized (§4.4) operations on their unsynchronized fast lane, the
// machine's full instrumented access with and without CLEAN attached, one
// scheduler step that hands the processor to another thread, and one
// contended Kendo lock/unlock pair.
//
// With Options.JSONDir set the results land in BENCH_hotpath.json as
// hotpath.<name>.ns_per_op / hotpath.<name>.allocs_per_op summary gauges,
// comparable across commits; testdata/bench-baseline/ holds the snapshot
// this PR measured, the floor future changes are diffed against. The
// measurements are inherently wall-clock, so this experiment ignores
// Options.Parallel and always runs sequentially on an idle pool.
func Hotpath(w io.Writer, o Options) error {
	bench := telemetry.NewBenchFile("hotpath")
	tb := stats.NewTable("path", "ns/op", "allocs/op")
	for _, mk := range hotpathMarks() {
		res := testing.Benchmark(mk.fn)
		ns := float64(res.T.Nanoseconds()) / float64(res.N)
		allocs := float64(res.AllocsPerOp())
		tb.AddRow(mk.name, ns, allocs)
		bench.AddSummary("hotpath."+mk.name+".ns_per_op", ns)
		bench.AddSummary("hotpath."+mk.name+".allocs_per_op", allocs)
	}

	if _, err := fmt.Fprint(w, tb.String()); err != nil {
		return err
	}
	if o.JSONDir != "" {
		path, err := bench.WriteFile(o.JSONDir)
		if err != nil {
			return fmt.Errorf("hotpath: writing bench file: %w", err)
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return reportGates(w, o, bench, hotpathBands(), nil)
}

// hotpathBands gates every mark against the baseline: allocs_per_op may
// not exceed it (which pins the hot paths at zero), and ns_per_op must
// stay within max(4× base, base + 50 ns). The ns band is generous —
// shared CI runners are an order of magnitude noisier than a quiet
// machine — so only step-function regressions (a lost fast path, a new
// allocation, an accidental O(n) scan) trip it.
func hotpathBands() (bands []telemetry.Band) {
	for _, mk := range hotpathMarks() {
		bands = append(bands, telemetry.Band{Key: "hotpath." + mk.name + ".ns_per_op", Factor: 4, Slack: 50},
			telemetry.Band{Key: "hotpath." + mk.name + ".allocs_per_op", Factor: 1})
	}
	return bands
}

// hotpathMark is one micro-measurement, named as in BENCH_hotpath.json.
type hotpathMark struct {
	name string
	fn   func(b *testing.B)
}

func hotpathMarks() []hotpathMark {
	epochA := vclock.DefaultLayout.Pack(1, 1)
	epochB := vclock.DefaultLayout.Pack(2, 1)
	return []hotpathMark{
		{"shadow.load", func(b *testing.B) {
			r := shadow.New()
			r.Store(64, epochA)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = r.Load(64)
			}
		}},
		{"shadow.load_all_equal8", func(b *testing.B) {
			r := shadow.New()
			r.StoreRange(64, 8, epochA)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, _ = r.LoadAllEqual(64, 8)
			}
		}},
		{"shadow.cas", func(b *testing.B) {
			r := shadow.New()
			r.Store(64, epochA)
			b.ReportAllocs()
			b.ResetTimer()
			old, new := epochA, epochB
			for i := 0; i < b.N; i++ {
				r.CompareAndSwap(64, old, new)
				old, new = new, old
			}
		}},
		{"shadow.cas_range8", func(b *testing.B) {
			r := shadow.New()
			r.StoreRange(64, 8, epochA)
			b.ReportAllocs()
			b.ResetTimer()
			old, new := epochA, epochB
			for i := 0; i < b.N; i++ {
				r.CompareAndSwapRange(64, 8, old, new)
				old, new = new, old
			}
		}},
		{"shadow.load_all_equal8_compact", func(b *testing.B) {
			// A full-line store leaves the line compact: the 8-byte check
			// is a single epoch compare (§4.4 at line granularity).
			r := shadow.New()
			r.StoreRange(64, shadow.LineBytes, epochA)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, _ = r.LoadAllEqual(64, 8)
			}
		}},
		{"shadow.load_all_equal64_line", func(b *testing.B) {
			// Whole-line check on a compact line: 64 bytes validated by
			// one comparison.
			r := shadow.New()
			r.StoreRange(64, shadow.LineBytes, epochA)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, _ = r.LoadAllEqual(64, shadow.LineBytes)
			}
		}},
		{"shadow.store_range64", func(b *testing.B) {
			// Full-line stores write one compact epoch instead of 64;
			// alternating epochs keeps the store from degenerating into a
			// same-value no-op.
			r := shadow.New()
			e := [2]vclock.Epoch{epochA, epochB}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.StoreRange(128, shadow.LineBytes, e[i&1])
			}
		}},
		{"shadow.reset_recycle", func(b *testing.B) {
			// Touch four pages, roll over, repeat: the steady state is
			// pure pool recycling — header scrubs, no allocation.
			r := shadow.New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.StoreRange(0, shadow.PageBytes*4, epochA)
				r.Reset()
			}
		}},
		{"machine.access", func(b *testing.B) {
			benchMachineAccess(b, nil)
		}},
		{"machine.access_clean", func(b *testing.B) {
			benchMachineAccess(b, core.New(core.Config{}))
		}},
		{"machine.step", benchMachineStep},
		{"machine.kendo_lock", benchKendoLock},
	}
}

// benchMachineAccess times the full instrumented 8-byte shared store —
// step accounting, branch-free classification, and (with det non-nil) the
// CLEAN check — amortizing machine construction over the b.N accesses.
func benchMachineAccess(b *testing.B, det machine.Detector) {
	m := machine.New(machine.Config{YieldEvery: 64, Detector: det})
	a := m.AllocShared(4096, 64)
	b.ReportAllocs()
	b.ResetTimer()
	err := m.Run(func(t *machine.Thread) {
		for i := 0; i < b.N; i++ {
			t.StoreU64(a+uint64(i%512)*8, uint64(i))
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// benchMachineStep times one scheduler step that switches goroutines: two
// threads run Work(1) under YieldEvery 1 and a Picker that alternates
// between them, so every operation is a scheduling decision that hands
// the processor to the other thread. Spawning and joining the second
// thread is amortized over the b.N steps.
func benchMachineStep(b *testing.B) {
	turn := 0
	m := machine.New(machine.Config{YieldEvery: 1, Picker: func(runnable []*machine.Thread) int {
		turn++
		return turn % len(runnable)
	}})
	work := func(t *machine.Thread, n int) {
		for i := 0; i < n; i++ {
			t.Work(1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	err := m.Run(func(t *machine.Thread) {
		half := b.N / 2
		kid := t.Spawn(func(c *machine.Thread) { work(c, b.N-half) })
		work(t, half)
		t.Join(kid)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// benchKendoLock times one Lock/Unlock pair on a mutex four threads
// contend for under Kendo deterministic synchronization (§3.3): the
// scheduler dispatch, the turn waits, the contended retries and the
// release's clock publication. Spawning the threads is amortized over
// the b.N pairs.
func benchKendoLock(b *testing.B) {
	const threads = 4
	m := machine.New(machine.Config{DetSync: true})
	l := m.NewMutex()
	b.ReportAllocs()
	b.ResetTimer()
	err := m.Run(func(t *machine.Thread) {
		pairs := func(th *machine.Thread, n int) {
			for i := 0; i < n; i++ {
				th.Lock(l)
				th.Unlock(l)
			}
		}
		share := func(i int) int { return b.N*(i+1)/threads - b.N*i/threads }
		kids := make([]*machine.Thread, 0, threads-1)
		for i := 1; i < threads; i++ {
			n := share(i)
			kids = append(kids, t.Spawn(func(c *machine.Thread) { pairs(c, n) }))
		}
		pairs(t, share(0))
		for _, k := range kids {
			t.Join(k)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
