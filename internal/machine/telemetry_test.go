package machine

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// telWorkload is a small two-thread program exercising every instrumented
// path: shared and private accesses, locks (with contention), spawn/join.
func telWorkload(m *Machine) func(*Thread) {
	a := m.AllocShared(8, 8)
	p := m.AllocPrivate(8, 8)
	l := m.NewMutex()
	return func(th *Thread) {
		child := th.Spawn(func(c *Thread) {
			for i := 0; i < 10; i++ {
				c.Lock(l)
				c.StoreU64(a, c.LoadU64(a)+1)
				c.Unlock(l)
				c.Work(3)
			}
		})
		for i := 0; i < 10; i++ {
			th.Lock(l)
			th.StoreU64(a, th.LoadU64(a)+1)
			th.Unlock(l)
			th.StoreU64(p, uint64(i))
		}
		th.Join(child)
	}
}

func TestTelemetryCountersMatchStats(t *testing.T) {
	for _, detSync := range []bool{false, true} {
		reg := telemetry.NewRegistry()
		m := New(Config{Seed: 7, DetSync: detSync, Metrics: reg})
		if err := m.Run(telWorkload(m)); err != nil {
			t.Fatalf("detsync=%v: %v", detSync, err)
		}
		s := m.Stats()
		for _, c := range []struct {
			name string
			want uint64
		}{
			{"machine.shared_reads", s.SharedReads},
			{"machine.shared_writes", s.SharedWrites},
			{"machine.private_accesses", s.PrivateAccesses},
			{"machine.sync_ops", s.SyncOps},
			{"machine.ops", s.Ops},
			{"machine.steps", s.Steps},
			{"machine.rollovers", s.Rollovers},
			{"machine.crashes", s.Crashes},
			{"machine.det_wait_yields", s.DetWaitYields},
			{"machine.race_exceptions", 0},
		} {
			if got := reg.Counter(c.name).Value(); got != c.want {
				t.Errorf("detsync=%v: %s = %d, want %d (stats)", detSync, c.name, got, c.want)
			}
		}
		snap := reg.Snapshot()
		if _, ok := snap.Counters["machine.race_exceptions"]; !ok {
			t.Errorf("detsync=%v: machine.race_exceptions not registered on a clean run", detSync)
		}
		perK := snap.Gauges["machine.shared_per_1k_ops"]
		want := float64(s.SharedAccesses()) / float64(s.Ops) * 1000
		if perK != want {
			t.Errorf("detsync=%v: shared_per_1k_ops = %v, want %v", detSync, perK, want)
		}
	}
}

// TestRaceExceptionCountedOnce checks that a run stopped by its detector
// publishes exactly one race exception, with the accesses up to and
// including the raising one.
func TestRaceExceptionCountedOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := New(Config{Seed: 4, Detector: &stopDetector{k: 10}, Metrics: reg})
	a := m.AllocShared(8, 8)
	err := m.Run(func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.StoreU64(a, uint64(i))
		}
	})
	if _, ok := err.(*RaceError); !ok {
		t.Fatalf("Run = %v, want a *RaceError", err)
	}
	if got := reg.Counter("machine.race_exceptions").Value(); got != 1 {
		t.Errorf("machine.race_exceptions = %d, want 1", got)
	}
	if got := reg.Counter("machine.shared_writes").Value(); got != 10 {
		t.Errorf("machine.shared_writes = %d, want 10", got)
	}
}

func TestTelemetryKendoWaitAttribution(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := New(Config{Seed: 11, DetSync: true, Metrics: reg})
	if err := m.Run(telWorkload(m)); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.DetWaitYields == 0 {
		t.Fatal("workload produced no deterministic waits; test is vacuous")
	}
	waits := reg.Counter("kendo.wait_ops").Value()
	if waits == 0 {
		t.Error("kendo.wait_ops = 0 despite DetWaitYields > 0")
	}
	// Observed waits attribute a subset of the scheduler's det-wait
	// yields (the lock-acquire retry yield is charged to the lock-contend
	// span instead); the attribution must be non-empty and bounded.
	var perThread uint64
	for _, name := range reg.CounterNames() {
		if strings.HasPrefix(name, "kendo.wait_yields.t") {
			perThread += reg.Counter(name).Value()
		}
	}
	if perThread == 0 || perThread > s.DetWaitYields {
		t.Errorf("sum of per-thread wait yields = %d, want in [1, %d]",
			perThread, s.DetWaitYields)
	}
	if got := reg.Histogram("kendo.wait_yields").Count(); got != waits {
		t.Errorf("wait_yields histogram count = %d, want %d", got, waits)
	}
	if reg.Histogram("kendo.queue_depth").Count() == 0 {
		t.Error("queue_depth histogram never sampled")
	}
}

// kendoWorkload is a four-worker program whose workers contend for one
// mutex and pass a token over an unbuffered channel, so their Kendo turn
// checks are often refused.
func kendoWorkload(m *Machine) func(*Thread) {
	a := m.AllocShared(8, 8)
	l := m.NewMutex()
	c := m.NewChan(0)
	return workers(4, func(w *Thread, i int) {
		for k := 0; k < 6; k++ {
			w.Lock(l)
			w.StoreU64(a, w.LoadU64(a)+1)
			w.Unlock(l)
			if i%2 == 0 {
				w.Send(c)
			} else {
				w.Recv(c)
			}
			w.Work(i + 1)
		}
	})
}

// spanCount returns the number of timeline spans named name.
func spanCount(t *testing.T, tl *telemetry.Timeline, name string) int {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return strings.Count(buf.String(), `"name":"`+name+`"`)
}

// TestKendoTurnGrantedAtOnceIsSilent: a lone thread holds the Kendo turn
// at every synchronization operation, so every turn check is granted at
// once and no wait is recorded: no wait yields, no kendo.wait_ops, no
// wait_yields observation and no kendo wait span.
func TestKendoTurnGrantedAtOnceIsSilent(t *testing.T) {
	reg, tl := telemetry.NewRegistry(), telemetry.NewTimeline()
	m := New(Config{DetSync: true, Metrics: reg, Timeline: tl})
	check := CheckStepHolder(m)
	l, c := m.NewMutex(), m.NewCond()
	if err := m.Run(func(th *Thread) {
		for i := 0; i < 5; i++ {
			th.Lock(l)
			th.Signal(c)
			th.Unlock(l)
		}
	}); err != nil {
		t.Fatal(err)
	}
	grants, refusals, mismatches := check()
	if grants != 15 || refusals != 0 || mismatches != 0 {
		t.Fatalf("%d grants, %d refusals, %d mismatches; want 15 grants only", grants, refusals, mismatches)
	}
	if s := m.Stats(); s.DetWaitYields != 0 {
		t.Errorf("DetWaitYields = %d, want 0", s.DetWaitYields)
	}
	if n := reg.Counter("kendo.wait_ops").Value(); n != 0 {
		t.Errorf("kendo.wait_ops = %d, want 0", n)
	}
	if n := reg.Histogram("kendo.wait_yields").Count(); n != 0 {
		t.Errorf("kendo.wait_yields observed %d waits, want 0", n)
	}
	if n := spanCount(t, tl, "kendo wait"); n != 0 {
		t.Errorf("timeline has %d kendo wait spans, want 0", n)
	}
}

// TestKendoRefusedWaitCountsYields: every refused turn check is one yield
// of the wait in flight, charged when the turn is finally granted: the
// per-thread wait yields and the wait_yields histogram both sum to the
// refusals, and each contended wait is one kendo.wait_ops count, one
// histogram observation and one timeline span.
func TestKendoRefusedWaitCountsYields(t *testing.T) {
	reg, tl := telemetry.NewRegistry(), telemetry.NewTimeline()
	m := New(Config{Seed: 4, DetSync: true, Metrics: reg, Timeline: tl})
	check := CheckStepHolder(m)
	if err := m.Run(kendoWorkload(m)); err != nil {
		t.Fatal(err)
	}
	grants, refusals, mismatches := check()
	if refusals == 0 || mismatches != 0 {
		t.Fatalf("%d grants, %d refusals, %d mismatches; want refusals and no mismatch", grants, refusals, mismatches)
	}
	if s := m.Stats(); s.DetWaitYields < refusals {
		t.Errorf("DetWaitYields = %d, below the %d refused checks", s.DetWaitYields, refusals)
	}
	var perThread uint64
	for _, name := range reg.CounterNames() {
		if strings.HasPrefix(name, "kendo.wait_yields.t") {
			perThread += reg.Counter(name).Value()
		}
	}
	h := reg.Histogram("kendo.wait_yields").Snapshot()
	if perThread != refusals || h.Sum != float64(refusals) {
		t.Errorf("per-thread wait yields %d, histogram sum %v; want both %d", perThread, h.Sum, refusals)
	}
	waits := reg.Counter("kendo.wait_ops").Value()
	if spans := spanCount(t, tl, "kendo wait"); waits == 0 || h.Count != waits || uint64(spans) != waits {
		t.Errorf("kendo.wait_ops %d, histogram count %d, %d spans; want equal and nonzero", waits, h.Count, spans)
	}
}

// TestQueueDepthIsParticipantsLessOne: every kendo.queue_depth sample is
// the number of threads competing for the Kendo turn, less the holder (0
// when none competes). The Picker runs right after each sample with the
// machine unchanged, so it recomputes the sample from the threads'
// states; the one step that reaches no Picker is the last, when every
// thread has finished and the sample is 0.
func TestQueueDepthIsParticipantsLessOne(t *testing.T) {
	reg := telemetry.NewRegistry()
	var m *Machine
	var samples uint64
	var sum, most float64
	rng := rand.New(rand.NewSource(3))
	m = New(Config{DetSync: true, Metrics: reg, Picker: func(runnable []*Thread) int {
		n := 0
		for tid := range m.threads {
			if (*kendoRT)(m).Participating(tid) {
				n++
			}
		}
		depth := float64(max(n-1, 0))
		samples, sum, most = samples+1, sum+depth, max(most, depth)
		return rng.Intn(len(runnable))
	}})
	if err := m.Run(kendoWorkload(m)); err != nil {
		t.Fatal(err)
	}
	samples++ // the last step's 0
	got := reg.Histogram("kendo.queue_depth").Snapshot()
	if got.Count != samples || got.Sum != sum || got.Max != most {
		t.Errorf("queue depth: %d samples, sum %v, max %v; want %d, %v, %v", got.Count, got.Sum, got.Max, samples, sum, most)
	}
	if most < 2 {
		t.Errorf("queue never deeper than %v; the test needs several waiters", most)
	}
}

// TestTelemetryDeterminismUnchanged checks that enabling telemetry does not
// perturb the execution: same final counters, same stats, same output.
func TestTelemetryDeterminismUnchanged(t *testing.T) {
	run := func(enable bool) (Stats, []uint64, uint64) {
		var cfg Config
		cfg.Seed = 5
		cfg.DetSync = true
		if enable {
			cfg.Metrics = telemetry.NewRegistry()
			cfg.Timeline = telemetry.NewTimeline()
		}
		m := New(cfg)
		root := telWorkload(m)
		if err := m.Run(root); err != nil {
			t.Fatal(err)
		}
		return m.Stats(), m.FinalCounters(), m.HashMem(0, 0)
	}
	sOff, cOff, _ := run(false)
	sOn, cOn, _ := run(true)
	if sOff != sOn {
		t.Errorf("stats differ with telemetry on:\noff %+v\non  %+v", sOff, sOn)
	}
	if len(cOff) != len(cOn) {
		t.Fatalf("final counter count differs: %d vs %d", len(cOff), len(cOn))
	}
	for i := range cOff {
		if cOff[i] != cOn[i] {
			t.Errorf("final counter %d differs: %d vs %d", i, cOff[i], cOn[i])
		}
	}
}

func TestTimelineSpansPresent(t *testing.T) {
	tl := telemetry.NewTimeline()
	m := New(Config{Seed: 7, DetSync: true, Timeline: tl})
	if err := m.Run(telWorkload(m)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"SFR"`, `"lock held"`, `"lock contend"`, `"kendo wait"`} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %s spans", want)
		}
	}
	// Two threads ran: both tracks must be named.
	for _, want := range []string{`"thread 0"`, `"thread 1"`} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing metadata for %s", want)
		}
	}
}

func TestTimelineByteStable(t *testing.T) {
	render := func() string {
		tl := telemetry.NewTimeline()
		m := New(Config{Seed: 9, DetSync: true, Timeline: tl})
		if err := m.Run(telWorkload(m)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tl.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Error("identical (seed, workload) runs rendered different timelines")
	}
}

// TestDisabledTelemetryAllocFree is the overhead guard for the disabled
// path: with no registry and no timeline configured, the shared-access hot
// path must not allocate. Measured inside the root function with a yield
// granularity larger than the loop so no scheduler handoff intervenes.
func TestDisabledTelemetryAllocFree(t *testing.T) {
	const iters = 2000
	m := New(Config{Seed: 1, YieldEvery: 1 << 30})
	a := m.AllocShared(8, 8)
	var delta uint64
	err := m.Run(func(th *Thread) {
		// Warm up: first accesses may fault in memory pages of the
		// simulated address space.
		for i := 0; i < 100; i++ {
			th.StoreU64(a, uint64(i))
			th.LoadU64(a)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			th.StoreU64(a, uint64(i))
			th.LoadU64(a)
		}
		runtime.ReadMemStats(&after)
		delta = after.Mallocs - before.Mallocs
	})
	if err != nil {
		t.Fatal(err)
	}
	// Allow a little background-runtime noise, but 2000 iterations must
	// not account for even a per-iteration allocation.
	if delta > 50 {
		t.Errorf("disabled-telemetry hot path allocated %d times over %d accesses", delta, iters)
	}
}

// TestEnabledMetricsAllocFree checks the metrics-on path: with a registry
// attached, steady-state shared accesses still must not allocate, and the
// counters published at run end carry them.
func TestEnabledMetricsAllocFree(t *testing.T) {
	const iters = 2000
	reg := telemetry.NewRegistry()
	m := New(Config{Seed: 1, YieldEvery: 1 << 30, Metrics: reg})
	a := m.AllocShared(8, 8)
	var delta uint64
	err := m.Run(func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.StoreU64(a, uint64(i))
			th.LoadU64(a)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			th.StoreU64(a, uint64(i))
			th.LoadU64(a)
		}
		runtime.ReadMemStats(&after)
		delta = after.Mallocs - before.Mallocs
	})
	if err != nil {
		t.Fatal(err)
	}
	if delta > 50 {
		t.Errorf("metrics hot path allocated %d times over %d accesses", delta, iters)
	}
	if got := reg.Counter("machine.shared_writes").Value(); got == 0 {
		t.Error("machine.shared_writes not published")
	}
}

// benchAccessLoop measures the shared-access hot path from inside the root
// function (timer control must happen on the benchmark goroutine, so the
// whole machine run is timed with a fixed op count per iteration).
func benchAccessLoop(b *testing.B, cfg Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := New(cfg)
		a := m.AllocShared(8, 8)
		if err := m.Run(func(th *Thread) {
			for j := 0; j < 1000; j++ {
				th.StoreU64(a, uint64(j))
				th.LoadU64(a)
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSharedAccessTelemetryOff(b *testing.B) {
	benchAccessLoop(b, Config{Seed: 1, YieldEvery: 1 << 30})
}

func BenchmarkSharedAccessTelemetryOn(b *testing.B) {
	benchAccessLoop(b, Config{Seed: 1, YieldEvery: 1 << 30, Metrics: telemetry.NewRegistry()})
}
