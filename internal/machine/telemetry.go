package machine

import (
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// machineTel bundles the machine's telemetry state: the Kendo handles
// pre-resolved at machine construction so a wait never does a name
// lookup, the timeline, and per-thread span bookkeeping. Every machine.*
// counter is published once from Stats when the run ends (see publish).
// A nil *machineTel is the disabled state — instrumented sites guard with
// one nil check and the whole layer costs nothing.
type machineTel struct {
	reg *telemetry.Registry
	tl  *telemetry.Timeline

	// Kendo wait attribution (§3.3 / §6.1): one wait_ops count and one
	// wait_yields observation per contended turn wait, queue depth sampled
	// at every scheduling decision.
	kendoWaits      *telemetry.Counter
	kendoWaitYields *telemetry.Histogram
	kendoQueueDepth *telemetry.Histogram

	// waitYieldsByTID holds per-thread yield counters (kendo.wait_yields.t<n>),
	// resolved lazily once per tid.
	waitYieldsByTID []*telemetry.Counter
}

// newMachineTel returns the telemetry state for cfg, or nil when both the
// registry and the timeline are disabled.
func newMachineTel(cfg Config) *machineTel {
	if cfg.Metrics == nil && cfg.Timeline == nil {
		return nil
	}
	reg := cfg.Metrics
	return &machineTel{
		reg:             reg,
		tl:              cfg.Timeline,
		kendoWaits:      reg.Counter("kendo.wait_ops"),
		kendoWaitYields: reg.Histogram("kendo.wait_yields", stats.ExpBuckets(1, 2, 12)...),
		kendoQueueDepth: reg.Histogram("kendo.queue_depth", stats.ExpBuckets(1, 2, 6)...),
	}
}

// now is the timeline clock: the machine's global deterministic event
// count, so traces are byte-identical for a fixed (seed, workload).
func (m *Machine) now() uint64 { return m.stats.Ops }

// publish copies the end-of-run machine counters from Stats into the
// registry: the machine counts every access, sync op and step in Stats
// alone, and per-event emission would buy nothing. A run raises at most
// one race exception, the *RaceError it stopped on.
func (m *Machine) publish() {
	tel := m.tel
	if tel == nil || tel.reg == nil {
		return
	}
	reg, s := tel.reg, m.stats
	reg.Counter("machine.shared_reads").Add(s.SharedReads)
	reg.Counter("machine.shared_writes").Add(s.SharedWrites)
	reg.Counter("machine.private_accesses").Add(s.PrivateAccesses)
	reg.Counter("machine.sync_ops").Add(s.SyncOps)
	_, raced := m.stopErr.(*RaceError)
	reg.Counter("machine.race_exceptions").Add(uint64(b2i(raced)))
	reg.Counter("machine.ops").Add(s.Ops)
	reg.Counter("machine.steps").Add(s.Steps)
	reg.Counter("machine.stalled_steps").Add(s.StalledSteps)
	reg.Counter("machine.rollovers").Add(s.Rollovers)
	reg.Counter("machine.crashes").Add(s.Crashes)
	reg.Counter("machine.spurious_wakes").Add(s.SpuriousWakes)
	reg.Counter("machine.det_wait_yields").Add(s.DetWaitYields)
	for size, n := range s.AccessBySize {
		if n > 0 {
			reg.Counter("machine.shared_by_size." + itoa(size)).Add(n)
		}
	}
	if s.Ops > 0 {
		reg.Gauge("machine.shared_per_1k_ops").
			Set(float64(s.SharedAccesses()) / float64(s.Ops) * 1000)
	}
}

// itoa covers the single-digit access sizes without pulling strconv into
// the signature of a hot-adjacent helper.
func itoa(n int) string {
	if n < 10 {
		return string([]byte{'0' + byte(n)})
	}
	return itoa(n/10) + itoa(n%10)
}

// endSFR closes the thread's open synchronization-free region on the
// timeline and opens the next one.
func (t *Thread) endSFR(name string) {
	tel := t.m.tel
	if tel == nil || tel.tl == nil {
		return
	}
	now := t.m.now()
	tel.tl.Span(t.ID, name, "sfr", t.sfrStart, now)
	t.sfrStart = now
}

// kendoWait attributes t's contended Kendo turn wait, granted at now
// after t.turnYields refusals: one kendo.wait_ops count, one wait_yields
// observation, a per-thread yield count, and a timeline span.
func (tel *machineTel) kendoWait(t *Thread, now uint64) {
	tel.kendoWaits.Inc()
	tel.kendoWaitYields.Observe(float64(t.turnYields))
	for len(tel.waitYieldsByTID) <= t.ID {
		tel.waitYieldsByTID = append(tel.waitYieldsByTID, nil)
	}
	if tel.waitYieldsByTID[t.ID] == nil && tel.reg != nil {
		tel.waitYieldsByTID[t.ID] = tel.reg.Counter("kendo.wait_yields.t" + itoa(t.ID))
	}
	tel.waitYieldsByTID[t.ID].Add(t.turnYields)
	tel.tl.Span(t.ID, "kendo wait", "kendo", t.waitStart, now)
}
