package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/shadow"
)

// timedDetector forwards to a CLEAN detector and times every check. It
// changes nothing the machine sees: OnAccess returns the inner result,
// and Reset and ReleaseMetadata forward — the machine finds the latter
// by interface assertion, so dropping it would leak shadow pages.
type timedDetector struct {
	inner  *core.Detector
	checks uint64
	spent  time.Duration
}

var _ machine.Detector = (*timedDetector)(nil)

func (d *timedDetector) Name() string { return d.inner.Name() }

func (d *timedDetector) OnAccess(t *machine.Thread, addr uint64, size int, write bool) error {
	start := time.Now()
	err := d.inner.OnAccess(t, addr, size, write)
	d.spent += time.Since(start)
	d.checks++
	return err
}

func (d *timedDetector) Reset() { d.inner.Reset() }

func (d *timedDetector) ReleaseMetadata() { d.inner.ReleaseMetadata() }

// detectorTotals sums what the timed detectors of one operation saw.
type detectorTotals struct {
	checks     uint64
	spent      time.Duration
	epochLoads uint64
	byteChecks uint64
	// The shadow footprint, read before release.
	linesExpanded, mappedPages, metadataBytes int
}

// add folds in one detector; call it before the detector's shadow pages
// are released, or the footprint reads empty.
func (t *detectorTotals) add(d *timedDetector) {
	t.checks += d.checks
	t.spent += d.spent
	st := d.inner.Stats()
	t.epochLoads += st.EpochLoads
	t.byteChecks += st.ByteChecks
	fp := d.inner.Footprint()
	t.linesExpanded += fp.LinesExpanded
	t.mappedPages += fp.MappedPages
	t.metadataBytes += fp.MetadataBytes
}

// setDetectorMetrics sets the core.* and shadow.* metrics: per-pass
// medians of the detector totals, and the pool hit rate over the run.
func setDetectorMetrics(o *outcome, perPass []detectorTotals, hitRate float64) {
	pm := func(f func(t detectorTotals) float64) float64 { return passMedian(perPass, f) }
	o.set("core.checks", pm(func(t detectorTotals) float64 { return float64(t.checks) }))
	o.set("core.check_s", pm(func(t detectorTotals) float64 { return t.spent.Seconds() }))
	o.set("core.ns_per_check", pm(func(t detectorTotals) float64 { return ratio(float64(t.spent), float64(t.checks)) }))
	o.set("core.epoch_loads", pm(func(t detectorTotals) float64 { return float64(t.epochLoads) }))
	o.set("core.byte_checks", pm(func(t detectorTotals) float64 { return float64(t.byteChecks) }))
	o.set("shadow.lines_expanded", pm(func(t detectorTotals) float64 { return float64(t.linesExpanded) }))
	o.set("shadow.mapped_pages", pm(func(t detectorTotals) float64 { return float64(t.mappedPages) }))
	o.set("shadow.metadata_bytes", pm(func(t detectorTotals) float64 { return float64(t.metadataBytes) }))
	o.set("shadow.pool_hit_rate", hitRate)
}

// poolHitRate is the shadow page pool's hit rate between two global
// snapshots.
func poolHitRate(before, after shadow.GlobalStats) float64 {
	hits := after.PoolHits - before.PoolHits
	misses := after.PoolMisses - before.PoolMisses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// clockCost is the cost of the two clock reads the timed detector wraps
// around every check, so a reader can tell how much of core.check_s is
// the clock.
func clockCost() time.Duration {
	const n = 200_000
	var spent time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		spent += time.Since(t)
	}
	_ = spent
	return time.Since(start) / n
}

// printClockShare reports how much of the median pass's check time the
// clock reads around each check account for.
func printClockShare(o *outcome, perPass []detectorTotals) {
	c := clockCost()
	checks := passMedian(perPass, func(t detectorTotals) float64 { return float64(t.checks) })
	spent := passMedian(perPass, func(t detectorTotals) float64 { return t.spent.Seconds() })
	o.printf("timer: the two clock reads around a check cost %v; at %.0f checks a pass, at most %.3g s of core.check_s (%.3g s) is the clock",
		c, checks, checks*c.Seconds(), spent)
}
