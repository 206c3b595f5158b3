// Package core implements the paper's primary contribution: CLEAN's
// precise write-after-write (WAW) and read-after-write (RAW) data-race
// detection (§3.2, §4).
//
// The detector is a simplification of FastTrack: it keeps exactly one
// 32-bit epoch — the packed (tid, clock) of the last write — per shared
// memory byte, and one vector clock per thread and lock (maintained by the
// machine substrate). On every shared access it runs the check of Fig. 2:
//
//	if CLOCK(epoch) > t.vc[TID(epoch)] { raise race exception }
//	if write && epoch != EPOCH(t)      { epoch = EPOCH(t) }
//
// Reads never update metadata, writes never check for WAR races, and
// epochs never inflate to vector clocks — the three structural savings
// over a fully precise detector that §7 credits for CLEAN's cost.
//
// Atomicity follows §4.3: the epoch update is a compare-and-swap against
// the previously loaded value, and a failed swap is itself a WAW race.
// Multi-byte accesses use the vectorization of §4.4: if all epochs of the
// accessed bytes are equal (measured at >99.7% of accesses in the paper),
// one comparison validates the whole access and one wide CAS updates it.
package core

import (
	"repro/internal/machine"
	"repro/internal/shadow"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// Config configures a Detector.
type Config struct {
	// Layout is the epoch bit layout; the zero value means
	// vclock.DefaultLayout.
	Layout vclock.Layout
	// DisableMultibyte turns off the §4.4 vectorized multi-byte fast
	// path, forcing a separate check per byte. Used by the Fig. 8
	// experiment to measure the optimization's impact.
	DisableMultibyte bool
	// Monitor records races instead of raising exceptions, so one run
	// enumerates every WAW/RAW race it encounters. This is a debugging
	// aid (the §3.1 "systematically detect all races" follow-up): with
	// races allowed to proceed, the execution model's isolation,
	// atomicity and determinism guarantees no longer hold for the
	// remainder of the run.
	Monitor bool
}

// Stats counts the detector's work, reported by the Fig. 8 experiment.
type Stats struct {
	// Accesses is the number of checked shared accesses.
	Accesses uint64
	// ByteChecks is the number of per-byte epoch comparisons executed; with
	// vectorization it is close to Accesses, without it close to the total
	// accessed bytes.
	ByteChecks uint64
	// EpochLoads counts epoch words read from the shadow region.
	EpochLoads uint64
	// EpochUpdates counts epoch words written (CAS successes).
	EpochUpdates uint64
	// MultibyteAccesses counts checked accesses wider than one byte.
	MultibyteAccesses uint64
	// MultibyteSameEpoch counts multi-byte accesses whose bytes all had
	// equal epochs — the paper reports this above 99.7% everywhere.
	MultibyteSameEpoch uint64
	// SameEpochSkips counts writes that skipped the update because the
	// epoch was already current (line 5 of Fig. 2).
	SameEpochSkips uint64
	// MetadataRepairs counts epochs that failed the sanity check
	// (reserved bits set, unknown thread id, clock from the future —
	// e.g. an injected bit flip) and were degraded to the zero epoch, a
	// monitor-mode re-check, instead of producing a bogus race
	// exception or a crash.
	MetadataRepairs uint64
}

// PublishTo records the detector's work counters into reg under the core.*
// namespace, plus the §4.4 same-epoch rate the paper reports above 99.7%.
// The detector increments plain Stats fields on its hot path and publishes
// once per run, so the registry costs the check nothing. Nil reg is a no-op.
func (s Stats) PublishTo(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("core.accesses").Add(s.Accesses)
	reg.Counter("core.byte_checks").Add(s.ByteChecks)
	reg.Counter("core.epoch_loads").Add(s.EpochLoads)
	reg.Counter("core.epoch_updates").Add(s.EpochUpdates)
	reg.Counter("core.multibyte_accesses").Add(s.MultibyteAccesses)
	reg.Counter("core.multibyte_same_epoch").Add(s.MultibyteSameEpoch)
	reg.Counter("core.same_epoch_skips").Add(s.SameEpochSkips)
	reg.Counter("core.metadata_repairs").Add(s.MetadataRepairs)
	if s.MultibyteAccesses > 0 {
		reg.Gauge("core.multibyte_same_epoch_rate").
			Set(float64(s.MultibyteSameEpoch) / float64(s.MultibyteAccesses))
	}
}

// Detector is the CLEAN WAW/RAW race detector. It implements
// machine.Detector.
type Detector struct {
	layout    vclock.Layout
	epochs    *shadow.Region
	multibyte bool
	monitor   bool
	stats     Stats
	races     []machine.RaceError
	seen      map[raceKey]bool
}

// raceKey deduplicates monitor-mode reports by location and thread pair.
type raceKey struct {
	kind    machine.RaceKind
	addr    uint64
	tid     int
	prevTID int
}

var _ machine.Detector = (*Detector)(nil)

// New returns a CLEAN detector.
func New(cfg Config) *Detector {
	if cfg.Layout == (vclock.Layout{}) {
		cfg.Layout = vclock.DefaultLayout
	}
	return &Detector{
		layout:    cfg.Layout,
		epochs:    shadow.New(),
		multibyte: !cfg.DisableMultibyte,
		monitor:   cfg.Monitor,
		seen:      make(map[raceKey]bool),
	}
}

// Races returns the races recorded in monitor mode, deduplicated by
// (kind, address, thread pair), in first-occurrence order.
func (d *Detector) Races() []machine.RaceError {
	out := make([]machine.RaceError, len(d.races))
	copy(out, d.races)
	return out
}

// Name implements machine.Detector.
func (d *Detector) Name() string { return "clean" }

// Stats returns the detector's work counters.
func (d *Detector) Stats() Stats { return d.stats }

// Epochs exposes the shadow region (the hardware simulator and tests
// inspect it).
func (d *Detector) Epochs() *shadow.Region { return d.epochs }

// Reset discards all epochs; called by the machine at a deterministic
// rollover reset point (§4.5). The dropped shadow pages recycle through
// the package-wide pool, so the post-rollover era re-materializes its
// shadow allocation-free.
func (d *Detector) Reset() { d.epochs.Reset() }

// Footprint reports the shadow region's current adaptive footprint
// (mapped pages, compact vs expanded lines, logical metadata bytes).
// Capture it before ReleaseMetadata if the numbers are to be reported.
func (d *Detector) Footprint() shadow.Footprint { return d.epochs.Footprint() }

// ReleaseMetadata returns the detector's shadow pages to the process-wide
// free list. Call it exactly once, after the run has finished with the
// detector; the facade's run body does, which is what keeps steady-state
// serving at ~zero shadow page allocation.
func (d *Detector) ReleaseMetadata() { d.epochs.Release() }

// OnAccess implements the CLEAN race check for one shared access of size
// bytes at addr. It returns a *machine.RaceError exactly when the access
// completes a WAW (write) or RAW (read) race with the last write to any of
// the accessed bytes.
func (d *Detector) OnAccess(t *machine.Thread, addr uint64, size int, write bool) error {
	d.stats.Accesses++
	// EPOCH(t) comes from the machine's per-thread cache (one field load)
	// rather than re-packing the vector clock on every access.
	cur := t.Epoch()
	if d.multibyte && size > 1 {
		d.stats.MultibyteAccesses++
		e, allEqual, loads := d.epochs.LoadAllEqual(addr, size)
		d.stats.EpochLoads += uint64(loads)
		if allEqual {
			if e != 0 && !t.Machine().EpochSane(e) {
				// Corrupted metadata: degrade to a monitor-mode
				// re-check against the cleared (zero) epoch rather
				// than trusting a flipped bit into a bogus race
				// exception.
				d.stats.MetadataRepairs++
				d.epochs.StoreRange(addr, size, 0)
				e = 0
			}
			d.stats.MultibyteSameEpoch++
			d.stats.ByteChecks++
			// One comparison covers every byte: the race exists on
			// either all or none of them (§4.4).
			if err := d.raceCheck(t, addr, size, write, e); err != nil {
				return err
			}
			if !write {
				return nil
			}
			if e == cur {
				d.stats.SameEpochSkips++
				return nil
			}
			if !d.epochs.CompareAndSwapRange(addr, size, e, cur) {
				// A conflicting check updated an epoch between our
				// load and the swap: a WAW race (§4.3).
				return d.raceError(t, addr, size, machine.WAW, d.epochs.Load(addr))
			}
			d.stats.EpochUpdates += uint64(size)
			return nil
		}
		// Epochs differ across the access: validate each byte.
	}
	for i := 0; i < size; i++ {
		if err := d.checkByte(t, addr+uint64(i), addr, size, write, cur); err != nil {
			return err
		}
	}
	return nil
}

// checkByte runs Fig. 2 for a single byte.
func (d *Detector) checkByte(t *machine.Thread, byteAddr, accessAddr uint64, size int, write bool, cur vclock.Epoch) error {
	e := d.epochs.Load(byteAddr)
	d.stats.EpochLoads++
	d.stats.ByteChecks++
	if e != 0 && !t.Machine().EpochSane(e) {
		// Corrupted metadata (see the multi-byte path): clear and
		// re-check in monitor fashion instead of raising on garbage.
		d.stats.MetadataRepairs++
		d.epochs.Store(byteAddr, 0)
		e = 0
	}
	if err := d.raceCheck(t, accessAddr, size, write, e); err != nil {
		return err
	}
	if !write {
		return nil
	}
	if e == cur {
		d.stats.SameEpochSkips++
		return nil
	}
	if !d.epochs.CompareAndSwap(byteAddr, e, cur) {
		return d.raceError(t, accessAddr, size, machine.WAW, d.epochs.Load(byteAddr))
	}
	d.stats.EpochUpdates++
	return nil
}

// raceCheck is line 3 of Fig. 2: the access races with the last write
// recorded in e iff the writer's clock exceeds what the current thread has
// synchronized with.
func (d *Detector) raceCheck(t *machine.Thread, addr uint64, size int, write bool, e vclock.Epoch) error {
	if d.layout.Clock(e) <= t.VC.Clock(d.layout.TID(e)) {
		return nil
	}
	kind := machine.RAW
	if write {
		kind = machine.WAW
	}
	return d.raceError(t, addr, size, kind, e)
}

func (d *Detector) raceError(t *machine.Thread, addr uint64, size int, kind machine.RaceKind, e vclock.Epoch) error {
	re := machine.RaceError{
		Kind:      kind,
		Addr:      addr,
		Size:      size,
		TID:       t.ID,
		SFR:       t.SFRIndex,
		PrevTID:   d.layout.TID(e),
		PrevClock: d.layout.Clock(e),
		Detector:  "clean",
	}
	if d.monitor {
		k := raceKey{kind: kind, addr: addr, tid: t.ID, prevTID: re.PrevTID}
		if !d.seen[k] {
			d.seen[k] = true
			d.races = append(d.races, re)
		}
		return nil
	}
	return &re
}
