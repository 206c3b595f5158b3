// Package clean is a reproduction of "CLEAN: A Race Detector with Cleaner
// Semantics" (Segulja & Abdelrahman, ISCA 2015): a system that precisely
// detects write-after-write and read-after-write data races — raising a
// race exception that stops the execution — and orders synchronization
// deterministically (Kendo), which together guarantee that
// synchronization-free regions appear to execute in isolation, that their
// writes appear atomic, and that exception-free executions are
// deterministic.
//
// The package is a facade over the implementation in internal/…:
//
//   - a simulated multithreaded machine with a Pthread-like thread API and
//     a seeded scheduler (internal/machine, internal/memory),
//   - the CLEAN detector (internal/core) plus FastTrack and TSan-like
//     baselines (internal/fasttrack, internal/tsanlite),
//   - deterministic synchronization (internal/kendo),
//   - a trace-driven hardware timing simulator of §5's architecture
//     support (internal/hwsim, internal/trace),
//   - stand-ins for all 26 SPLASH-2/PARSEC benchmarks (internal/workloads)
//     and the per-figure experiment harness (internal/harness).
//
// Quick start: build a machine with the functional options, write threads
// against the Thread API, and run — a WAW or RAW race stops the execution
// with a *RaceError.
//
//	m, err := clean.New(clean.WithDetection(clean.DetectCLEAN), clean.WithSeed(0))
//	if err != nil { ... }
//	x := m.AllocShared(8, 8)
//	err = m.Run(func(t *clean.Thread) {
//		child := t.Spawn(func(c *clean.Thread) { c.StoreU64(x, 1) })
//		t.StoreU64(x, 2) // races with the child → WAW exception
//		t.Join(child)
//	})
//
// See examples/ for complete programs, cmd/cleanbench for the paper's
// evaluation, and cmd/cleand for serving detection over HTTP (the api/v1
// wire contract).
package clean

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/fasttrack"
	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/tsanlite"
	"repro/internal/vclock"
	"repro/internal/workloads"
)

// Re-exported machine types: the programming surface for user programs.
type (
	// Machine is a simulated shared-memory multiprocessor run.
	Machine = machine.Machine
	// Thread is a logical thread; workload code performs all memory and
	// synchronization operations through it.
	Thread = machine.Thread
	// Mutex, Cond and Barrier are the simulated Pthread primitives.
	Mutex   = machine.Mutex
	Cond    = machine.Cond
	Barrier = machine.Barrier
	// RaceError is the race exception of the CLEAN execution model.
	RaceError = machine.RaceError
	// DeadlockError reports that no thread could make progress.
	DeadlockError = machine.DeadlockError
	// LivelockError reports an exhausted MaxSteps budget, naming the
	// most-starved thread and its deterministic counter.
	LivelockError = machine.LivelockError
	// MachineError is a structured, contained failure: a workload panic,
	// an API misuse, an orphaned-lock acquisition or a configuration
	// error, with a diagnostic Dump attached.
	MachineError = machine.MachineError
	// MachineErrorKind classifies a MachineError.
	MachineErrorKind = machine.MachineErrorKind
	// Dump is the diagnostic state snapshot attached to contained
	// failures: per-thread state, held locks, Kendo counters and the last
	// scheduler decisions.
	Dump = machine.Dump
	// Injector is the fault-injection hook (see internal/faults).
	Injector = machine.Injector
	// Tracer receives the machine's dynamic event stream: every access,
	// unit of private work and synchronization operation, each with the
	// executing Thread, and each channel operation at its happens-before
	// point (see internal/trace for the recorder the hardware simulator
	// replays).
	Tracer = machine.Tracer
	// Stats aggregates a run's counters.
	Stats = machine.Stats
	// RaceKind classifies a race (WAW, RAW, WAR).
	RaceKind = machine.RaceKind
)

// Re-exported telemetry types: the observability surface.
type (
	// Metrics is a per-run metric registry (counters, gauges, bounded
	// histograms); attach one via Config.Metrics. Nil disables metrics.
	Metrics = telemetry.Registry
	// Timeline records a run as per-thread spans and renders Chrome
	// trace-event / Perfetto JSON; attach one via Config.Timeline.
	Timeline = telemetry.Timeline
	// MetricsSnapshot is the serialized state of a Metrics registry.
	MetricsSnapshot = telemetry.Snapshot
	// RunReport is the schema-versioned machine-readable record of one
	// run; RunWorkload fills Report.Telemetry with one when Config.Metrics
	// is set.
	RunReport = telemetry.RunReport
)

// NewMetrics returns an empty enabled metric registry.
func NewMetrics() *Metrics { return telemetry.NewRegistry() }

// NewTimeline returns an empty enabled timeline.
func NewTimeline() *Timeline { return telemetry.NewTimeline() }

// DecodeRunReport parses and validates an encoded RunReport; unknown
// fields or a schema-version mismatch are errors.
func DecodeRunReport(data []byte) (*RunReport, error) {
	return telemetry.DecodeRunReport(data)
}

// Race kinds.
const (
	WAW = machine.WAW
	RAW = machine.RAW
	WAR = machine.WAR
)

// MachineError kinds.
const (
	ErrPanic        = machine.ErrPanic
	ErrMisuse       = machine.ErrMisuse
	ErrOrphanedLock = machine.ErrOrphanedLock
	ErrConfig       = machine.ErrConfig
	ErrScheduler    = machine.ErrScheduler
)

// Detection selects the race detector attached to a machine.
type Detection int

// Detector choices.
const (
	// DetectNone runs without race detection (the baseline).
	DetectNone Detection = iota
	// DetectCLEAN is the paper's detector: precise WAW/RAW detection
	// with one epoch per shared byte (internal/core).
	DetectCLEAN
	// DetectFastTrack is the fully precise baseline, which additionally
	// detects WAR races at the cost of read vector clocks.
	DetectFastTrack
	// DetectTSanLite is the imprecise K-shadow-cell baseline; it can
	// miss races.
	DetectTSanLite
	// DetectPredict is the sync-preserving predictive mode
	// (internal/predict): record one trace, then report the races other
	// correct reorderings would exhibit, each certified by replaying its
	// witness schedule through the CLEAN detector. As a machine-attached
	// detector it behaves like DetectCLEAN (certification replays run
	// CLEAN); the prediction pipeline itself drives recording and replay
	// through the entry points that accept it (cleanvet -dynamic,
	// cleanrun -det predict, predict service jobs, internal/predict).
	DetectPredict

	// numDetections is the sentinel one past the last valid mode. Every
	// new Detection constant must be inserted before it; Validate,
	// ParseDetection and the ParseDetection error text all derive from
	// it, so the mode list and the error message cannot drift apart.
	numDetections
)

// Detections enumerates the valid detection modes in declaration order.
func Detections() []Detection {
	out := make([]Detection, 0, int(numDetections))
	for d := DetectNone; d < numDetections; d++ {
		out = append(out, d)
	}
	return out
}

// Config configures a Machine built by NewMachine.
type Config struct {
	// Seed drives the scheduler's interleaving choices. Different seeds
	// explore different schedules; with DeterministicSync the results
	// of completed executions do not depend on it.
	Seed int64
	// DeterministicSync enables Kendo deterministic synchronization.
	DeterministicSync bool
	// Detection selects the race detector.
	Detection Detection
	// DisableMultibyteOpt turns off the §4.4 vectorized multi-byte
	// check (CLEAN only).
	DisableMultibyteOpt bool
	// ClockBits and TIDBits override the 32-bit epoch split (defaults:
	// 23-bit clock, 8-bit thread id). Narrow clocks trigger the
	// deterministic rollover reset of §4.5.
	ClockBits uint
	TIDBits   uint
	// YieldEvery coarsens scheduling granularity (default 1: a
	// scheduling point at every operation).
	YieldEvery int
	// MaxSteps bounds the scheduler's dispatch count; exhausting it stops
	// the run with a *LivelockError naming the most-starved thread. Zero
	// means unbounded.
	MaxSteps uint64
	// Tracer, if non-nil, records the run's event stream (see
	// internal/trace and internal/hwsim).
	Tracer Tracer
	// FaultInjector, if non-nil, receives the machine's fault-injection
	// callbacks (see internal/faults for the deterministic plan-driven
	// implementation).
	FaultInjector Injector
	// Metrics, if non-nil, receives the run's counters: machine, detector
	// (CLEAN only) and Kendo-wait metrics under dotted names
	// (machine.shared_reads, core.epoch_loads, kendo.wait_ops, …).
	Metrics *Metrics
	// Timeline, if non-nil, records the run's per-thread spans; write it
	// out with Timeline.WriteTo and load the JSON in Perfetto or
	// chrome://tracing.
	Timeline *Timeline

	// detectionSet and seedSet record that the option constructors chose
	// these fields explicitly; NewConfig rejects configurations that leave
	// either ambiguous. Struct-literal construction bypasses the check —
	// kept for compatibility, validated only by Validate's range checks.
	detectionSet bool
	seedSet      bool
}

func (c Config) layout() vclock.Layout {
	l := vclock.DefaultLayout
	if c.ClockBits != 0 {
		l.ClockBits = c.ClockBits
	}
	if c.TIDBits != 0 {
		l.TIDBits = c.TIDBits
	}
	return l
}

func (c Config) detector() machine.Detector {
	switch c.Detection {
	case DetectCLEAN:
		return core.New(core.Config{Layout: c.layout(), DisableMultibyte: c.DisableMultibyteOpt})
	case DetectFastTrack:
		return fasttrack.New(fasttrack.Config{Layout: c.layout()})
	case DetectTSanLite:
		return tsanlite.New(tsanlite.Config{Layout: c.layout()})
	case DetectPredict:
		// Predictions certify against CLEAN semantics; a machine built
		// directly in predict mode carries the CLEAN detector so witness
		// replays and ad-hoc runs raise the same exceptions the
		// prediction pipeline certifies with.
		return core.New(core.Config{Layout: c.layout(), DisableMultibyte: c.DisableMultibyteOpt})
	default:
		return nil
	}
}

// NewMachine builds a machine per cfg. Allocate memory and create
// synchronization objects on it, then call Run with the root thread's
// function.
//
// Prefer New(opts...): it validates eagerly and returns the error.
// NewMachine cannot return one, so an invalid cfg (an out-of-range
// detection mode, a bad epoch layout) no longer silently defaults —
// Run fails with a structured *MachineError (ErrConfig) describing it.
func NewMachine(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		m := NewMachineWithDetector(cfg, nil)
		m.FailEarly(&MachineError{Kind: ErrConfig, TID: -1, Op: "config", Msg: err.Error()})
		return m
	}
	return NewMachineWithDetector(cfg, cfg.detector())
}

// Detector is the race-detection plug-in interface; the built-in choices
// are selected through Config.Detection, and custom or monitor-mode
// detectors (core.Config{Monitor: true}, tsanlite) attach through
// NewMachineWithDetector.
type Detector = machine.Detector

// NewDetector instantiates the detector the configuration selects (nil
// for DetectNone), for callers that build machines through entry points
// taking an explicit detector — prog.RunPicked witness replays,
// NewMachineWithDetector.
func (c Config) NewDetector() Detector { return c.detector() }

// NewMachineWithDetector builds a machine with a caller-supplied detector
// instance, overriding cfg.Detection.
func NewMachineWithDetector(cfg Config, det Detector) *Machine {
	return machine.New(machine.Config{
		Seed:       cfg.Seed,
		DetSync:    cfg.DeterministicSync,
		Detector:   det,
		Layout:     cfg.layout(),
		YieldEvery: cfg.YieldEvery,
		MaxSteps:   cfg.MaxSteps,
		Tracer:     cfg.Tracer,
		Injector:   cfg.FaultInjector,
		Metrics:    cfg.Metrics,
		Timeline:   cfg.Timeline,
	})
}

// WorkloadInfo describes one of the 26 benchmark stand-ins.
type WorkloadInfo struct {
	Name        string
	Suite       string // "splash2" or "parsec"
	Racy        bool   // the unmodified variant contains data races
	HasModified bool   // false only for canneal
	Desc        string
}

// Workloads lists the benchmark registry.
func Workloads() []WorkloadInfo {
	var out []WorkloadInfo
	for _, w := range workloads.All() {
		out = append(out, WorkloadInfo{
			Name: w.Name, Suite: w.Suite, Racy: w.Racy,
			HasModified: w.HasModified, Desc: w.Desc,
		})
	}
	return out
}

// Report is the outcome of RunWorkload.
type Report struct {
	// Err is nil for a completed execution, a *RaceError for a race
	// exception, or a *DeadlockError.
	Err error
	// Stats are the machine counters.
	Stats Stats
	// OutputHash fingerprints the workload's output region (only for
	// completed executions); under DeterministicSync it is identical
	// across seeds.
	OutputHash uint64
	// FinalCounters are the threads' deterministic counters in spawn
	// order.
	FinalCounters []uint64
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
	// Telemetry is the schema-versioned run report, filled when
	// Config.Metrics was set; Telemetry.Encode renders it as JSON.
	Telemetry *RunReport
}

// RunWorkload builds and runs one benchmark stand-in. scale is "test",
// "simsmall", "simlarge" or "native"; modified selects the race-free
// variant (§6.1).
func RunWorkload(name, scale string, modified bool, cfg Config) (*Report, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, &UnknownWorkloadError{Name: name}
	}
	sc, err := workloads.ParseScale(scale)
	if err != nil {
		return nil, err
	}
	variant := workloads.Unmodified
	if modified {
		variant = workloads.Modified
	}
	det := cfg.detector()
	m := NewMachineWithDetector(cfg, det)
	root, out := w.Build(m, sc, variant)
	start := time.Now()
	runErr := m.Run(root)
	rep := &Report{
		Err:           runErr,
		Stats:         m.Stats(),
		FinalCounters: m.FinalCounters(),
		Elapsed:       time.Since(start),
	}
	if runErr == nil {
		rep.OutputHash = m.HashMem(out.Addr, out.Len)
	}
	if cd, ok := det.(*core.Detector); ok {
		cd.Stats().PublishTo(cfg.Metrics)
	}
	if cfg.Metrics != nil {
		tr := telemetry.NewRunReport()
		tr.Workload = name
		tr.Scale = sc.String()
		tr.Variant = variant.String()
		tr.Detector = cfg.Detection.String()
		tr.Seed = cfg.Seed
		tr.DetSync = cfg.DeterministicSync
		tr.Outcome = classifyOutcome(runErr)
		if runErr != nil {
			tr.Error = runErr.Error()
		} else {
			tr.OutputHash = telemetry.FormatHash(rep.OutputHash)
		}
		tr.ElapsedSeconds = rep.Elapsed.Seconds()
		tr.Metrics = cfg.Metrics.Snapshot()
		rep.Telemetry = tr
	}
	// The detector is unreachable past this point: recycle its shadow
	// pages so back-to-back workload runs (the service's steady state)
	// serve from the pool instead of the garbage collector.
	m.ReleaseMetadata()
	return rep, nil
}

// String names the detector choice for reports and CLIs.
func (d Detection) String() string {
	switch d {
	case DetectCLEAN:
		return "clean"
	case DetectFastTrack:
		return "fasttrack"
	case DetectTSanLite:
		return "tsanlite"
	case DetectPredict:
		return "predict"
	}
	return "none"
}

// OutcomeOf maps a Run error to the RunReport outcome vocabulary
// ("completed", "race-exception", "deadlock", "livelock",
// "contained-crash", "error"); RunWorkload, the CLIs and the detection
// service all classify through it.
func OutcomeOf(err error) string { return classifyOutcome(err) }

// classifyOutcome maps a Run error to the RunReport outcome vocabulary.
func classifyOutcome(err error) string {
	var race *RaceError
	var dead *DeadlockError
	var live *LivelockError
	var merr *MachineError
	switch {
	case err == nil:
		return "completed"
	case errors.As(err, &race):
		return "race-exception"
	case errors.As(err, &dead):
		return "deadlock"
	case errors.As(err, &live):
		return "livelock"
	case errors.As(err, &merr):
		return "contained-crash"
	}
	return "error"
}

// UnknownWorkloadError reports a benchmark name not in the registry.
type UnknownWorkloadError struct{ Name string }

func (e *UnknownWorkloadError) Error() string {
	return "clean: unknown workload " + e.Name
}
