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
// To run a whole program once and get its outcome as a Report, call
// RunWorkload for one of the benchmark stand-ins or RunProgram for a
// program in the internal/prog IR (a litmus test, a generated program, a
// lowered Go source file). Both share one body — validate, build, run,
// counters, output fingerprint, detector footprint, telemetry — which
// the CLIs, the detection service, DiagnoseWorkload and the evaluation
// harness's whole-workload runs call rather than building machines
// themselves.
//
// See examples/ for complete programs, cmd/cleanbench for the paper's
// evaluation, and cmd/cleand for serving detection over HTTP (the api/v1
// wire contract).
package clean

import (
	"errors"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/core"
	"repro/internal/fasttrack"
	"repro/internal/machine"
	"repro/internal/predict"
	"repro/internal/prog"
	"repro/internal/shadow"
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
	MetricsSnapshot = apiv1.MetricsSnapshot
	// RunReport is the schema-versioned machine-readable record of one
	// run, the api/v1 document; RunWorkload and RunProgram fill
	// Report.Telemetry with one when Config.Metrics is set.
	RunReport = apiv1.RunReport
	// Footprint is a detector's metadata footprint: mapped shadow pages,
	// compact and expanded lines, logical metadata bytes.
	Footprint = shadow.Footprint
)

// NewMetrics returns an empty enabled metric registry.
func NewMetrics() *Metrics { return telemetry.NewRegistry() }

// NewTimeline returns an empty enabled timeline.
func NewTimeline() *Timeline { return telemetry.NewTimeline() }

// DecodeRunReport parses and validates an encoded RunReport; unknown
// fields or a schema-version mismatch are errors.
func DecodeRunReport(data []byte) (*RunReport, error) {
	return apiv1.DecodeRunReport(data)
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
	// CLEAN); RunWorkload and RunProgram run the prediction pipeline
	// itself (Report.Prediction), which is how cleanrun -det predict and
	// predict service jobs reach it.
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
// taking an explicit detector — explore's per-run detector factory,
// prog.RunPicked witness replays, NewMachineWithDetector.
func (c Config) NewDetector() Detector { return c.detector() }

// NewMachineWithDetector builds a machine with a caller-supplied detector
// instance, overriding cfg.Detection.
func NewMachineWithDetector(cfg Config, det Detector) *Machine {
	return machine.New(cfg.machineConfig(det))
}

func (c Config) machineConfig(det Detector) machine.Config {
	return machine.Config{
		Seed:       c.Seed,
		DetSync:    c.DeterministicSync,
		Detector:   det,
		Layout:     c.layout(),
		YieldEvery: c.YieldEvery,
		MaxSteps:   c.MaxSteps,
		Tracer:     c.Tracer,
		Injector:   c.FaultInjector,
		Metrics:    c.Metrics,
		Timeline:   c.Timeline,
	}
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

// Report is the outcome of RunWorkload or RunProgram.
type Report struct {
	// Err is nil for a completed execution, a *RaceError for a race
	// exception, or a *DeadlockError.
	Err error
	// Stats are the machine counters.
	Stats Stats
	// OutputHash fingerprints the output region — a workload's output
	// buffer, a program's shared region — for completed executions;
	// under DeterministicSync it is identical across seeds.
	OutputHash uint64
	// OutputAddr is the output region's address: subtract it from a race
	// witness's address to get the offset a program variable lives at.
	OutputAddr uint64
	// FinalCounters are the threads' deterministic counters in spawn
	// order.
	FinalCounters []uint64
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
	// Footprint is the detector's metadata at run end, read before its
	// shadow pages are recycled: CLEAN fills every field, FastTrack only
	// MetadataBytes, and runs under other detectors leave it zero.
	Footprint Footprint
	// Telemetry is the schema-versioned run report, filled when
	// Config.Metrics was set; api/v1's Encode renders it as JSON.
	Telemetry *RunReport
	// Prediction is the prediction pipeline's result for a DetectPredict
	// run without a schedule. Err is then how the recording ended, and
	// the other fields but Elapsed stay zero.
	Prediction *predict.Result
}

// RunWorkload builds and runs one benchmark stand-in. scale is "test",
// "simsmall", "simlarge" or "native"; modified selects the race-free
// variant (§6.1). DetectPredict runs the prediction pipeline instead
// (Report.Prediction). An invalid cfg is an error, as from NewConfig.
func RunWorkload(name, scale string, modified bool, cfg Config) (*Report, error) {
	id, target, err := workloadTarget(name, scale, modified)
	if err != nil {
		return nil, err
	}
	if cfg.Detection == DetectPredict {
		return runPredict(cfg, target)
	}
	return run(cfg, cfg.detector(), nil, id, target)
}

// workloadTarget resolves a benchmark stand-in into the report identity
// and the target run builds.
func workloadTarget(name, scale string, modified bool) (RunReport, predict.Target, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return RunReport{}, predict.Target{}, &UnknownWorkloadError{Name: name}
	}
	sc, err := workloads.ParseScale(scale)
	if err != nil {
		return RunReport{}, predict.Target{}, err
	}
	variant := workloads.Unmodified
	if modified {
		variant = workloads.Modified
	}
	id := RunReport{Workload: name, Scale: sc.String(), Variant: variant.String()}
	return id, predict.WorkloadTarget(w, sc, variant), nil
}

// RunProgram builds and runs one program in the internal/prog IR — the
// program twin of RunWorkload; its output region is the program's shared
// region. A non-empty schedule replays the sequential composition that
// runs those workers in order (prog.SequentialPicker, the static
// analyzer's witness schedule) instead of the seeded scheduler; the
// interleaving is then fixed, so Seed, DeterministicSync and YieldEvery
// are ignored. DetectPredict without a schedule runs the prediction
// pipeline instead (Report.Prediction); a scheduled replay runs under
// CLEAN, which certifies predictions. An invalid program or cfg is an
// error.
func RunProgram(p *prog.Program, cfg Config, schedule ...int) (*Report, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(schedule) == 0 && cfg.Detection == DetectPredict {
		return runPredict(cfg, predict.ProgramTarget(p))
	}
	var pick func([]*Thread) int
	if len(schedule) > 0 {
		pick = prog.SequentialPicker(schedule...)
		cfg.Seed, cfg.DeterministicSync, cfg.YieldEvery = 0, false, 0
	}
	return run(cfg, cfg.detector(), pick, RunReport{Workload: "prog"}, predict.ProgramTarget(p))
}

// runPredict is the DetectPredict body behind RunWorkload and RunProgram:
// record one run of target under cfg's Seed and MaxSteps — the only
// fields it takes from cfg — then certify the races its sync-preserving
// reorderings exhibit (internal/predict).
func runPredict(cfg Config, target predict.Target) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	res := predict.Run(target, predict.Options{Seed: cfg.Seed, MaxSteps: cfg.MaxSteps})
	return &Report{Err: res.Recording.Err, Elapsed: time.Since(start), Prediction: res}, nil
}

// run is the one body behind RunWorkload, RunProgram and
// DiagnoseWorkload: validate cfg, build the machine around det (driven
// by pick when non-nil), run it, read its counters, output fingerprint
// and detector footprint, publish the CLEAN detector's stats and, with
// Config.Metrics set, file the telemetry report under id's names.
func run(cfg Config, det Detector, pick func([]*Thread) int, id RunReport, target predict.Target) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mc := cfg.machineConfig(det)
	mc.Picker = pick
	m := machine.New(mc)
	// The detector is unreachable once the report is filled: recycle its
	// shadow pages so back-to-back runs (the service's steady state) serve
	// from the pool instead of the garbage collector. Deferred, so a
	// panicking run cannot leak the footprint gauges either.
	defer m.ReleaseMetadata()
	root, out, n := target.Build(m)
	start := time.Now()
	runErr := m.Run(root)
	rep := &Report{
		Err:           runErr,
		Stats:         m.Stats(),
		OutputAddr:    out,
		FinalCounters: m.FinalCounters(),
		Elapsed:       time.Since(start),
	}
	if runErr == nil {
		rep.OutputHash = m.HashMem(out, n)
	}
	switch d := det.(type) {
	case *core.Detector:
		d.Stats().PublishTo(cfg.Metrics)
		rep.Footprint = d.Footprint()
	case *fasttrack.Detector:
		rep.Footprint.MetadataBytes = d.MetadataBytes()
	}
	if cfg.Metrics != nil {
		tr := apiv1.NewRunReport()
		tr.Workload, tr.Scale, tr.Variant = id.Workload, id.Scale, id.Variant
		tr.Detector = cfg.Detection.String()
		tr.Seed = cfg.Seed
		tr.DetSync = cfg.DeterministicSync
		tr.Outcome = OutcomeOf(runErr)
		if runErr != nil {
			tr.Error = runErr.Error()
		} else {
			tr.OutputHash = telemetry.FormatHash(rep.OutputHash)
		}
		tr.ElapsedSeconds = rep.Elapsed.Seconds()
		tr.Metrics = cfg.Metrics.Snapshot()
		rep.Telemetry = tr
	}
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
// "contained-crash", "error"); the run body, the CLIs, the detection
// service and the harness all classify through it.
func OutcomeOf(err error) string {
	var race *RaceError
	var dead *DeadlockError
	var live *LivelockError
	var merr *MachineError
	switch {
	case err == nil:
		return apiv1.OutcomeCompleted
	case errors.As(err, &race):
		return apiv1.OutcomeRaceException
	case errors.As(err, &dead):
		return apiv1.OutcomeDeadlock
	case errors.As(err, &live):
		return apiv1.OutcomeLivelock
	case errors.As(err, &merr):
		return apiv1.OutcomeContainedCrash
	}
	return apiv1.OutcomeError
}

// UnknownWorkloadError reports a benchmark name not in the registry.
type UnknownWorkloadError struct{ Name string }

func (e *UnknownWorkloadError) Error() string {
	return "clean: unknown workload " + e.Name
}
