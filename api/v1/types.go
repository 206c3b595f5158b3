// Package v1 is the versioned wire contract of the CLEAN detection
// service (cmd/cleand) and its report-emitting CLIs: pure data types with
// explicit JSON tags, a schema-version stamp on every document, and strict
// decoding that rejects unknown fields and version mismatches.
//
// The package deliberately imports nothing outside the standard library —
// a client should be able to vendor these types without dragging in the
// detector implementation — and CI enforces that (see deps_test.go).
// Stability rules:
//
//   - fields are never removed or repurposed within a schema version;
//   - new optional fields may be added (decoders here are strict, so
//     same-version readers must be updated in lockstep — that is the
//     point: this repository's tools all speak exactly one version);
//   - any change to a field's meaning bumps SchemaVersion, and decoders
//     reject documents stamped with a version they do not speak.
package v1

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// SchemaVersion is stamped into every document this package defines,
// and into the telemetry layer's BENCH_*.json files, so a report is the
// same document whether it was written locally by `cleanrun -report` or
// returned remotely by cleand.
const SchemaVersion = 1

// Document kinds: a second self-description guard alongside the schema
// version, stored in each document's Kind field.
const (
	KindRunReport     = "clean.run-report"
	KindSession       = "clean.v1.session"
	KindJob           = "clean.v1.job"
	KindHealth        = "clean.v1.health"
	KindMetrics       = "clean.v1.metrics"
	KindError         = "clean.v1.error"
	KindChaos         = "clean.v1.chaos"
	KindPredictedRace = "clean.v1.predicted-race"
)

// Detector names accepted in SessionConfig.Detection and
// JobSpec.Detection.
const (
	DetectionNone      = "none"
	DetectionCLEAN     = "clean"
	DetectionFastTrack = "fasttrack"
	DetectionTSanLite  = "tsanlite"
	DetectionPredict   = "predict"
)

// detectionNames lists every accepted detector name for validation.
var detectionNames = []string{
	DetectionNone, DetectionCLEAN, DetectionFastTrack, DetectionTSanLite, DetectionPredict,
}

// Run outcome vocabulary (clean.OutcomeOf classifies into it).
const (
	OutcomeCompleted      = "completed"
	OutcomeRaceException  = "race-exception"
	OutcomeDeadlock       = "deadlock"
	OutcomeLivelock       = "livelock"
	OutcomeContainedCrash = "contained-crash"
	OutcomeError          = "error"
	// OutcomeDeadline marks a run the service never started (or cut
	// short between fan-out runs) because the job's wall-clock deadline
	// had already passed.
	OutcomeDeadline = "deadline-exceeded"
)

// Job lifecycle states.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
)

// HistogramSnapshot is the serialized state of one bounded histogram.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Mean   float64   `json:"mean"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// MetricsSnapshot is the serialized state of a metric registry: every
// counter, gauge and histogram keyed by its dotted name.
type MetricsSnapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// RunReport is the machine-readable record of one run: identity (what ran,
// under which configuration), outcome, and every telemetry metric. It is
// the one run-report type: the telemetry layer, the facade, the CLIs and
// the service all fill this struct, and it lives here so remote clients
// can decode it without importing the implementation.
type RunReport struct {
	Schema   int    `json:"schema"`
	Kind     string `json:"kind"`
	Workload string `json:"workload,omitempty"`
	Scale    string `json:"scale,omitempty"`
	Variant  string `json:"variant,omitempty"`
	Detector string `json:"detector,omitempty"`
	Seed     int64  `json:"seed"`
	DetSync  bool   `json:"detsync"`
	// Outcome classifies the run using the Outcome* vocabulary.
	Outcome string `json:"outcome"`
	// Error is the error string for non-completed runs.
	Error string `json:"error,omitempty"`
	// ElapsedSeconds is wall-clock run time — the one nondeterministic
	// field.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// OutputHash is the workload output fingerprint in hex ("0x…"), empty
	// for runs that did not complete. Hex instead of a JSON number: the
	// value is a full 64-bit hash and float64 readers would corrupt it.
	OutputHash string `json:"output_hash,omitempty"`
	// Witness, when present, locates the race this run or analysis
	// established, in the unified witness shape every engine serializes
	// (cleanrun -report, cleanvet -json, Job documents). For static
	// analyses Addr is region-relative and TID/PrevTID are worker
	// indices; dynamic runs use machine addresses and thread ids.
	Witness *RaceWitness `json:"witness,omitempty"`
	// Metrics is the registry snapshot.
	Metrics MetricsSnapshot `json:"metrics"`
}

// NewRunReport returns a report pre-stamped with the current schema.
func NewRunReport() *RunReport {
	return &RunReport{Schema: SchemaVersion, Kind: KindRunReport}
}

// Counter returns a counter from the report's metrics, 0 when absent or
// on a nil report, so consumers read rep.Counter("machine.shared_reads")
// without nil checks.
func (r *RunReport) Counter(name string) uint64 {
	if r == nil {
		return 0
	}
	return r.Metrics.Counters[name]
}

// Gauge returns a gauge from the report's metrics, 0 when absent or on a
// nil report.
func (r *RunReport) Gauge(name string) float64 {
	if r == nil {
		return 0
	}
	return r.Metrics.Gauges[name]
}

// ScheduleStep is one run of a witness schedule: dispatch Ops
// consecutive operations of worker Thread. Thread is the worker index in
// program order (the same numbering JobSpec.Schedule and the static
// analyzer's pair reports use); the root thread's spawn/join bookkeeping
// is implicit — a replayer dispatches the root whenever the next step's
// worker does not exist yet or is blocked.
type ScheduleStep struct {
	Thread int `json:"thread"`
	Ops    int `json:"ops"`
}

// WitnessSchedule is the unified schedule shape the engines serialize
// their witnesses in: a run-length-encoded worker dispatch sequence. The
// static analyzer emits the sequential composition that realizes a
// MustRace pair; predict emits the sync-preserving reordering its
// certification replayed.
type WitnessSchedule struct {
	Steps []ScheduleStep `json:"steps"`
}

// RaceWitness locates a detected race precisely enough to replay it: the
// access that raised the exception, the thread and synchronization-free
// region it ran in, and the earlier conflicting access from the detector
// metadata.
type RaceWitness struct {
	// Kind is "WAW", "RAW" or "WAR".
	Kind string `json:"kind"`
	// Addr and Size locate the access that raised the exception.
	Addr uint64 `json:"addr"`
	Size int    `json:"size"`
	// TID is the thread performing the racing access; SFR its
	// synchronization-free-region index at the time.
	TID int    `json:"tid"`
	SFR uint64 `json:"sfr"`
	// PrevTID and PrevClock describe the earlier conflicting access.
	PrevTID   int    `json:"prev_tid"`
	PrevClock uint32 `json:"prev_clock"`
	// Detector names the detector that raised the exception.
	Detector string `json:"detector"`
	// Schedule, when present, is the dispatch sequence that realizes the
	// race — attached by scheduled replays and predict certifications;
	// absent for seeded runs whose interleaving is only identified by
	// the seed.
	Schedule *WitnessSchedule `json:"schedule,omitempty"`
}

// PredictedAccess is one side of a predicted race's candidate pair,
// located in the recorded trace.
type PredictedAccess struct {
	// Thread is the worker index in program order (-1 for the root
	// thread, which only workload targets can access shared memory
	// from).
	Thread int `json:"thread"`
	// Index is the access's position in the worker's recorded event
	// order.
	Index int `json:"index"`
	// Addr and Size locate the access in the shared region.
	Addr uint64 `json:"addr"`
	Size int    `json:"size"`
	// Write distinguishes writes from reads.
	Write bool `json:"write"`
	// Source is the access's source position ("file:line:col") when the
	// program came through the Go front end's source map.
	Source string `json:"source,omitempty"`
}

// PredictedRace is a race the predictive engine found in a
// sync-preserving reordering of a recorded trace: the candidate pair,
// the reordering witness, and the certification outcome. A certified
// prediction's schedule was actually executed — twice, byte-identically —
// into the detector exception described by Witness.
type PredictedRace struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	// Race is the realized race kind, "WAW" or "RAW" (the witness orders
	// a mixed pair write-first, so WAR pairs certify as RAW).
	Race string `json:"race"`
	// First and Second are the candidate pair in witness order; Second
	// completes the race.
	First  PredictedAccess `json:"first"`
	Second PredictedAccess `json:"second"`
	// Schedule is the reordering witness that realizes the race.
	Schedule *WitnessSchedule `json:"schedule,omitempty"`
	// Certified reports that the schedule re-executed to the predicted
	// detector exception with byte-identical outcomes across two
	// replays.
	Certified bool `json:"certified"`
	// Witness is the exception the certification replay raised.
	Witness *RaceWitness `json:"witness,omitempty"`
	// DeterminismHash digests the certification replay's race identity,
	// final counters and shared-region hash in hex ("0x…"); both replays
	// agreed on it.
	DeterminismHash string `json:"determinism_hash,omitempty"`
}

// NewPredictedRace returns a prediction pre-stamped with the current
// schema.
func NewPredictedRace() *PredictedRace {
	return &PredictedRace{Schema: SchemaVersion, Kind: KindPredictedRace}
}

// SessionConfig is the detection configuration a session is created with;
// every job submitted to the session runs under it. It mirrors the
// facade's functional options (clean.WithDetection, clean.WithSeed, …).
type SessionConfig struct {
	// Detection selects the detector: "none", "clean", "fasttrack" or
	// "tsanlite".
	Detection string `json:"detection"`
	// Seed drives the scheduler's interleaving choices (per-job seeds
	// override it).
	Seed int64 `json:"seed"`
	// DetSync enables Kendo deterministic synchronization.
	DetSync bool `json:"detsync"`
	// YieldEvery coarsens scheduling granularity (0 = every operation).
	YieldEvery int `json:"yield_every,omitempty"`
	// MaxSteps bounds each run's scheduler dispatches (0 = the server's
	// default budget; runs exceeding it stop with a livelock outcome).
	MaxSteps uint64 `json:"max_steps,omitempty"`
	// ClockBits and TIDBits override the 32-bit epoch split.
	ClockBits uint `json:"clock_bits,omitempty"`
	TIDBits   uint `json:"tid_bits,omitempty"`
	// DisableMultibyteOpt turns off the vectorized multi-byte check
	// (CLEAN only).
	DisableMultibyteOpt bool `json:"disable_multibyte_opt,omitempty"`
	// Metrics attaches a telemetry registry to every run and returns a
	// full RunReport per run result.
	Metrics bool `json:"metrics,omitempty"`
}

// CreateSessionRequest opens a detection session.
type CreateSessionRequest struct {
	Schema int           `json:"schema"`
	Config SessionConfig `json:"config"`
}

// Session describes a detection session.
type Session struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	ID     string `json:"id"`
	// State is "active" or "closed".
	State  string        `json:"state"`
	Config SessionConfig `json:"config"`
	// JobsSubmitted/JobsDone count the session's jobs.
	JobsSubmitted int `json:"jobs_submitted"`
	JobsDone      int `json:"jobs_done"`
}

// WorkloadSpec names a benchmark stand-in to run remotely.
type WorkloadSpec struct {
	// Name is the workload name from the registry (e.g. "fft").
	Name string `json:"name"`
	// Scale is "test", "simsmall", "simlarge" or "native".
	Scale string `json:"scale"`
	// Variant is "modified" (race-free) or "unmodified".
	Variant string `json:"variant"`
}

// MaxGoSourceBytes caps JobSpec.GoSource. The front end supports small
// litmus-style programs; anything larger is a client error, rejected
// before it reaches a parser.
const MaxGoSourceBytes = 1 << 20

// JobSpec describes one detection job. Exactly one of Program, Litmus,
// Workload and GoSource must be set.
type JobSpec struct {
	// Program is a program in the internal/prog text format ("region N" /
	// "locks N" / "thread" / per-op lines).
	Program string `json:"program,omitempty"`
	// Litmus names a litmus program from the server's registry.
	Litmus string `json:"litmus,omitempty"`
	// Workload names a benchmark stand-in.
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// GoSource is Go source text in the gofront-supported subset; the
	// server lowers it to a program before running. Parse or lowering
	// failures reject the submission with positioned diagnostics.
	GoSource string `json:"gosource,omitempty"`
	// Schedule, for program/litmus jobs, forces the sequential-composition
	// schedule that runs the listed workers in order (the static
	// analyzer's witness-replay schedule) instead of the seeded scheduler.
	Schedule []int `json:"schedule,omitempty"`
	// Seeds fans the job out over one run per seed on the server's worker
	// pool; empty means one run under the session seed.
	Seeds []int64 `json:"seeds,omitempty"`
	// Detection overrides the session's detector for this job; empty
	// inherits the session's. Accepts the same names as
	// SessionConfig.Detection, including "predict" for the predictive
	// engine (program/litmus/gosource jobs only).
	Detection string `json:"detection,omitempty"`
	// MaxSteps overrides the session's per-run scheduler budget for this
	// job (0 = session/server default). Every run stays deterministically
	// bounded even when the wall-clock deadline never fires.
	MaxSteps uint64 `json:"max_steps,omitempty"`
	// DeadlineSeconds is the job's wall-clock budget, measured from
	// acceptance (queue wait counts). Runs not started before it passes
	// finish with OutcomeDeadline; 0 means no deadline.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
}

// SubmitJobRequest submits a job to a session.
type SubmitJobRequest struct {
	Schema int     `json:"schema"`
	Job    JobSpec `json:"job"`
	// IdempotencyKey makes the submission safe to retry: a second submit
	// to the same session with the same key returns the original job
	// instead of enqueueing a duplicate. Empty disables deduplication.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// RunResult is the outcome of one run of a job.
type RunResult struct {
	// Seed is the scheduler seed the run used (absent for scheduled
	// witness replays, which are seed-independent).
	Seed int64 `json:"seed"`
	// Outcome classifies the run using the Outcome* vocabulary.
	Outcome string `json:"outcome"`
	// Error is the error string for non-completed runs.
	Error string `json:"error,omitempty"`
	// Witness is the race exception's witness for race-exception runs.
	Witness *RaceWitness `json:"witness,omitempty"`
	// DeterminismHash fingerprints the run's final shared state in hex
	// ("0x…"): the program region or the workload output region. For a
	// completed deterministic-sync run it is identical across seeds and
	// identical to the same configuration run in-process.
	DeterminismHash string `json:"determinism_hash,omitempty"`
	// FinalCounters are the threads' deterministic counters in spawn
	// order.
	FinalCounters []uint64 `json:"final_counters,omitempty"`
	// ElapsedSeconds is the run's wall-clock time on the server.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Report is the full telemetry report (sessions with Metrics only).
	Report *RunReport `json:"report,omitempty"`
	// Predicted holds the certified predictions of a predict-mode run,
	// one per distinct realized race.
	Predicted []PredictedRace `json:"predicted,omitempty"`
}

// JobSpan is one phase of a job's lifecycle: the span named "queued"
// covers the time between the job becoming queued and the next phase
// starting. Spans are contiguous, so their durations sum exactly to the
// trace's end-to-end latency.
type JobSpan struct {
	// Phase is one of "journaled", "queued", "running", "requeued",
	// "stored". "journaled" is the durable-append (group-commit fsync)
	// wait; "requeued" appears only after a contained worker panic.
	Phase string `json:"phase"`
	// StartUnixNano is the phase's start, nanoseconds since the Unix
	// epoch on the server's clock.
	StartUnixNano int64 `json:"start_unix_nano"`
	// Seconds is the phase's duration.
	Seconds float64 `json:"seconds"`
}

// JobTrace is a job's lifecycle trace: when the server received it,
// the contiguous phases it moved through, and the total end-to-end
// latency once done.
type JobTrace struct {
	// ReceivedUnixNano is when the server accepted the submission.
	ReceivedUnixNano int64 `json:"received_unix_nano"`
	// Spans lists the phases in order. The trace of a job that is not
	// yet done covers only the phases completed so far.
	Spans []JobSpan `json:"spans,omitempty"`
	// TotalSeconds is received→done latency, 0 until the job is done.
	TotalSeconds float64 `json:"total_seconds,omitempty"`
}

// Job describes a submitted job and, once done, its results.
type Job struct {
	Schema  int    `json:"schema"`
	Kind    string `json:"kind"`
	ID      string `json:"id"`
	Session string `json:"session"`
	// State is "queued", "running" or "done".
	State string  `json:"state"`
	Spec  JobSpec `json:"spec"`
	// IdempotencyKey echoes the submission's deduplication key.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Attempts counts executions of this job: 1 for the common case, 2
	// when a contained worker panic forced the one permitted requeue.
	Attempts int `json:"attempts,omitempty"`
	// Runs holds one result per run, in seed order, once State is "done".
	Runs []RunResult `json:"runs,omitempty"`
	// Trace is the job's lifecycle trace — where the time went between
	// submission and ack. Absent on servers recovered from a journal
	// written before tracing, and for jobs replayed from the store.
	Trace *JobTrace `json:"trace,omitempty"`
}

// Health is the /healthz document.
type Health struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	// Status is "ok" or "draining".
	Status string `json:"status"`
	// Sessions is the number of active sessions.
	Sessions int `json:"sessions"`
	// QueueDepth and QueueCap describe the job queue's occupancy.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// Workers is the size of the worker pool.
	Workers int `json:"workers"`
	// Durable reports whether the server persists jobs to a store — a
	// crash loses nothing acknowledged.
	Durable bool `json:"durable,omitempty"`
	// RecoveredJobs counts the queued/running jobs the server re-enqueued
	// from its store at the most recent boot.
	RecoveredJobs int `json:"recovered_jobs,omitempty"`
	// StartedAt is the server's boot time in RFC 3339 with sub-second
	// precision; UptimeSeconds is elapsed time since then. Together they
	// let a scraper tell a fresh boot from a long-running server.
	StartedAt     string  `json:"started_at,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
}

// Metrics is the /metrics document: the server's own registry snapshot.
// The same endpoint serves Prometheus text exposition under content
// negotiation; this JSON form carries the full histogram state
// (quantiles, bounds) the text format flattens.
type Metrics struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	// CollectedAt stamps the snapshot, RFC 3339 with sub-second
	// precision on the server's clock.
	CollectedAt string          `json:"collected_at,omitempty"`
	Metrics     MetricsSnapshot `json:"metrics"`
}

// ChaosRequest arms the server's service-level fault injector (the
// /debug/chaos endpoint, mounted only when the server was started with
// chaos enabled). Counts are consumed as they fire; windows are
// wall-clock. The soak harness (cmd/cleanstress) uses this to attack a
// live server and then assert graceful degradation.
type ChaosRequest struct {
	Schema int `json:"schema"`
	// WorkerPanics makes the next N job executions panic inside the
	// worker, exercising panic containment and the single requeue.
	WorkerPanics int `json:"worker_panics,omitempty"`
	// StoreErrors fails the next N store appends, exercising the
	// submission path's 503 degradation.
	StoreErrors int `json:"store_errors,omitempty"`
	// StallSeconds holds every worker idle for this wall-clock window,
	// building queue pressure (429s) without losing anything.
	StallSeconds float64 `json:"stall_seconds,omitempty"`
}

// Chaos acknowledges a ChaosRequest with the injector's armed state.
type Chaos struct {
	Schema                int     `json:"schema"`
	Kind                  string  `json:"kind"`
	WorkerPanics          int     `json:"worker_panics"`
	StoreErrors           int     `json:"store_errors"`
	StallSecondsRemaining float64 `json:"stall_seconds_remaining"`
}

// Error is the error envelope every non-2xx response carries.
type Error struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	// Status is the HTTP status code.
	Status int `json:"status"`
	// Message describes the failure.
	Message string `json:"message"`
	// RetryAfterSeconds, for 429 responses, mirrors the Retry-After
	// header: the queue was full, try again after this many seconds.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("cleand: %d: %s", e.Status, e.Message)
}

// NewError returns an error envelope stamped with the current schema.
func NewError(status int, message string) *Error {
	return &Error{Schema: SchemaVersion, Kind: KindError, Status: status, Message: message}
}

// Encode renders any document of this package as deterministic, indented
// JSON (Go serializes maps with sorted keys), terminated by a newline.
func Encode(v interface{}) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeStrict parses data into v, rejecting unknown fields — a
// same-version reader that does not know a field must fail loudly rather
// than silently drop it.
func DecodeStrict(data []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// CheckHeader validates a document's schema/kind stamp.
func CheckHeader(schema int, kind, wantKind string) error {
	if schema != SchemaVersion {
		return fmt.Errorf("api/v1: schema version %d, this reader expects %d", schema, SchemaVersion)
	}
	if kind != wantKind {
		return fmt.Errorf("api/v1: document kind %q, want %q", kind, wantKind)
	}
	return nil
}

// DecodeRunReport parses and validates an encoded run report.
func DecodeRunReport(data []byte) (*RunReport, error) {
	var r RunReport
	if err := DecodeStrict(data, &r); err != nil {
		return nil, fmt.Errorf("api/v1: decoding run report: %w", err)
	}
	if err := CheckHeader(r.Schema, r.Kind, KindRunReport); err != nil {
		return nil, err
	}
	return &r, nil
}

// DecodePredictedRace parses and validates an encoded predicted-race
// document.
func DecodePredictedRace(data []byte) (*PredictedRace, error) {
	var p PredictedRace
	if err := DecodeStrict(data, &p); err != nil {
		return nil, fmt.Errorf("api/v1: decoding predicted race: %w", err)
	}
	if err := CheckHeader(p.Schema, p.Kind, KindPredictedRace); err != nil {
		return nil, err
	}
	return &p, nil
}

// Validate checks that exactly one job source is set and the spec is
// internally consistent; servers and clients share this check.
func (s *JobSpec) Validate() error {
	sources := 0
	if s.Program != "" {
		sources++
	}
	if s.Litmus != "" {
		sources++
	}
	if s.Workload != nil {
		sources++
	}
	if s.GoSource != "" {
		sources++
	}
	if sources != 1 {
		return fmt.Errorf("api/v1: job must set exactly one of program, litmus, workload, gosource (got %d)", sources)
	}
	if len(s.GoSource) > MaxGoSourceBytes {
		return fmt.Errorf("api/v1: gosource is %d bytes, cap is %d", len(s.GoSource), MaxGoSourceBytes)
	}
	if s.Workload != nil && len(s.Schedule) > 0 {
		return fmt.Errorf("api/v1: schedule applies only to program/litmus jobs")
	}
	if s.Workload != nil && s.Workload.Name == "" {
		return fmt.Errorf("api/v1: workload job missing name")
	}
	if len(s.Schedule) > 0 && len(s.Seeds) > 0 {
		return fmt.Errorf("api/v1: a scheduled replay is seed-independent; schedule and seeds are exclusive")
	}
	if s.Detection != "" {
		known := false
		for _, n := range detectionNames {
			if s.Detection == n {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("api/v1: unknown detection %q (want one of %v)", s.Detection, detectionNames)
		}
		if s.Detection == DetectionPredict && s.Workload != nil {
			return fmt.Errorf("api/v1: predict applies only to program/litmus/gosource jobs")
		}
		if s.Detection == DetectionPredict && len(s.Schedule) > 0 {
			return fmt.Errorf("api/v1: predict records under the seeded scheduler; schedule and predict are exclusive")
		}
	}
	if s.DeadlineSeconds < 0 {
		return fmt.Errorf("api/v1: negative deadline_seconds %v", s.DeadlineSeconds)
	}
	return nil
}
