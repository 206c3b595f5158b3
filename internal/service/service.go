// Package service is the long-lived CLEAN detection service behind
// cmd/cleand: sessions carry a detection configuration, jobs submit
// programs (internal/prog text form), named litmus tests, Go source in
// the gofront-supported subset, scripted witness-replay schedules or
// benchmark stand-ins against it, and a
// bounded worker pool runs them through the same machine/detector stack
// the in-process API uses. Results are api/v1 documents — race witnesses,
// determinism hashes and, for metric-enabled sessions, full telemetry
// RunReports — and are byte-compatible with what the same configuration
// produces locally: the service adds transport, not semantics.
//
// Backpressure is explicit: the job queue is a bounded channel, a full
// queue rejects the submission (the HTTP layer maps that to 429 with a
// queue-depth-aware Retry-After), and Drain stops intake, lets queued
// and running jobs finish, and only then releases the workers — the
// SIGTERM path of cmd/cleand.
//
// Durability is pluggable: with a store.JobStore configured, every
// acknowledged submission is journaled (fsynced) before the 202 leaves
// the server, state transitions and results follow it, and a restarted
// server replays the journal, re-enqueues the jobs that were queued or
// running at crash time, and serves completed results from the store.
// Because runs are deterministic, a re-executed job reproduces its
// witness and determinism hash byte-identically — at-least-once
// execution with idempotency-key dedup looks exactly-once to clients.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	clean "repro"
	apiv1 "repro/api/v1"
	"repro/internal/faults"
	"repro/internal/gofront"
	"repro/internal/machine"
	"repro/internal/prog"
	"repro/internal/shadow"
	"repro/internal/staticrace"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Config sizes the server.
type Config struct {
	// Workers is the job worker pool size (default 2). Each worker runs
	// one job at a time; a job's multi-seed fan-out additionally
	// parallelizes across RunParallelism goroutines.
	Workers int
	// QueueDepth bounds the job queue (default 16). A submission finding
	// the queue full is rejected with ErrQueueFull.
	QueueDepth int
	// RunParallelism caps a single job's seed fan-out (default: Workers).
	RunParallelism int
	// DefaultMaxSteps is the per-run scheduler budget applied when a
	// session does not set one; it keeps a livelocked submission from
	// pinning a worker forever (default: machine.DefaultMaxSteps).
	DefaultMaxSteps uint64
	// RetryAfter is the base client backoff hint attached to queue-full
	// and store-failure rejections (default 1s); the advertised value
	// scales with queue occupancy.
	RetryAfter time.Duration
	// Store persists sessions, jobs and results; nil runs memory-only
	// (a crash loses everything, the pre-durability behavior).
	Store store.JobStore
	// Chaos is the service-level fault injector consulted by workers and
	// store writes; nil injects nothing. cmd/cleand -chaos arms it over
	// /debug/chaos.
	Chaos *faults.ServiceInjector
	// Logger receives the server's structured log lines (job lifecycle,
	// drain progress, HTTP access at debug level); nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.RunParallelism <= 0 {
		c.RunParallelism = c.Workers
	}
	if c.DefaultMaxSteps == 0 {
		c.DefaultMaxSteps = machine.DefaultMaxSteps
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Errors the transport layer maps onto HTTP statuses.
var (
	// ErrQueueFull rejects a submission because the job queue is at
	// capacity; clients should retry after Config.RetryAfter.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects a submission because the server is shutting
	// down.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrNotFound reports an unknown session or job id.
	ErrNotFound = errors.New("service: not found")
	// ErrSessionClosed rejects a submission to a closed session.
	ErrSessionClosed = errors.New("service: session closed")
)

// StoreError wraps a persistence failure on the submission path: the
// job was NOT accepted (nothing durable acknowledges it), so the
// transport maps it to 503 with Retry-After and the client retries —
// safely, because retried submissions carry idempotency keys.
type StoreError struct{ Err error }

func (e *StoreError) Error() string { return "service: store: " + e.Err.Error() }
func (e *StoreError) Unwrap() error { return e.Err }

// BadRequestError wraps a request-shape problem (invalid config, invalid
// job spec) so the transport can map it to 400.
type BadRequestError struct{ Err error }

func (e *BadRequestError) Error() string { return e.Err.Error() }
func (e *BadRequestError) Unwrap() error { return e.Err }

func badRequest(format string, args ...interface{}) error {
	return &BadRequestError{Err: fmt.Errorf(format, args...)}
}

// session is the server-side state of one detection session.
type session struct {
	id        string
	cfg       apiv1.SessionConfig
	detection clean.Detection
	state     string // "active" or "closed"
	jobs      map[string]*job
	byKey     map[string]*job // idempotency key → job
	submitted int
	done      int
}

// job is the server-side state of one submitted job.
type job struct {
	id       string
	sess     *session
	spec     apiv1.JobSpec
	idemKey  string
	prog     *prog.Program // resolved program for program/litmus jobs; nil once done
	state    string        // apiv1.JobQueued / JobRunning / JobDone
	attempts int           // executions started (2 after a panic requeue)
	accepted time.Time
	deadline time.Time // zero = no wall-clock deadline
	panicVal interface{}
	runs     []apiv1.RunResult // replaced whole, never mutated in place; store records share it
	marks    []traceMark       // lifecycle trace, guarded by Server.mu
	done     chan struct{}     // closed when state reaches JobDone

	// The durable-acknowledgment handshake: ack closes once the
	// submission's store write has resolved, acked says whether it
	// succeeded. A duplicate submission that races the original's fsync
	// waits on ack instead of vouching for a job that may yet be unwound.
	acked bool
	ack   chan struct{}
}

// closedAck is the pre-resolved ack channel for jobs that never had a
// pending store write (recovered from the journal).
var closedAck = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// expired reports whether the job's wall-clock deadline has passed.
func (j *job) expired() bool {
	return !j.deadline.IsZero() && time.Now().After(j.deadline)
}

// Server owns the sessions, the job queue and the worker pool. All
// methods are safe for concurrent use.
type Server struct {
	cfg     Config
	store   store.JobStore          // nil = memory only
	chaos   *faults.ServiceInjector // nil = no injection
	log     *slog.Logger
	started time.Time
	tline   *serverTimeline

	mu        sync.Mutex
	sessions  map[string]*session
	nextSess  int
	nextJob   int
	draining  bool
	reserved  int // submissions past the capacity check, not yet enqueued
	recovered int // jobs re-enqueued from the store at boot

	queue     chan *job
	inFlight  sync.WaitGroup // accepted jobs not yet done
	workers   sync.WaitGroup
	closeOnce sync.Once

	// The server's own registry counts sessions, submissions, rejections
	// and runs; the telemetry registry is single-threaded by design, so
	// every touch goes through metricsMu — as do the worker-utilization
	// accumulators beside it.
	metricsMu   sync.Mutex
	metrics     *clean.Metrics
	busyWorkers int
	busySeconds float64
}

// New builds a server — recovering state from the configured store, if
// any — and starts its worker pool.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.workers.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker(i)
	}
	return s
}

// newServer builds the server without starting workers; tests use it to
// exercise queue saturation deterministically. With a store configured
// it replays the journal and re-enqueues interrupted jobs.
func newServer(cfg Config) *Server {
	s := &Server{
		cfg:      cfg.withDefaults(),
		sessions: make(map[string]*session),
		metrics:  clean.NewMetrics(),
		started:  time.Now(),
	}
	s.log = s.cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.tline = newServerTimeline(s.started, s.cfg.Workers)
	// Pre-register the headline latency histogram so a scrape of a
	// fresh server already carries its TYPE and bucket structure —
	// Prometheus convention is that instruments exist at zero rather
	// than appearing after the first event.
	s.metrics.Histogram("service.job_seconds", jobLatencyBuckets...)
	s.store = s.cfg.Store
	s.chaos = s.cfg.Chaos
	if s.store != nil && s.chaos != nil {
		s.store = chaosStore{JobStore: s.store, si: s.chaos}
	}

	var requeue []*job
	if s.store != nil {
		requeue = s.recover(s.store.State())
	}
	depth := s.cfg.QueueDepth
	// The recovered backlog must fit: boot enqueue never blocks and
	// never drops an acknowledged job.
	if len(requeue) > depth {
		depth = len(requeue)
	}
	s.queue = make(chan *job, depth)
	for _, j := range requeue {
		s.inFlight.Add(1)
		s.queue <- j
	}
	s.recovered = len(requeue)
	return s
}

// recover rebuilds sessions and jobs from the store's replayed state
// and returns the jobs to re-enqueue: everything acknowledged but not
// done at crash time, in submission order. Done jobs keep their results
// and stay pollable; a job whose spec no longer resolves (a renamed
// litmus, say) completes with an error result rather than vanishing.
func (s *Server) recover(st *store.State) []*job {
	for _, sr := range st.Sessions {
		sess := &session{
			id:    sr.ID,
			cfg:   sr.Config,
			state: sr.State,
			jobs:  make(map[string]*job),
			byKey: make(map[string]*job),
		}
		det, err := clean.ParseDetection(sr.Config.Detection)
		if err != nil {
			// The journal predates a detector rename; the session cannot
			// run new jobs but its documents stay readable.
			sess.state = "closed"
		} else {
			sess.detection = det
		}
		s.sessions[sess.id] = sess
	}
	var requeue []*job
	for _, jr := range st.Jobs {
		sess, ok := s.sessions[jr.Session]
		if !ok {
			continue // a job record without its session record cannot run
		}
		j := &job{
			id:       jr.ID,
			sess:     sess,
			spec:     jr.Spec,
			idemKey:  jr.IdempotencyKey,
			state:    jr.State,
			attempts: jr.Attempts,
			accepted: time.Now(),
			runs:     jr.Runs,
			done:     make(chan struct{}),
			acked:    true, // replayed from the journal: durable by definition
			ack:      closedAck,
		}
		if jr.Spec.DeadlineSeconds > 0 {
			// The original acceptance time is gone with the crash; restart
			// the budget so recovery itself cannot expire every job.
			j.deadline = j.accepted.Add(time.Duration(jr.Spec.DeadlineSeconds * float64(time.Second)))
		}
		sess.jobs[j.id] = j
		if j.idemKey != "" {
			sess.byKey[j.idemKey] = j
		}
		sess.submitted++
		switch jr.State {
		case apiv1.JobDone:
			sess.done++
			close(j.done)
		default: // queued or running at crash time: run it (again)
			j.state = apiv1.JobQueued
			if p, err := s.resolveSpec(j.spec); err != nil {
				j.state = apiv1.JobDone
				j.runs = []apiv1.RunResult{{
					Outcome: apiv1.OutcomeError,
					Error:   fmt.Sprintf("service: recovered job no longer runnable: %v", err),
				}}
				sess.done++
				close(j.done)
			} else {
				j.prog = p
				// The original trace died with the crash; the re-run's
				// trace starts at the re-enqueue.
				j.mark(phaseQueued, j.accepted)
				requeue = append(requeue, j)
			}
		}
	}
	s.nextSess = st.NextSession
	s.nextJob = st.NextJob
	return requeue
}

// chaosStore fails store appends on command from the service injector.
type chaosStore struct {
	store.JobStore
	si *faults.ServiceInjector
}

func (c chaosStore) PutSession(rec store.SessionRecord, durable bool) error {
	if err := c.si.StoreErr(); err != nil {
		return err
	}
	return c.JobStore.PutSession(rec, durable)
}

func (c chaosStore) PutJob(rec store.JobRecord, durable bool) error {
	if err := c.si.StoreErr(); err != nil {
		return err
	}
	return c.JobStore.PutJob(rec, durable)
}

// putSession persists the session's current state; callers must NOT
// hold s.mu (the store fsyncs).
func (s *Server) putSession(sess *session, durable bool) error {
	if s.store == nil {
		return nil
	}
	s.mu.Lock()
	rec := store.SessionRecord{ID: sess.id, State: sess.state, Config: sess.cfg}
	s.mu.Unlock()
	return s.store.PutSession(rec, durable)
}

// putJob persists the job's current state; callers must NOT hold s.mu.
func (s *Server) putJob(j *job, durable bool) error {
	if s.store == nil {
		return nil
	}
	s.mu.Lock()
	rec := store.JobRecord{
		ID:             j.id,
		Session:        j.sess.id,
		IdempotencyKey: j.idemKey,
		Spec:           j.spec,
		State:          j.state,
		Attempts:       j.attempts,
		Runs:           j.runs,
	}
	s.mu.Unlock()
	return s.store.PutJob(rec, durable)
}

// putJobBestEffort persists a non-critical transition (running, done):
// a failure is counted, not surfaced — the in-memory state is correct
// and a crash merely re-runs a deterministic job.
func (s *Server) putJobBestEffort(j *job, durable bool) {
	if err := s.putJob(j, durable); err != nil {
		s.count("service.store_errors")
	}
}

func (s *Server) count(name string) {
	s.metricsMu.Lock()
	s.metrics.Counter(name).Inc()
	s.metricsMu.Unlock()
}

// CreateSession validates the configuration and opens a session. The
// whole configuration is vetted here — through the same option
// constructors in-process callers use — so every later job submission
// runs under a known-good config.
func (s *Server) CreateSession(cfg apiv1.SessionConfig) (*apiv1.Session, error) {
	if cfg.Detection == "" {
		return nil, badRequest("config.detection required: state %q explicitly to run without detection", apiv1.DetectionNone)
	}
	det, err := clean.ParseDetection(cfg.Detection)
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}
	if _, err := clean.NewConfig(s.runOptions(cfg, det, cfg.Seed, s.effMaxSteps(cfg, 0))...); err != nil {
		return nil, &BadRequestError{Err: err}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.nextSess++
	sess := &session{
		id:        fmt.Sprintf("s-%d", s.nextSess),
		cfg:       cfg,
		detection: det,
		state:     "active",
		jobs:      make(map[string]*job),
		byKey:     make(map[string]*job),
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()

	// Durable before acknowledged: a session the client can submit to
	// must survive a crash, or its recovered jobs would be orphans.
	if err := s.putSession(sess, true); err != nil {
		s.mu.Lock()
		delete(s.sessions, sess.id)
		s.mu.Unlock()
		s.count("service.store_errors")
		return nil, &StoreError{Err: err}
	}
	s.count("service.sessions_created")
	s.log.Info("session created", "session", sess.id, "detection", cfg.Detection)
	s.mu.Lock()
	defer s.mu.Unlock()
	return sess.v1(), nil
}

// Session returns the session document.
func (s *Server) Session(id string) (*apiv1.Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: session %s", ErrNotFound, id)
	}
	return sess.v1(), nil
}

// CloseSession marks the session closed. Its jobs remain readable;
// further submissions are rejected.
func (s *Server) CloseSession(id string) (*apiv1.Session, error) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: session %s", ErrNotFound, id)
	}
	sess.state = "closed"
	doc := sess.v1()
	s.mu.Unlock()
	// Best-effort: losing a "closed" transition merely reopens intake on
	// a session after a crash, which is harmless.
	if err := s.putSession(sess, false); err != nil {
		s.count("service.store_errors")
	}
	return doc, nil
}

// resolveSpec turns a validated job spec into its program, nil for
// workload jobs. Shared by the submission path and crash recovery.
func (s *Server) resolveSpec(spec apiv1.JobSpec) (*prog.Program, error) {
	var p *prog.Program
	switch {
	case spec.Litmus != "":
		lit := prog.LitmusByName(spec.Litmus)
		if lit == nil {
			return nil, badRequest("unknown litmus %q", spec.Litmus)
		}
		p = lit.P
	case spec.Program != "":
		var err error
		if p, err = prog.Parse(strings.NewReader(spec.Program)); err != nil {
			return nil, &BadRequestError{Err: err}
		}
	case spec.GoSource != "":
		// The gofront diagnostics carry file:line:column positions; the
		// 400 envelope surfaces them verbatim so the client can fix the
		// source without a local toolchain.
		gp, err := gofront.LoadSource("gosource.go", []byte(spec.GoSource))
		if err != nil {
			return nil, &BadRequestError{Err: err}
		}
		p = gp.Prog
	default: // workload
		switch spec.Workload.Variant {
		case "", "modified", "unmodified":
		default:
			return nil, badRequest("workload variant %q (want \"modified\" or \"unmodified\")", spec.Workload.Variant)
		}
	}
	if len(spec.Schedule) > 0 && p != nil {
		for _, w := range spec.Schedule {
			if w < 0 || w >= len(p.Threads) {
				return nil, badRequest("schedule names worker %d; program has %d workers", w, len(p.Threads))
			}
		}
	}
	return p, nil
}

// Submit validates the job spec, resolves its program source, persists
// the job durably (when a store is configured) and enqueues it. A full
// queue fails fast with ErrQueueFull — the submission is not blocked,
// dropped or silently truncated. A non-empty idemKey deduplicates: a
// repeat submission to the same session returns the original job.
//
// The acknowledgment contract: once Submit returns a job document, the
// job is on stable storage and survives a crash of the process.
func (s *Server) Submit(sessionID string, spec apiv1.JobSpec, idemKey string) (*apiv1.Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, &BadRequestError{Err: err}
	}
	p, err := s.resolveSpec(spec)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	var sess *session
	for {
		if s.draining {
			s.mu.Unlock()
			s.count("service.jobs_rejected")
			return nil, ErrDraining
		}
		var ok bool
		sess, ok = s.sessions[sessionID]
		if !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: session %s", ErrNotFound, sessionID)
		}
		if sess.state != "active" {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: session %s", ErrSessionClosed, sessionID)
		}
		if idemKey != "" {
			if dup, ok := sess.byKey[idemKey]; ok {
				// Answer from the original only once its durable write has
				// resolved: acking a duplicate while the original's fsync is
				// still in flight would hand out a 202 for a job that may yet
				// be unwound. Wait out the race, then re-check — on a store
				// failure the key is gone and this submission takes over.
				if !dup.acked {
					ch := dup.ack
					s.mu.Unlock()
					<-ch
					s.mu.Lock()
					continue
				}
				doc := dup.v1()
				s.mu.Unlock()
				s.count("service.jobs_deduped")
				return doc, nil
			}
		}
		break
	}
	// Reserve queue capacity before the (lock-free) durable write:
	// len(queue)+reserved never exceeds cap, so the enqueue below cannot
	// block and concurrent submissions cannot oversubscribe the queue.
	// The reservation also joins inFlight so a concurrent Drain cannot
	// close the queue under a submission that already passed its
	// draining check.
	if len(s.queue)+s.reserved >= cap(s.queue) {
		s.mu.Unlock()
		s.count("service.jobs_rejected")
		return nil, ErrQueueFull
	}
	s.reserved++
	s.inFlight.Add(1)
	s.nextJob++
	now := time.Now()
	j := &job{
		id:       fmt.Sprintf("j-%d", s.nextJob),
		sess:     sess,
		spec:     spec,
		idemKey:  idemKey,
		prog:     p,
		state:    apiv1.JobQueued,
		accepted: now,
		done:     make(chan struct{}),
		ack:      make(chan struct{}),
	}
	if spec.DeadlineSeconds > 0 {
		j.deadline = now.Add(time.Duration(spec.DeadlineSeconds * float64(time.Second)))
	}
	j.mark(phaseJournaled, now)
	sess.jobs[j.id] = j
	if idemKey != "" {
		sess.byKey[idemKey] = j
	}
	sess.submitted++
	s.mu.Unlock()

	// Durable before acknowledged. On failure the job is unwound as if
	// it never existed: nothing was enqueued, nothing acknowledged —
	// duplicates parked on j.ack re-check and find the key released.
	if err := s.putJob(j, true); err != nil {
		s.mu.Lock()
		s.reserved--
		delete(sess.jobs, j.id)
		if idemKey != "" {
			delete(sess.byKey, idemKey)
		}
		sess.submitted--
		close(j.ack)
		s.mu.Unlock()
		s.inFlight.Done()
		s.count("service.store_errors")
		s.count("service.jobs_rejected")
		return nil, &StoreError{Err: err}
	}

	ackAt := time.Now()
	s.mu.Lock()
	s.reserved--
	j.acked = true
	close(j.ack)
	j.mark(phaseQueued, ackAt)
	s.queue <- j // cannot block: the reservation held our slot
	doc := j.v1()
	s.mu.Unlock()
	s.tline.span(tidIntake, j.id, phaseJournaled, now, ackAt)
	s.count("service.jobs_submitted")
	s.log.Info("job accepted", "job", j.id, "session", sessionID,
		"kind", jobKind(spec), "journal_wait_seconds", ackAt.Sub(now).Seconds())
	return doc, nil
}

// Job returns the job document; with wait > 0 it blocks up to that long
// for the job to finish first (long-poll).
func (s *Server) Job(sessionID, jobID string, wait time.Duration) (*apiv1.Job, error) {
	s.mu.Lock()
	sess, ok := s.sessions[sessionID]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: session %s", ErrNotFound, sessionID)
	}
	j, ok := sess.jobs[jobID]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: job %s in session %s", ErrNotFound, jobID, sessionID)
	}
	s.mu.Unlock()

	if wait > 0 {
		select {
		case <-j.done:
		case <-time.After(wait):
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.v1(), nil
}

// RetryAfter is the configured base backoff hint.
func (s *Server) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// RetryAfterSeconds is the backoff the transport advertises on
// queue-full and store-failure rejections: the configured base scaled
// by queue occupancy, so a saturated server sheds load harder than a
// briefly-full one. An empty queue advertises the base; a full queue
// twice the base; always at least 1s.
func (s *Server) RetryAfterSeconds() int {
	s.mu.Lock()
	depth := len(s.queue) + s.reserved
	// cap(queue), not cfg.QueueDepth: boot recovery enlarges the channel
	// when the replayed backlog exceeds the configured depth, and the
	// occupancy ratio must reflect the real capacity.
	qcap := cap(s.queue)
	s.mu.Unlock()
	base := s.cfg.RetryAfter.Seconds()
	secs := int(math.Ceil(base * (1 + float64(depth)/float64(qcap))))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Chaos returns the service-level fault injector, nil when disabled.
func (s *Server) Chaos() *faults.ServiceInjector { return s.chaos }

// Health reports queue occupancy, durability and drain state.
func (s *Server) Health() *apiv1.Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	return &apiv1.Health{
		Schema:        apiv1.SchemaVersion,
		Kind:          apiv1.KindHealth,
		Status:        status,
		Sessions:      len(s.sessions),
		QueueDepth:    len(s.queue) + s.reserved,
		QueueCap:      cap(s.queue),
		Workers:       s.cfg.Workers,
		Durable:       s.store != nil,
		RecoveredJobs: s.recovered,
		StartedAt:     s.started.UTC().Format(time.RFC3339Nano),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
}

// collectSnapshot samples the live instruments (queue occupancy,
// process runtime stats, uptime) into the registry and returns its
// snapshot merged with the store's telemetry — the one source both
// /metrics representations serialize.
func (s *Server) collectSnapshot() telemetry.Snapshot {
	s.mu.Lock()
	depth := len(s.queue) + s.reserved
	qcap := cap(s.queue)
	sessions := len(s.sessions)
	s.mu.Unlock()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	dropped := s.tline.droppedEvents()

	s.metricsMu.Lock()
	s.metrics.Gauge("service.queue_depth").Set(float64(depth))
	s.metrics.Gauge("service.queue_cap").Set(float64(qcap))
	s.metrics.Gauge("service.queue_occupancy").Set(float64(depth) / float64(qcap))
	s.metrics.Gauge("service.sessions_active").Set(float64(sessions))
	s.metrics.Gauge("service.workers").Set(float64(s.cfg.Workers))
	s.metrics.Gauge("service.worker_busy_seconds").Set(s.busySeconds)
	s.metrics.Gauge("service.trace_dropped_events").Set(float64(dropped))
	s.metrics.Gauge("process.uptime_seconds").Set(time.Since(s.started).Seconds())
	s.metrics.Gauge("process.goroutines").Set(float64(runtime.NumGoroutine()))
	s.metrics.Gauge("process.heap_alloc_bytes").Set(float64(ms.HeapAlloc))
	s.metrics.Gauge("process.heap_sys_bytes").Set(float64(ms.HeapSys))
	s.metrics.Gauge("process.gc_runs").Set(float64(ms.NumGC))
	// Shadow-memory footprint: live pages/lines across in-flight jobs
	// (job paths release on completion, so under steady load this tracks
	// concurrent work, not cumulative traffic) plus the page free list.
	// The pool hit rate is the recycling working: near 1.0 in steady
	// state means ~zero shadow page allocation per job.
	sh := shadow.Global()
	s.metrics.Gauge("shadow.mapped_pages").Set(float64(sh.MappedPages))
	s.metrics.Gauge("shadow.metadata_bytes").Set(float64(sh.MetadataBytes))
	s.metrics.Gauge("shadow.lines_compact").Set(float64(sh.LinesCompact))
	s.metrics.Gauge("shadow.lines_expanded").Set(float64(sh.LinesExpanded))
	s.metrics.Gauge("shadow.pool_pages").Set(float64(sh.PoolPages))
	s.metrics.Gauge("shadow.pool_retained_bytes").Set(float64(sh.PoolRetainedBytes))
	s.metrics.Gauge("shadow.pool_hits").Set(float64(sh.PoolHits))
	s.metrics.Gauge("shadow.pool_misses").Set(float64(sh.PoolMisses))
	s.metrics.Gauge("shadow.pool_hit_rate").Set(sh.HitRate())
	snap := s.metrics.Snapshot()
	s.metricsMu.Unlock()

	if s.store != nil {
		mergeSnapshot(&snap, s.store.Metrics())
	}
	return snap
}

// Metrics snapshots the server's registry — live queue/worker/process
// gauges sampled at collection time, the store's journal telemetry
// merged in — as the timestamped /metrics JSON document.
func (s *Server) Metrics() *apiv1.Metrics {
	return &apiv1.Metrics{
		Schema:      apiv1.SchemaVersion,
		Kind:        apiv1.KindMetrics,
		CollectedAt: time.Now().UTC().Format(time.RFC3339Nano),
		Metrics:     s.collectSnapshot(),
	}
}

// JobsCompleted is the lifetime count of jobs run to completion —
// cmd/cleand samples it around Drain to report how many jobs finished
// during the drain window.
func (s *Server) JobsCompleted() uint64 {
	s.metricsMu.Lock()
	defer s.metricsMu.Unlock()
	return s.metrics.Counter("service.jobs_completed").Value()
}

// Drain stops intake (submissions fail with ErrDraining), waits for
// every accepted job — queued or running — to finish, then shuts the
// worker pool down. It is idempotent; ctx bounds the wait.
func (s *Server) Drain(ctx context.Context) error {
	start := time.Now()
	s.mu.Lock()
	already := s.draining
	s.draining = true
	depth := len(s.queue) + s.reserved
	s.mu.Unlock()
	if !already {
		s.log.Info("drain started", "queue_depth", depth)
	}

	done := make(chan struct{})
	go func() {
		s.inFlight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.log.Warn("drain timed out", "seconds", time.Since(start).Seconds(), "err", ctx.Err())
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
	// No submissions can be in progress past this point: Submit checks
	// draining under mu before touching the queue.
	s.closeOnce.Do(func() { close(s.queue) })
	s.workers.Wait()
	s.log.Info("drain finished", "seconds", time.Since(start).Seconds())
	return nil
}

// worker consumes jobs until the queue is closed by Drain. id names the
// worker's track on the server timeline.
func (s *Server) worker(id int) {
	defer s.workers.Done()
	for j := range s.queue {
		s.runOne(j, id)
	}
}

// beginBusy/endBusy maintain the worker-utilization instruments: the
// current busy-worker gauge and the accumulated busy-seconds total
// (utilization = busy_seconds / (uptime × workers)).
func (s *Server) beginBusy() {
	s.metricsMu.Lock()
	s.busyWorkers++
	s.metrics.Gauge("service.workers_busy").Set(float64(s.busyWorkers))
	s.metricsMu.Unlock()
}

func (s *Server) endBusy(elapsed float64) {
	s.metricsMu.Lock()
	s.busyWorkers--
	s.busySeconds += elapsed
	s.metrics.Gauge("service.workers_busy").Set(float64(s.busyWorkers))
	s.metrics.Gauge("service.worker_busy_seconds").Set(s.busySeconds)
	s.metricsMu.Unlock()
}

// runOne executes a dequeued job end to end: chaos stall, panic
// containment with a single requeue, persistence of the transitions,
// and completion accounting. It owns the job's inFlight token.
func (s *Server) runOne(j *job, worker int) {
	// An injected stall window holds the worker idle in short slices
	// (so Drain stays responsive), building real queue pressure. The
	// stall counts as queue time on the job's trace.
	for {
		d := s.chaos.StallRemaining()
		if d <= 0 {
			break
		}
		if d > 25*time.Millisecond {
			d = 25 * time.Millisecond
		}
		time.Sleep(d)
	}

	runAt := time.Now()
	s.mu.Lock()
	j.state = apiv1.JobRunning
	j.attempts++
	attempt := j.attempts
	queuedAt := j.lastMarkAt() // the queued (or requeued) mark
	j.mark(phaseRunning, runAt)
	s.mu.Unlock()
	if !queuedAt.IsZero() {
		s.tline.span(tidQueue, j.id, phaseQueued, queuedAt, runAt)
	}
	s.beginBusy()
	defer func() { s.endBusy(time.Since(runAt).Seconds()) }()
	s.putJobBestEffort(j, false)

	runs, panicked := s.runContained(j)
	if panicked {
		s.count("service.worker_panics")
		s.log.Warn("worker panic contained", "job", j.id, "worker", worker,
			"attempt", attempt, "panic", fmt.Sprint(j.panicVal))
		s.tline.instant(tidWorker(worker), j.id+" panic", "panic", time.Now())
		if attempt == 1 {
			// One requeue: back of the queue when there is room (other
			// jobs make progress first), in-place retry when there isn't.
			// Either way the job keeps its inFlight token, so Drain still
			// waits for it and the queue cannot close underneath us.
			s.count("service.jobs_requeued")
			requeueAt := time.Now()
			s.mu.Lock()
			j.state = apiv1.JobQueued
			if len(s.queue)+s.reserved < cap(s.queue) {
				j.mark(phaseRequeued, requeueAt)
				s.queue <- j
				s.mu.Unlock()
				s.tline.span(tidWorker(worker), j.id, phaseRunning, runAt, requeueAt)
				s.putJobBestEffort(j, false)
				s.log.Info("job requeued after panic", "job", j.id, "worker", worker)
				return
			}
			j.state = apiv1.JobRunning
			j.attempts++
			// In-place retry: a fresh running span, so the trace still
			// tells the two attempts apart.
			j.mark(phaseRunning, requeueAt)
			s.mu.Unlock()
			runs, panicked = s.runContained(j)
		}
		if panicked {
			// Second panic: the job fails loudly with a structured error
			// instead of looping through the queue forever.
			runs = []apiv1.RunResult{{
				Outcome: apiv1.OutcomeContainedCrash,
				Error: fmt.Sprintf("service: worker panic running job %s (attempt %d of 2): %v",
					j.id, j.attempts, j.panicVal),
			}}
		}
	}

	storedAt := time.Now()
	s.mu.Lock()
	j.runs = runs
	j.state = apiv1.JobDone
	j.prog = nil // a done job never runs again; only a requeue needs it
	j.sess.done++
	attempts := j.attempts
	j.mark(phaseStored, storedAt)
	s.mu.Unlock()
	// Results are appended durably: a crash after this fsync serves them
	// from the store; a crash before it deterministically recomputes
	// them. Failure is absorbed — the in-memory result stands.
	s.putJobBestEffort(j, true)
	doneAt := time.Now()
	s.mu.Lock()
	j.mark(phaseDone, doneAt)
	s.mu.Unlock()
	close(j.done)
	s.tline.span(tidWorker(worker), j.id, phaseRunning, runAt, storedAt)
	s.tline.span(tidWorker(worker), j.id, phaseStored, storedAt, doneAt)
	latency := doneAt.Sub(j.accepted).Seconds()
	outcome := jobOutcome(runs)
	kind := jobKind(j.spec)
	s.metricsMu.Lock()
	s.metrics.Counter("service.jobs_completed").Inc()
	s.metrics.Histogram("service.job_seconds", jobLatencyBuckets...).Observe(latency)
	s.metrics.Histogram(
		telemetry.LabeledName("service.job_seconds_by", "kind", kind, "outcome", outcome),
		jobLatencyBuckets...).Observe(latency)
	s.metricsMu.Unlock()
	s.log.Info("job done", "job", j.id, "session", j.sess.id, "worker", worker,
		"outcome", outcome, "attempts", attempts, "seconds", latency)
	s.inFlight.Done()
}

// jobLatencyBuckets spans 1ms to ~2min exponentially — the /metrics
// p50/p95/p99 source for accepted-to-done job latency.
var jobLatencyBuckets = []float64{
	0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 30, 60, 120,
}

// runContained runs every run of the job, converting a worker panic
// (a detector bug, an injected chaos panic) into a contained failure
// instead of taking the process — and with it every in-flight job —
// down.
func (s *Server) runContained(j *job) (runs []apiv1.RunResult, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			j.panicVal = r
			runs, panicked = nil, true
		}
	}()
	if s.chaos.PanicJob() {
		panic("chaos: injected worker panic")
	}
	return s.runJob(j), false
}

// deadlineResult is the structured error a run that never started gets
// when the job's wall-clock deadline passed first.
func deadlineResult(j *job, seed int64) apiv1.RunResult {
	return apiv1.RunResult{
		Seed:    seed,
		Outcome: apiv1.OutcomeDeadline,
		Error: fmt.Sprintf("service: job %s deadline (%gs from acceptance) exceeded before the run started",
			j.id, j.spec.DeadlineSeconds),
	}
}

// runJob executes every run of a job and returns the results in seed
// order. Run-level failures (an unknown workload scale, a config the
// per-job seed invalidates) land in the result's Outcome/Error — the job
// itself always completes. The deadline contract: every run is bounded
// deterministically by MaxSteps, and runs that have not started when
// the wall-clock deadline passes (queue wait counts) are cut off with
// OutcomeDeadline instead of pinning a worker.
func (s *Server) runJob(j *job) []apiv1.RunResult {
	maxSteps := s.effMaxSteps(j.sess.cfg, j.spec.MaxSteps)
	det := s.effDetection(j)
	seeds := j.spec.Seeds
	switch {
	case len(j.spec.Schedule) > 0:
		// The schedule fixes the interleaving: one run, reported without
		// a seed.
		seeds = []int64{0}
	case len(seeds) == 0:
		seeds = []int64{j.sess.cfg.Seed}
	}
	par := s.cfg.RunParallelism
	if par > len(seeds) {
		par = len(seeds)
	}
	// Fan the independent per-seed runs out; each run builds its own
	// machine, so they share nothing.
	results := stats.ForEachIndexed(par, len(seeds), func(i int) apiv1.RunResult {
		switch {
		case j.expired():
			return deadlineResult(j, seeds[i])
		case det == clean.DetectPredict && j.prog == nil:
			// JobSpec.Validate rejects predict+workload at submission;
			// this catches sessions opened in predict mode.
			return errorResult(seeds[i], errors.New("predict mode needs a program-backed job (program, litmus or go_source)"))
		default:
			return s.run(j, det, seeds[i], maxSteps)
		}
	})
	for _, r := range results {
		if r.Outcome == apiv1.OutcomeDeadline {
			s.count("service.jobs_deadline_exceeded")
			break
		}
	}
	s.metricsMu.Lock()
	s.metrics.Counter("service.runs_total").Add(uint64(len(results)))
	s.metricsMu.Unlock()
	return results
}

// effDetection resolves a job's detection mode: the spec's per-job
// override when present (already vetted by JobSpec.Validate at
// submission), else the session's mode.
func (s *Server) effDetection(j *job) clean.Detection {
	if j.spec.Detection != "" {
		if d, err := clean.ParseDetection(j.spec.Detection); err == nil {
			return d
		}
	}
	return j.sess.detection
}

// effMaxSteps resolves the per-run scheduler budget: job override, then
// session, then the server default.
func (s *Server) effMaxSteps(sc apiv1.SessionConfig, jobMax uint64) uint64 {
	if jobMax > 0 {
		return jobMax
	}
	if sc.MaxSteps > 0 {
		return sc.MaxSteps
	}
	return s.cfg.DefaultMaxSteps
}

// runOptions translates a session config onto the facade's functional
// options — the same constructors local callers use, so a remote run is
// the same run. maxSteps arrives pre-resolved (effMaxSteps) so per-job
// overrides flow through unchanged. A metric-enabled session gets a fresh
// registry per call: the registry is single-threaded and runs fan out.
func (s *Server) runOptions(sc apiv1.SessionConfig, det clean.Detection, seed int64, maxSteps uint64) []clean.Option {
	opts := []clean.Option{
		clean.WithDetection(det),
		clean.WithSeed(seed),
		clean.WithDeterministicSync(sc.DetSync),
		clean.WithMaxSteps(maxSteps),
	}
	if sc.YieldEvery > 0 {
		opts = append(opts, clean.WithYieldEvery(sc.YieldEvery))
	}
	if sc.ClockBits != 0 || sc.TIDBits != 0 {
		opts = append(opts, clean.WithEpochLayout(sc.ClockBits, sc.TIDBits))
	}
	if sc.DisableMultibyteOpt {
		opts = append(opts, clean.WithoutMultibyteOpt())
	}
	if sc.Metrics {
		opts = append(opts, clean.WithMetrics(clean.NewMetrics()))
	}
	return opts
}

func errorResult(seed int64, err error) apiv1.RunResult {
	return apiv1.RunResult{Seed: seed, Outcome: apiv1.OutcomeError, Error: err.Error()}
}

// run is the one detection path: the job's program (replayed under its
// schedule, if any) or workload, run once through the facade under the
// session's options and converted into the v1 result. A predict run's
// certified races read like a detection: the first one's witness and
// hash are the run's. A predict run that certified none carries no hash.
func (s *Server) run(j *job, det clean.Detection, seed int64, maxSteps uint64) apiv1.RunResult {
	cfg, err := clean.NewConfig(s.runOptions(j.sess.cfg, det, seed, maxSteps)...)
	if err != nil {
		return errorResult(seed, err)
	}
	var rep *clean.Report
	if j.prog != nil {
		rep, err = clean.RunProgram(j.prog, cfg, j.spec.Schedule...)
	} else {
		w := j.spec.Workload
		scale := w.Scale
		if scale == "" {
			scale = "test"
		}
		rep, err = clean.RunWorkload(w.Name, scale, w.Variant == "modified", cfg)
	}
	if err != nil {
		return errorResult(seed, err)
	}
	res := apiv1.RunResult{
		Seed:           seed,
		Outcome:        clean.OutcomeOf(rep.Err),
		FinalCounters:  rep.FinalCounters,
		ElapsedSeconds: rep.Elapsed.Seconds(),
	}
	if rep.Err != nil {
		res.Error = rep.Err.Error()
		res.Witness = witnessOf(rep.Err)
	} else if rep.Prediction == nil {
		res.DeterminismHash = telemetry.FormatHash(rep.OutputHash)
	}
	if res.Witness != nil && len(j.spec.Schedule) > 0 {
		// Unified witness shape: a scheduled replay's evidence carries the
		// sequential composition that produced it, same as predict's
		// certified reorderings and staticrace's static witnesses.
		res.Witness.Schedule = staticrace.V1Schedule(j.prog, j.spec.Schedule...)
	}
	if pr := rep.Prediction; pr != nil && len(pr.Predictions) > 0 {
		res.Outcome = apiv1.OutcomeRaceException
		res.Predicted = pr.V1(nil)
		res.Witness = res.Predicted[0].Witness
		res.DeterminismHash = res.Predicted[0].DeterminismHash
	}
	res.Report = rep.Telemetry
	return res
}

// witnessOf extracts the race witness from a run error, nil for
// non-race failures.
func witnessOf(err error) *apiv1.RaceWitness {
	var re *clean.RaceError
	if !errors.As(err, &re) {
		return nil
	}
	return &apiv1.RaceWitness{
		Kind:      re.Kind.String(),
		Addr:      re.Addr,
		Size:      re.Size,
		TID:       re.TID,
		SFR:       re.SFR,
		PrevTID:   re.PrevTID,
		PrevClock: re.PrevClock,
		Detector:  re.Detector,
	}
}

func (sess *session) v1() *apiv1.Session {
	return &apiv1.Session{
		Schema:        apiv1.SchemaVersion,
		Kind:          apiv1.KindSession,
		ID:            sess.id,
		State:         sess.state,
		Config:        sess.cfg,
		JobsSubmitted: sess.submitted,
		JobsDone:      sess.done,
	}
}

// v1 renders the job document. Caller holds s.mu (or the job is done,
// after which runs/state no longer change).
func (j *job) v1() *apiv1.Job {
	doc := &apiv1.Job{
		Schema:         apiv1.SchemaVersion,
		Kind:           apiv1.KindJob,
		ID:             j.id,
		Session:        j.sess.id,
		State:          j.state,
		Spec:           j.spec,
		IdempotencyKey: j.idemKey,
		Attempts:       j.attempts,
	}
	doc.Runs = append(doc.Runs, j.runs...)
	doc.Trace = j.traceV1()
	return doc
}
