// Job lifecycle tracing: every job records the instant each phase of
// its life starts (journaled → queued → running → stored → done, with
// requeued spliced in after a contained panic), and the server keeps a
// bounded Perfetto timeline of the same transitions across all jobs.
//
// The span model is deliberate: a mark names the phase that STARTS at
// that instant, and a span's duration is the gap to the next mark, so
// the spans of a done job are contiguous and sum exactly to its
// received→done latency — "where did the time go" has a closed-form
// answer.
package service

import (
	"fmt"
	"io"
	"sync"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/telemetry"
)

// Lifecycle phase names, also the span names in the Job DTO trace.
const (
	phaseJournaled = "journaled" // durable-append (group-commit fsync) wait
	phaseQueued    = "queued"    // waiting for a worker
	phaseRunning   = "running"   // executing on a worker
	phaseRequeued  = "requeued"  // back in the queue after a contained panic
	phaseStored    = "stored"    // durable result write
	phaseDone      = "done"      // terminal instant, not a span
)

// traceMark is one lifecycle instant: the phase beginning at that time.
type traceMark struct {
	phase string
	at    time.Time
}

// mark appends a lifecycle mark. Caller holds s.mu.
func (j *job) mark(phase string, at time.Time) {
	j.marks = append(j.marks, traceMark{phase: phase, at: at})
}

// lastMarkAt is the most recent mark's time (zero when untraced —
// jobs recovered from a journal written before tracing). Caller holds
// s.mu.
func (j *job) lastMarkAt() time.Time {
	if len(j.marks) == 0 {
		return time.Time{}
	}
	return j.marks[len(j.marks)-1].at
}

// traceV1 renders the job's lifecycle trace, nil when the job has no
// marks. Caller holds s.mu (or the job is done, after which marks no
// longer change).
func (j *job) traceV1() *apiv1.JobTrace {
	if len(j.marks) == 0 {
		return nil
	}
	tr := &apiv1.JobTrace{ReceivedUnixNano: j.marks[0].at.UnixNano()}
	for i := 0; i+1 < len(j.marks); i++ {
		tr.Spans = append(tr.Spans, apiv1.JobSpan{
			Phase:         j.marks[i].phase,
			StartUnixNano: j.marks[i].at.UnixNano(),
			Seconds:       j.marks[i+1].at.Sub(j.marks[i].at).Seconds(),
		})
	}
	if last := j.marks[len(j.marks)-1]; last.phase == phaseDone {
		tr.TotalSeconds = last.at.Sub(j.marks[0].at).Seconds()
	}
	return tr
}

// Timeline track layout: intake (durable-append waits), the queue, and
// one track per worker.
const (
	tidIntake = 0
	tidQueue  = 1
)

func tidWorker(i int) int { return 2 + i }

// maxTimelineEvents bounds the server-wide timeline so a long-lived
// server cannot grow it without bound; past the cap new events are
// counted as dropped instead of recorded, and /metrics reports the count
// as service.trace_dropped_events.
const maxTimelineEvents = 50_000

// serverTimeline wraps the (single-threaded) telemetry.Timeline with a
// lock and a wall-clock→µs mapping anchored at server start.
type serverTimeline struct {
	mu      sync.Mutex
	start   time.Time
	tl      *telemetry.Timeline
	dropped int
}

func newServerTimeline(start time.Time, workers int) *serverTimeline {
	tl := telemetry.NewTimeline()
	tl.SetThreadName(tidIntake, "intake")
	tl.SetThreadName(tidQueue, "queue")
	for i := 0; i < workers; i++ {
		tl.SetThreadName(tidWorker(i), fmt.Sprintf("worker %d", i))
	}
	return &serverTimeline{start: start, tl: tl}
}

// us maps a wall-clock instant onto the timeline's µs-since-boot axis.
func (t *serverTimeline) us(at time.Time) uint64 {
	d := at.Sub(t.start)
	if d < 0 {
		return 0
	}
	return uint64(d / time.Microsecond)
}

func (t *serverTimeline) span(tid int, name, cat string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tl.Events() >= maxTimelineEvents {
		t.dropped++
		return
	}
	t.tl.Span(tid, name, cat, t.us(start), t.us(end))
}

func (t *serverTimeline) instant(tid int, name, cat string, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tl.Events() >= maxTimelineEvents {
		t.dropped++
		return
	}
	t.tl.Instant(tid, name, cat, t.us(at))
}

// droppedEvents returns the number of events the cap has refused.
func (t *serverTimeline) droppedEvents() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

func (t *serverTimeline) writeTo(w io.Writer) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tl.WriteTo(w)
}

// WriteTrace renders the server-wide job lifecycle timeline as Chrome
// trace-event JSON (chrome://tracing / ui.perfetto.dev) — the
// GET /debug/trace body.
func (s *Server) WriteTrace(w io.Writer) error {
	_, err := s.tline.writeTo(w)
	return err
}

// jobKind classifies a validated spec for per-kind metrics.
func jobKind(spec apiv1.JobSpec) string {
	switch {
	case spec.Litmus != "":
		return "litmus"
	case spec.Program != "":
		return "program"
	case spec.GoSource != "":
		return "gosource"
	case spec.Workload != nil:
		return "workload"
	}
	return "unknown"
}

// jobOutcome reduces a job's runs to one label: "completed" when every
// run completed, otherwise the first non-completed outcome (the reason
// the job is interesting).
func jobOutcome(runs []apiv1.RunResult) string {
	if len(runs) == 0 {
		return apiv1.OutcomeError
	}
	for _, r := range runs {
		if r.Outcome != apiv1.OutcomeCompleted {
			return r.Outcome
		}
	}
	return apiv1.OutcomeCompleted
}

// mergeSnapshot folds src (the store's telemetry) into dst (the
// service registry snapshot). Names never collide: the store prefixes
// "store.", the service "service."/"process.".
func mergeSnapshot(dst *telemetry.Snapshot, src telemetry.Snapshot) {
	if len(src.Counters) > 0 && dst.Counters == nil {
		dst.Counters = make(map[string]uint64, len(src.Counters))
	}
	for k, v := range src.Counters {
		dst.Counters[k] = v
	}
	if len(src.Gauges) > 0 && dst.Gauges == nil {
		dst.Gauges = make(map[string]float64, len(src.Gauges))
	}
	for k, v := range src.Gauges {
		dst.Gauges[k] = v
	}
	if len(src.Histograms) > 0 && dst.Histograms == nil {
		dst.Histograms = make(map[string]telemetry.HistogramSnapshot, len(src.Histograms))
	}
	for k, v := range src.Histograms {
		dst.Histograms[k] = v
	}
}
