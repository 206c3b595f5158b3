package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Spans are recorded by the benchmark around its calls into each layer
// and kept in memory until the run ends, then written out as Chrome
// trace-event JSON (load it in Perfetto or chrome://tracing).

// rootName marks the spans whose trees the layer sum covers: one per
// traced operation (a traced kernel run, a traced prediction, a cleand
// job).
const rootName = "traced"

// layerSumTolerance is the share of the traced end-to-end time that may
// stay unattributed to a layer: the root spans' own self time, which is
// the benchmark's glue between calls (kernels, predict-suite) or the
// server's and client's clocks disagreeing (cleand-gosrc).
const layerSumTolerance = 0.02

type span struct {
	name   string
	op     int // pass or job the span belongs to
	parent int // index of the parent span, -1 for a root
	start  time.Duration
	end    time.Duration
	// aggregate marks a span whose duration is a sum of many short
	// intervals inside its parent (the timed detector checks); it is
	// drawn at the parent's start.
	aggregate bool
}

type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// since converts a monotonic instant to the tracer's timeline.
func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

// unix converts a wall-clock Unix nanosecond stamp (the server's span
// clock) to the tracer's timeline.
func (t *tracer) unix(ns int64) time.Duration {
	return time.Duration(ns - t.epoch.UnixNano())
}

// begin opens a span now and returns its index.
func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: t.since(time.Now())})
	return len(t.spans) - 1
}

// end closes span i now and returns its duration.
func (t *tracer) end(i int) time.Duration {
	t.spans[i].end = t.since(time.Now())
	return t.spans[i].end - t.spans[i].start
}

// add records a span timed elsewhere and returns its index.
func (t *tracer) add(name string, op, parent int, start, end time.Duration) int {
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: start, end: end})
	return len(t.spans) - 1
}

// addAggregate records a summed duration as a child of parent.
func (t *tracer) addAggregate(name string, parent int, d time.Duration) {
	p := t.spans[parent]
	i := t.add(name, p.op, parent, p.start, p.start+d)
	t.spans[i].aggregate = true
}

func (s span) dur() time.Duration { return s.end - s.start }

// layerSum is the self-time split of every traced operation: a span's
// self time is its duration minus its children's, so the self times of
// one tree add up to its root's duration exactly, and the root's own
// self time is the part no layer accounts for.
type layerSum struct {
	total        time.Duration            // summed root durations
	self         map[string]time.Duration // self time by span name
	unattributed time.Duration            // summed root self time
}

// layerSums computes the split over every root named rootName.
func (t *tracer) layerSums() layerSum {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	ls := layerSum{self: make(map[string]time.Duration)}
	var walk func(i int) time.Duration
	walk = func(i int) time.Duration {
		self := t.spans[i].dur()
		for _, c := range children[i] {
			self -= t.spans[c].dur()
			walk(c)
		}
		ls.self[t.spans[i].name] += self
		return self
	}
	for i, s := range t.spans {
		if s.parent == -1 && s.name == rootName {
			ls.total += s.dur()
			ls.unattributed += walk(i)
		}
	}
	delete(ls.self, rootName)
	return ls
}

// check reports whether the layers account for the traced end-to-end
// time within layerSumTolerance.
func (ls layerSum) check() error {
	if ls.total <= 0 {
		return fmt.Errorf("layer sum: no traced operations")
	}
	var sum time.Duration
	for _, d := range ls.self {
		sum += d
	}
	if sum+ls.unattributed != ls.total {
		return fmt.Errorf("layer sum: self times %v + unattributed %v != traced %v", sum, ls.unattributed, ls.total)
	}
	if share := ls.unattributedShare(); share > layerSumTolerance || share < -layerSumTolerance {
		return fmt.Errorf("layer sum: layers %v leave %.2f%% of traced %v unattributed (tolerance %.0f%%)",
			sum, 100*share, ls.total, 100*layerSumTolerance)
	}
	return nil
}

func (ls layerSum) unattributedShare() float64 {
	return float64(ls.unattributed) / float64(ls.total)
}

// lines renders the split, largest layer first.
func (ls layerSum) lines() []string {
	names := make([]string, 0, len(ls.self))
	for n := range ls.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return ls.self[names[i]] > ls.self[names[j]] })
	out := []string{fmt.Sprintf("layer sum over %v traced (tolerance %.0f%% unattributed):", ls.total.Round(time.Microsecond), 100*layerSumTolerance)}
	for _, n := range names {
		out = append(out, fmt.Sprintf("  %-16s %12v  %5.1f%%", n, ls.self[n].Round(time.Microsecond), 100*float64(ls.self[n])/float64(ls.total)))
	}
	return append(out, fmt.Sprintf("  %-16s %12v  %5.1f%%", "(unattributed)", ls.unattributed.Round(time.Microsecond), 100*ls.unattributedShare()))
}

// traceEvent is one Chrome trace-event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every span as Chrome trace-event JSON, one track
// per pass or job.
func (t *tracer) writeChrome(w io.Writer) error {
	events := make([]traceEvent, 0, len(t.spans))
	for i, s := range t.spans {
		ev := traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.op,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": s.parent},
		}
		if s.aggregate {
			ev.Args["aggregate"] = true
		}
		events = append(events, ev)
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return err
	}
	return bw.Flush()
}

// finishTrace ends a traced run: it checks the layer sum (a miss fails
// the run), prints the split and writes the span file.
func finishTrace(e *env, o *outcome, tr *tracer) error {
	ls := tr.layerSums()
	err := ls.check()
	o.check(err == nil, "%v", err)
	o.lines = append(o.lines, ls.lines()...)
	dir, err := scratchDir(e.root, "spans")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", e.name, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rel, _ := filepath.Rel(e.root, path)
	o.printf("spans: %s (%d spans, Chrome trace-event JSON)", rel, len(tr.spans))
	return nil
}
