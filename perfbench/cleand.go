package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/gofront"
	"repro/internal/service"
	"repro/internal/store"
)

const (
	// cleandWorkers is the server's worker pool.
	cleandWorkers = 2
	// maxClients is the closed-loop client count, capped at one per CPU
	// so load never comes from more goroutines than there are CPUs.
	maxClients = 2
	// detectSeeds is how many seeds one detection job fans out over.
	detectSeeds = 8
	// lowerRounds is how many times the traced run lowers each corpus
	// program directly.
	lowerRounds = 3
)

// gosrcPath is where a corpus program lives in the checkout.
func gosrcPath(root, name string) string {
	return filepath.Join(root, "testdata", "gosrc", name+".go")
}

// gosrcJob is one entry of the job list: a corpus program submitted as
// an 8-seed full-CLEAN detection job or as a predict job.
type gosrcJob struct {
	truth   gosrcVerdict
	src     string
	predict bool
}

func (j gosrcJob) String() string {
	if j.predict {
		return j.truth.name + "/predict"
	}
	return j.truth.name + "/detect"
}

// jobList reads the corpus and returns its twelve jobs in a fixed order
// shuffled by the seed.
func jobList(root string, seed int64) ([]gosrcJob, error) {
	var jobs []gosrcJob
	for _, v := range gosrcTruth {
		src, err := os.ReadFile(gosrcPath(root, v.name))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, gosrcJob{truth: v, src: string(src)}, gosrcJob{truth: v, src: string(src), predict: true})
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

// spec is the job's submission; its seeds derive from seed.
func (j gosrcJob) spec(seed int64) apiv1.JobSpec {
	if j.predict {
		return apiv1.JobSpec{GoSource: j.src, Detection: "predict", Seeds: []int64{seed}}
	}
	seeds := make([]int64, detectSeeds)
	for i := range seeds {
		seeds[i] = derive(seed, i)
	}
	return apiv1.JobSpec{GoSource: j.src, Seeds: seeds}
}

// checkJob checks a finished job's verdict against the table.
func checkJob(j gosrcJob, doc *apiv1.Job) error {
	if doc.State != apiv1.JobDone {
		return fmt.Errorf("state %q, want %q", doc.State, apiv1.JobDone)
	}
	if j.predict {
		if len(doc.Runs) != 1 {
			return fmt.Errorf("%d runs, want 1", len(doc.Runs))
		}
		r := doc.Runs[0]
		if !predictVerdictOK(j.truth.certified, r.Outcome, len(r.Predicted)) {
			return fmt.Errorf("outcome %s with %d certified predictions, want certified=%v", r.Outcome, len(r.Predicted), j.truth.certified)
		}
		return nil
	}
	if len(doc.Runs) != detectSeeds {
		return fmt.Errorf("%d runs, want %d", len(doc.Runs), detectSeeds)
	}
	for _, r := range doc.Runs {
		if !detectVerdictOK(j.truth.detect, r.Outcome) {
			return fmt.Errorf("seed %d: outcome %s %s", r.Seed, r.Outcome, r.Error)
		}
	}
	return nil
}

// jobDigest is what the traced and untraced submissions of one job must
// agree on: every run's outcome, hash, counters, witness and
// predictions.
func jobDigest(doc *apiv1.Job) string {
	var b strings.Builder
	for _, r := range doc.Runs {
		fmt.Fprintf(&b, "%d %s %s %v %d", r.Seed, r.Outcome, r.DeterminismHash, r.FinalCounters, len(r.Predicted))
		if w := r.Witness; w != nil {
			fmt.Fprintf(&b, " %s@%#x/%d by %d", w.Kind, w.Addr, w.Size, w.TID)
		}
		for _, p := range r.Predicted {
			fmt.Fprintf(&b, " %s", p.DeterminismHash)
		}
		b.WriteString(";")
	}
	return b.String()
}

// cleand is one in-process server: a journal on a temporary directory,
// the worker pool and the HTTP handler on a loopback listener.
type cleand struct {
	dir       string
	store     *store.FileStore
	srv       *service.Server
	http      *http.Server
	served    chan error
	transport *http.Transport
	clients   []*service.Client
	session   string
}

func startCleand(root string, clients int) (*cleand, error) {
	tmp, err := scratchDir(root, "tmp")
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "cleand-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	c := &cleand{
		dir:       dir,
		store:     st,
		srv:       service.New(service.Config{Workers: cleandWorkers, Store: st}),
		served:    make(chan error, 1),
		transport: &http.Transport{MaxIdleConnsPerHost: clients},
	}
	c.http = &http.Server{Handler: service.Handler(c.srv), ReadHeaderTimeout: time.Minute}
	go func() { c.served <- c.http.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	for i := 0; i < clients; i++ {
		// Retries are off: a refused or failed request is a failed
		// operation, not extra latency.
		c.clients = append(c.clients, service.NewClient(url,
			service.WithoutRetries(), service.WithHTTPClient(&http.Client{Transport: c.transport})))
	}
	sess, err := c.clients[0].CreateSession(context.Background(), apiv1.SessionConfig{
		Detection: "clean", DetSync: true, YieldEvery: 32,
	})
	if err != nil {
		return nil, errors.Join(err, c.stop())
	}
	c.session = sess.ID
	return c, nil
}

// stop drains the workers, shuts the listener, closes the journal and
// removes its directory, returning once every server goroutine is done.
func (c *cleand) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errs := []error{c.srv.Drain(ctx), c.http.Shutdown(ctx)}
	if err := <-c.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	c.transport.CloseIdleConnections()
	errs = append(errs, c.store.Close(), os.RemoveAll(c.dir))
	return errors.Join(errs...)
}

// counter reads one counter from the server's /metrics document.
func (c *cleand) counter(name string) (uint64, error) {
	m, err := c.clients[0].Metrics(context.Background())
	if err != nil {
		return 0, err
	}
	v, ok := m.Metrics.Counters[name]
	if !ok {
		return 0, fmt.Errorf("/metrics has no counter %s", name)
	}
	return v, nil
}

// jobSample is one submission as its client saw it.
type jobSample struct {
	client, pass, index int
	traced              bool
	job                 gosrcJob
	sent, received      time.Time
	doc                 *apiv1.Job
	err                 error
}

func (s jobSample) latency() time.Duration { return s.received.Sub(s.sent) }

// closedLoop runs one goroutine per client; each submits the job list
// in order from its own offset and waits for every verdict before the
// next submission, starting a new pass of the whole list only while the
// deadline has not passed. pairs makes passes come in untraced/traced
// pairs that share their seeds. It returns every client's samples in
// submission order.
func (c *cleand) closedLoop(jobs []gosrcJob, seed int64, deadline time.Time, pairs bool) [][]jobSample {
	out := make([][]jobSample, len(c.clients))
	var wg sync.WaitGroup
	for ci, cl := range c.clients {
		wg.Add(1)
		go func(ci int, cl *service.Client) {
			defer wg.Done()
			offset := ci * len(jobs) / len(c.clients)
			for pass := 0; pass == 0 || time.Now().Before(deadline) || (pairs && pass%2 == 1); pass++ {
				seedPass, traced := pass, false
				if pairs {
					seedPass, traced = pass/2, pass%2 == 1
				}
				for i := range jobs {
					j := jobs[(offset+i)%len(jobs)]
					s := jobSample{client: ci, pass: pass, index: i, traced: traced, job: j, sent: time.Now()}
					s.doc, s.err = cl.Run(context.Background(), c.session, j.spec(derive(seed, ci, seedPass, i)))
					s.received = time.Now()
					out[ci] = append(out[ci], s)
				}
			}
		}(ci, cl)
	}
	wg.Wait()
	return out
}

// checkSamples counts and checks every sample against the verdict table.
func checkSamples(o *outcome, samples [][]jobSample) {
	for _, cs := range samples {
		for _, s := range cs {
			err := s.err
			if err == nil {
				err = checkJob(s.job, s.doc)
			}
			o.check(err == nil, "client %d pass %d %s: %v", s.client, s.pass, s.job, err)
		}
	}
}

// passTimes returns the wall time of each client pass, selected by
// traced, from the first submission to the last verdict.
func passTimes(samples [][]jobSample, traced bool) []float64 {
	var out []float64
	for _, cs := range samples {
		var first, last time.Time
		for i, s := range cs {
			if s.traced != traced {
				continue
			}
			if s.index == 0 {
				first = s.sent
			}
			last = s.received
			if i+1 == len(cs) || cs[i+1].pass != s.pass {
				out = append(out, last.Sub(first).Seconds())
			}
		}
	}
	return out
}

func jobLatencies(samples [][]jobSample, traced bool) []float64 {
	var out []float64
	for _, cs := range samples {
		for _, s := range cs {
			if s.traced == traced {
				out = append(out, millis(s.latency()))
			}
		}
	}
	return out
}

// cleandGosrc runs closed-loop clients submitting the Go corpus to an
// in-process cleand over loopback HTTP.
func cleandGosrc(e *env, o *outcome) error {
	clients := maxClients
	if n := runtime.NumCPU(); n < clients {
		clients = n
	}
	reps := setupReps
	if e.trace {
		reps = 1
	}
	var srv *cleand
	var jobs []gosrcJob
	var setups []float64
	for r := 0; r < reps; r++ {
		start := time.Now()
		var err error
		if jobs, err = jobList(e.root, e.seed); err != nil {
			return err
		}
		if srv, err = startCleand(e.root, clients); err != nil {
			return err
		}
		// Warm-up: every client runs one detection and one predict job.
		warm := srv.closedLoop(warmupJobs(jobs), derive(e.seed, warmupPass-r), time.Time{}, false)
		checkSamples(o, warm)
		setups = append(setups, time.Since(start).Seconds())
		if r+1 < reps {
			if err := srv.stop(); err != nil {
				return err
			}
		}
	}
	fsyncs0, err := srv.counter("store.fsyncs")
	if err != nil {
		return errors.Join(err, srv.stop())
	}
	records0, err := srv.counter("store.journal_records")
	if err != nil {
		return errors.Join(err, srv.stop())
	}

	start := time.Now()
	samples := srv.closedLoop(jobs, e.seed, start.Add(e.seconds), e.trace)
	var last time.Time
	total := 0
	for _, cs := range samples {
		total += len(cs)
		if t := cs[len(cs)-1].received; t.After(last) {
			last = t
		}
	}
	checkSamples(o, samples)
	fsyncs1, err1 := srv.counter("store.fsyncs")
	records1, err2 := srv.counter("store.journal_records")
	if err := errors.Join(err1, err2, srv.stop()); err != nil {
		return err
	}

	o.printf("%d closed-loop clients, %d workers, %d jobs: %d Go programs × {%d-seed detection, predict}, order shuffled by the seed",
		clients, cleandWorkers, len(jobs), len(gosrcTruth), detectSeeds)
	if e.trace {
		return tracedCleand(e, o, jobs, samples, total, fsyncs1-fsyncs0, records1-records0)
	}
	o.set("setup_s", medianOf(setups))
	pass, job := summarize(passTimes(samples, false)), summarize(jobLatencies(samples, false))
	o.set("pass_s_p50", pass.median)
	o.set("job_ms_p50", job.median)
	o.set("jobs_per_s", float64(total)/last.Sub(start).Seconds())
	o.printf("client pass (all %d jobs): %s", len(jobs), pass.format("s"))
	o.printf("job, submit to verdict: %s", job.format("ms"))
	o.printf("setup: %d set-ups, %.4g s each at the median (each starts a server and runs %d warm-up jobs per client)",
		len(setups), medianOf(setups), len(warmupJobs(jobs)))
	return nil
}

// tracedCleand derives the per-layer metrics from the traced passes: the
// client's own send and receive instants around each job's server-side
// lifecycle spans, the journal counters scraped from /metrics, and
// gofront lowering timed directly on the corpus.
func tracedCleand(e *env, o *outcome, jobs []gosrcJob, samples [][]jobSample, total int, fsyncs, records uint64) error {
	tr := newTracer()
	layers := map[string][]float64{}
	op := 0
	for _, cs := range samples {
		for i, s := range cs {
			if !s.traced {
				continue
			}
			// The untraced twin is the same job with the same seeds, one
			// pass earlier.
			twin := cs[i-len(jobs)]
			o.check(s.err == nil && twin.err == nil && s.doc.Trace != nil && jobDigest(twin.doc) == jobDigest(s.doc),
				"client %d pass %d %s: traced verdict differs from the untraced one or has no trace", s.client, s.pass, s.job)
			if s.err == nil && s.doc.Trace != nil {
				op++
				recordJobSpans(tr, op, s, layers)
			}
		}
	}
	for name, metric := range map[string]string{
		"service.intake": "service.intake_ms", "store.journal": "store.journal_ms",
		"service.queue": "service.queue_ms", "service.run": "service.run_ms",
		"store.result": "store.result_ms", "service.client": "service.client_ms",
	} {
		o.set(metric, medianOf(layers[name]))
	}
	o.set("store.fsyncs_per_job", ratio(float64(fsyncs), float64(total)))
	o.set("store.records_per_fsync", ratio(float64(records), float64(fsyncs)))

	var lower []float64
	for r := 0; r < lowerRounds; r++ {
		for _, j := range jobs {
			if j.predict {
				continue
			}
			s := tr.begin("gofront.lower", op+1, -1)
			_, err := gofront.LoadSource(j.truth.name+".go", []byte(j.src))
			lower = append(lower, millis(tr.end(s)))
			o.check(err == nil, "lowering %s: %v", j.truth.name, err)
		}
	}
	traced, untraced := jobLatencies(samples, true), jobLatencies(samples, false)
	o.set("gofront.lower_ms", medianOf(lower))
	o.set("gofront.share", ratio(medianOf(lower), medianOf(traced)))
	o.set("trace.job_overhead_ms", medianOf(traced)-medianOf(untraced))
	o.set("trace.pass_overhead_s", medianOf(passTimes(samples, true))-medianOf(passTimes(samples, false)))
	o.printf("traced %d of %d jobs (untraced/traced passes alternate with shared seeds); per-job medians", op, total)
	return finishTrace(e, o, tr)
}

// warmupJobs picks the same two jobs whatever the seed, the detection
// and predict jobs of the corpus's first program, so set-up time does
// not depend on where the shuffle put the cheap programs.
func warmupJobs(jobs []gosrcJob) []gosrcJob {
	var warm []gosrcJob
	for _, j := range jobs {
		if j.truth.name == gosrcTruth[0].name {
			warm = append(warm, j)
		}
	}
	return warm
}

// phaseLayer maps a server lifecycle phase to the layer it times.
var phaseLayer = map[string]string{
	"journaled": "store.journal",
	"queued":    "service.queue",
	"requeued":  "service.queue",
	"running":   "service.run",
	"stored":    "store.result",
}

// recordJobSpans records one traced job: a root spanning the client's
// send to its holding the verdict, with the client's intake and receipt
// around the server's contiguous lifecycle spans. It appends each
// layer's time in the job to layers.
func recordJobSpans(tr *tracer, op int, s jobSample, layers map[string][]float64) {
	t := s.doc.Trace
	root := tr.add(rootName, op, -1, tr.since(s.sent), tr.since(s.received))
	perLayer := map[string]time.Duration{}
	add := func(name string, from, to int64) {
		tr.add(name, op, root, tr.unix(from), tr.unix(to))
		perLayer[name] += time.Duration(to - from)
	}
	add("service.intake", s.sent.UnixNano(), t.ReceivedUnixNano)
	for _, sp := range t.Spans {
		name, ok := phaseLayer[sp.Phase]
		if !ok {
			name = "service." + sp.Phase
		}
		add(name, sp.StartUnixNano, sp.StartUnixNano+int64(sp.Seconds*1e9))
	}
	add("service.client", t.ReceivedUnixNano+int64(t.TotalSeconds*1e9), s.received.UnixNano())
	for name, d := range perLayer {
		layers[name] = append(layers[name], millis(d))
	}
}
