package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	clean "repro"
	apiv1 "repro/api/v1"
	"repro/internal/gofront"
	"repro/internal/prog"
	"repro/internal/telemetry"
)

// startTestServer boots a full server (workers running) behind an
// httptest listener and returns a client for it.
func startTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(Handler(srv))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	return srv, NewClient(ts.URL)
}

// TestWitnessMatchesInProcess is the acceptance check: a racy litmus
// submitted over HTTP yields a v1 race witness byte-identical to the
// witness the same configuration produces in-process.
func TestWitnessMatchesInProcess(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Config{Workers: 2, QueueDepth: 8})

	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw"})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != apiv1.JobDone || len(job.Runs) != 1 {
		t.Fatalf("job state %q with %d runs, want done with 1", job.State, len(job.Runs))
	}
	res := job.Runs[0]
	if res.Outcome != apiv1.OutcomeRaceException {
		t.Fatalf("outcome %q (%s), want race-exception", res.Outcome, res.Error)
	}

	// The same run, in process, through the same option constructors.
	cfg, err := clean.NewConfig(clean.WithDetection(clean.DetectCLEAN), clean.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	m := clean.NewMachine(cfg)
	root, _ := prog.LitmusByName("waw").P.Build(m)
	runErr := m.Run(root)
	want := witnessOf(runErr)
	if want == nil {
		t.Fatalf("in-process run did not race: %v", runErr)
	}

	gotJSON, _ := apiv1.Encode(res.Witness)
	wantJSON, _ := apiv1.Encode(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("remote witness differs from in-process witness:\nremote: %s\nlocal:  %s", gotJSON, wantJSON)
	}
	if res.Error != runErr.Error() {
		t.Errorf("remote error %q, in-process %q", res.Error, runErr.Error())
	}
}

// TestDeterminismHashMatchesInProcess checks the second half of the
// acceptance criterion: under deterministic sync, every remote seed's
// determinism hash equals the in-process hash, byte for byte.
func TestDeterminismHashMatchesInProcess(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Config{Workers: 2, QueueDepth: 8})

	lit := prog.LitmusByName("locked-counter")
	cfg, err := clean.NewConfig(
		clean.WithDetection(clean.DetectCLEAN),
		clean.WithDeterministicSync(true),
		clean.WithSeed(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	m := clean.NewMachine(cfg)
	root, base := lit.P.Build(m)
	if err := m.Run(root); err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	want := telemetry.FormatHash(m.HashMem(base, lit.P.Region))

	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{
		Detection: apiv1.DetectionCLEAN, Seed: 0, DetSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Litmus: "locked-counter", Seeds: []int64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Runs) != 3 {
		t.Fatalf("got %d runs, want 3", len(job.Runs))
	}
	for _, res := range job.Runs {
		if res.Outcome != apiv1.OutcomeCompleted {
			t.Fatalf("seed %d: outcome %q (%s)", res.Seed, res.Outcome, res.Error)
		}
		if res.DeterminismHash != want {
			t.Errorf("seed %d: determinism hash %s, in-process %s", res.Seed, res.DeterminismHash, want)
		}
	}
}

// TestWorkloadJob runs a benchmark stand-in remotely with metrics and
// checks the hash against clean.RunWorkload plus the report's presence.
func TestWorkloadJob(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Config{Workers: 2, QueueDepth: 8})

	cfg, err := clean.NewConfig(
		clean.WithDetection(clean.DetectCLEAN),
		clean.WithDeterministicSync(true),
		clean.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := clean.RunWorkload("fft", "test", true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatalf("in-process fft: %v", rep.Err)
	}
	want := telemetry.FormatHash(rep.OutputHash)

	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{
		Detection: apiv1.DetectionCLEAN, Seed: 1, DetSync: true, Metrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Run(ctx, sess.ID, apiv1.JobSpec{
		Workload: &apiv1.WorkloadSpec{Name: "fft", Scale: "test", Variant: "modified"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := job.Runs[0]
	if res.Outcome != apiv1.OutcomeCompleted {
		t.Fatalf("outcome %q (%s)", res.Outcome, res.Error)
	}
	if res.DeterminismHash != want {
		t.Errorf("remote hash %s, in-process %s", res.DeterminismHash, want)
	}
	if res.Report == nil {
		t.Fatal("metrics session returned no report")
	}
	if res.Report.Kind != apiv1.KindRunReport || res.Report.OutputHash != want {
		t.Errorf("report kind %q hash %s, want %q %s",
			res.Report.Kind, res.Report.OutputHash, apiv1.KindRunReport, want)
	}
}

// TestProgramJobReport pins the program-job RunReport in a metrics
// session: it carries the CLEAN detector's core.* counters, as a workload
// job's does, and names the detector that actually ran when the job
// overrides the session's.
func TestProgramJobReport(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Config{Workers: 2, QueueDepth: 8})

	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{
		Detection: apiv1.DetectionCLEAN, Seed: 0, DetSync: true, Metrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Program: prog.LitmusByName("locked-counter").P.String()})
	if err != nil {
		t.Fatal(err)
	}
	rep := job.Runs[0].Report
	if rep == nil {
		t.Fatal("metrics session returned no report")
	}
	core := 0
	for name := range rep.Metrics.Counters {
		if strings.HasPrefix(name, "core.") {
			core++
		}
	}
	if core == 0 || rep.Metrics.Counters["core.accesses"] == 0 {
		t.Errorf("program report carries %d core.* counters (core.accesses %d), want the CLEAN detector's",
			core, rep.Metrics.Counters["core.accesses"])
	}
	if rep.Detector != apiv1.DetectionCLEAN || rep.Workload != "prog" {
		t.Errorf("report detector %q workload %q, want %q %q", rep.Detector, rep.Workload, apiv1.DetectionCLEAN, "prog")
	}

	ft, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Litmus: "locked-counter", Detection: apiv1.DetectionFastTrack})
	if err != nil {
		t.Fatal(err)
	}
	if rep := ft.Runs[0].Report; rep == nil {
		t.Error("fasttrack override: no report")
	} else if rep.Detector != apiv1.DetectionFastTrack {
		t.Errorf("fasttrack override: report detector %q, want %q", rep.Detector, apiv1.DetectionFastTrack)
	}
}

// nestedLoops lowers toward 64⁴ × 2 ops: four nested unrolled loops
// around one read and one write.
const nestedLoops = `package main

var x int

func main() {
	go func() {
		for i := 0; i < 64; i++ {
			for j := 0; j < 64; j++ {
				for k := 0; k < 64; k++ {
					for l := 0; l < 64; l++ {
						x = x + 1
					}
				}
			}
		}
	}()
}
`

// TestSubmitRejectsOversizedPrograms: submissions whose lowering or
// shared state would cost unbounded memory or time are 400s, answered
// before any run starts.
func TestSubmitRejectsOversizedPrograms(t *testing.T) {
	srv := newServer(Config{Workers: 1, QueueDepth: 4})
	sess, err := srv.CreateSession(apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []apiv1.JobSpec{
		{GoSource: nestedLoops},
		{Program: fmt.Sprintf("region %d\nlocks 0\nthread\n  write 0 8\n", prog.MaxRegion+1)},
		{Program: fmt.Sprintf("region 8\nlocks %d\nthread\n  write 0 8\n", prog.MaxLocks+1)},
	} {
		start := time.Now()
		_, err := srv.Submit(sess.ID, spec, "")
		var bad *BadRequestError
		if !errors.As(err, &bad) {
			t.Errorf("%.40q: Submit error %v, want a *BadRequestError", spec.GoSource+spec.Program, err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("%.40q: rejection took %v", spec.GoSource+spec.Program, d)
		}
	}
}

// TestScheduledReplay drives the witness-replay schedules: on the
// raw-war litmus, write-then-read raises RAW, read-then-write completes
// (WAR is tolerated by design).
func TestScheduledReplay(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Config{Workers: 2, QueueDepth: 8})

	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Litmus: "raw-war", Schedule: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res := raw.Runs[0]; res.Outcome != apiv1.OutcomeRaceException ||
		res.Witness == nil || res.Witness.Kind != "RAW" {
		t.Errorf("schedule [0,1]: outcome %q witness %+v, want RAW race", res.Outcome, res.Witness)
	}
	war, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Litmus: "raw-war", Schedule: []int{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res := war.Runs[0]; res.Outcome != apiv1.OutcomeCompleted || res.DeterminismHash == "" {
		t.Errorf("schedule [1,0]: outcome %q (%s), want completed with hash", res.Outcome, res.Error)
	}
}

// TestBackpressure fills the queue of a server whose workers never start
// and checks the 429 + Retry-After contract at the HTTP layer. The
// no-retry client surfaces the raw 429; Retry-After is the 2s base
// doubled by the full queue (occupancy scaling).
func TestBackpressure(t *testing.T) {
	ctx := context.Background()
	srv := newServer(Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()
	c := NewClient(ts.URL, WithoutRetries())

	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionNone, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw"}); err != nil {
		t.Fatalf("first submission should queue: %v", err)
	}

	// The queue (depth 1, no workers) is now full.
	req := apiv1.SubmitJobRequest{Schema: apiv1.SchemaVersion, Job: apiv1.JobSpec{Litmus: "waw"}}
	body, _ := apiv1.Encode(req)
	resp, err := http.Post(ts.URL+"/v1/sessions/"+sess.ID+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "4" {
		t.Errorf("Retry-After header %q, want %q", ra, "4")
	}

	// The client surfaces the same rejection as a typed *v1.Error.
	_, err = c.Submit(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw"})
	var apiErr *apiv1.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("client error %v, want *v1.Error with status 429", err)
	}
	if apiErr.RetryAfterSeconds != 4 {
		t.Errorf("RetryAfterSeconds %d, want 4", apiErr.RetryAfterSeconds)
	}
}

// slowSpec builds a program job large enough to keep a worker busy for
// a macroscopic moment: every op is one scheduler dispatch.
func slowSpec(t *testing.T) apiv1.JobSpec {
	t.Helper()
	p := &prog.Program{Region: 8, Locks: 0, Threads: make([][]prog.Op, 2)}
	for th := range p.Threads {
		ops := make([]prog.Op, 50_000)
		for i := range ops {
			ops[i] = prog.Op{Kind: prog.Work, Work: 1}
		}
		p.Threads[th] = ops
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return apiv1.JobSpec{Program: p.String()}
}

// TestGracefulDrain checks the SIGTERM path cmd/cleand wires up: drain
// stops intake, the in-flight job completes, and its result stays
// readable.
func TestGracefulDrain(t *testing.T) {
	ctx := context.Background()
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()
	c := NewClient(ts.URL)

	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionNone, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(ctx, sess.ID, slowSpec(t))
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		drained <- srv.Drain(dctx)
	}()

	// Drain flips the flag before waiting; once health reports draining,
	// new submissions must be rejected even though a job is in flight.
	for {
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Status == "draining" {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Submit(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw"}); err == nil {
		t.Fatal("submission during drain succeeded, want 503")
	} else {
		var apiErr *apiv1.Error
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
			t.Fatalf("drain rejection %v, want *v1.Error with status 503", err)
		}
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight job finished during the drain and is still readable.
	done, err := c.Job(ctx, sess.ID, job.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != apiv1.JobDone {
		t.Fatalf("after drain, job state %q, want done", done.State)
	}
	if res := done.Runs[0]; res.Outcome != apiv1.OutcomeCompleted {
		t.Errorf("drained job outcome %q (%s), want completed", res.Outcome, res.Error)
	}
}

// TestRequestValidation sweeps the 4xx vocabulary.
func TestRequestValidation(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Config{Workers: 1, QueueDepth: 4})

	status := func(err error) int {
		var apiErr *apiv1.Error
		if errors.As(err, &apiErr) {
			return apiErr.Status
		}
		t.Fatalf("expected *v1.Error, got %v", err)
		return 0
	}

	if _, err := c.CreateSession(ctx, apiv1.SessionConfig{}); status(err) != 400 {
		t.Errorf("empty detection: %v, want 400", err)
	}
	if _, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: "hbfull"}); status(err) != 400 {
		t.Errorf("unknown detector: %v, want 400", err)
	}
	if _, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: "clean", ClockBits: 5}); status(err) != 400 {
		t.Errorf("half layout override: %v, want 400", err)
	}
	if _, err := c.Session(ctx, "s-999"); status(err) != 404 {
		t.Errorf("unknown session: want 404")
	}

	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionNone, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, sess.ID, apiv1.JobSpec{Litmus: "no-such-litmus"}); status(err) != 400 {
		t.Errorf("unknown litmus: want 400")
	}
	if _, err := c.Submit(ctx, sess.ID, apiv1.JobSpec{Program: "region 8\n"}); status(err) != 400 {
		t.Errorf("malformed program: want 400")
	}
	if _, err := c.Submit(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw", Schedule: []int{7}}); status(err) != 400 {
		t.Errorf("out-of-range schedule worker: want 400")
	}
	if _, err := c.Job(ctx, sess.ID, "j-999", 0); status(err) != 404 {
		t.Errorf("unknown job: want 404")
	}

	if _, err := c.CloseSession(ctx, sess.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw"}); status(err) != 409 {
		t.Errorf("closed session: want 409")
	}
}

// TestGoSourceJobMatchesInProcess is the gosource acceptance check: a
// racy Go file submitted over HTTP is lowered server-side and yields a
// race witness byte-identical to running the same lowering in process;
// a race-free Go file yields the in-process determinism hash.
func TestGoSourceJobMatchesInProcess(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Config{Workers: 2, QueueDepth: 8})

	racy, err := os.ReadFile("../../testdata/gosrc/bankrace.go")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Run(ctx, sess.ID, apiv1.JobSpec{GoSource: string(racy)})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != apiv1.JobDone || len(job.Runs) != 1 {
		t.Fatalf("job state %q with %d runs, want done with 1", job.State, len(job.Runs))
	}
	res := job.Runs[0]
	if res.Outcome != apiv1.OutcomeRaceException {
		t.Fatalf("outcome %q (%s), want race-exception", res.Outcome, res.Error)
	}

	// The same source, lowered and run in process under the same config.
	gp, err := gofront.LoadSource("gosource.go", racy)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := clean.NewConfig(clean.WithDetection(clean.DetectCLEAN), clean.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	m := clean.NewMachine(cfg)
	root, _ := gp.Prog.Build(m)
	runErr := m.Run(root)
	want := witnessOf(runErr)
	if want == nil {
		t.Fatalf("in-process run did not race: %v", runErr)
	}
	gotJSON, _ := apiv1.Encode(res.Witness)
	wantJSON, _ := apiv1.Encode(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("remote witness differs from in-process witness:\nremote: %s\nlocal:  %s", gotJSON, wantJSON)
	}
	if res.Error != runErr.Error() {
		t.Errorf("remote error %q, in-process %q", res.Error, runErr.Error())
	}

	// Race-free source: the determinism hash must match in process.
	free, err := os.ReadFile("../../testdata/gosrc/chanhandoff.go")
	if err != nil {
		t.Fatal(err)
	}
	dsess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 0, DetSync: true})
	if err != nil {
		t.Fatal(err)
	}
	djob, err := c.Run(ctx, dsess.ID, apiv1.JobSpec{GoSource: string(free)})
	if err != nil {
		t.Fatal(err)
	}
	dres := djob.Runs[0]
	if dres.Outcome != apiv1.OutcomeCompleted {
		t.Fatalf("race-free outcome %q (%s)", dres.Outcome, dres.Error)
	}
	fp, err := gofront.LoadSource("gosource.go", free)
	if err != nil {
		t.Fatal(err)
	}
	dcfg, err := clean.NewConfig(clean.WithDetection(clean.DetectCLEAN), clean.WithSeed(0), clean.WithDeterministicSync(true))
	if err != nil {
		t.Fatal(err)
	}
	dm := clean.NewMachine(dcfg)
	droot, dbase := fp.Prog.Build(dm)
	if err := dm.Run(droot); err != nil {
		t.Fatalf("in-process race-free run: %v", err)
	}
	if want := telemetry.FormatHash(dm.HashMem(dbase, fp.Prog.Region)); dres.DeterminismHash != want {
		t.Errorf("determinism hash %s, in-process %s", dres.DeterminismHash, want)
	}
}

// TestGoSourceJobRejectsBadSource: unparseable or unsupported Go source
// is a 400 whose message carries the front end's positioned diagnostics.
func TestGoSourceJobRejectsBadSource(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Config{Workers: 1, QueueDepth: 4})
	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, src, wantPos string
	}{
		{"syntax error", "package main\nfunc main() {", "gosource.go:2"},
		{"unsupported construct", "package main\nvar x int\nfunc main() {\n\tgo func() { x = 1 }()\n\tselect {}\n}\n", "gosource.go:5"},
	}
	for _, tc := range cases {
		_, err := c.Submit(ctx, sess.ID, apiv1.JobSpec{GoSource: tc.src})
		var apiErr *apiv1.Error
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Fatalf("%s: err = %v, want 400", tc.name, err)
		}
		if !strings.Contains(apiErr.Message, tc.wantPos) {
			t.Errorf("%s: message %q lacks position %q", tc.name, apiErr.Message, tc.wantPos)
		}
	}
}

// TestPredictJob drives the predict-enabled job path end to end: a racy
// litmus submitted with the per-job detection override yields certified
// predicted-race documents (with witness schedules), a race-free litmus
// yields none, and a workload job in a predict session fails cleanly.
func TestPredictJob(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Config{Workers: 2, QueueDepth: 8})

	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw", Detection: apiv1.DetectionPredict})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != apiv1.JobDone || len(job.Runs) != 1 {
		t.Fatalf("job state %q with %d runs, want done with 1", job.State, len(job.Runs))
	}
	res := job.Runs[0]
	if res.Outcome != apiv1.OutcomeRaceException {
		t.Fatalf("predict outcome %q (%s), want race-exception", res.Outcome, res.Error)
	}
	if len(res.Predicted) == 0 {
		t.Fatal("predict run reported no predictions")
	}
	for i, p := range res.Predicted {
		if p.Schema != apiv1.SchemaVersion || p.Kind != apiv1.KindPredictedRace {
			t.Errorf("prediction %d: schema stamp %d/%q", i, p.Schema, p.Kind)
		}
		if !p.Certified || p.Witness == nil {
			t.Errorf("prediction %d: uncertified or witness-less (certified=%v)", i, p.Certified)
		}
		if p.Schedule == nil || len(p.Schedule.Steps) == 0 {
			t.Errorf("prediction %d: empty witness schedule", i)
		}
		if p.DeterminismHash == "" {
			t.Errorf("prediction %d: missing determinism hash", i)
		}
	}
	if res.Witness == nil || res.Witness.Schedule == nil {
		t.Error("predict run result lacks the first prediction's witness")
	}

	// Race-free program: recording completes, nothing is predicted.
	quiet, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Litmus: "locked-counter", Detection: apiv1.DetectionPredict})
	if err != nil {
		t.Fatal(err)
	}
	if r := quiet.Runs[0]; r.Outcome != apiv1.OutcomeCompleted || len(r.Predicted) != 0 {
		t.Errorf("race-free predict run: outcome %q, %d predictions", r.Outcome, len(r.Predicted))
	}

	// A session opened in predict mode rejects workload jobs at run time
	// (spec-level predict+workload is already a 400 in Validate).
	psess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionPredict, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := c.Run(ctx, psess.ID, apiv1.JobSpec{Workload: &apiv1.WorkloadSpec{Name: "counter", Scale: "test"}})
	if err != nil {
		t.Fatal(err)
	}
	if r := wl.Runs[0]; r.Outcome != apiv1.OutcomeError || !strings.Contains(r.Error, "predict") {
		t.Errorf("workload under predict session: outcome %q error %q, want error mentioning predict", r.Outcome, r.Error)
	}
}
