// Command cleanstress soaks a running cleand with a mixed job load and
// asserts the degradation contract holds: every acknowledged job
// reaches a terminal result (zero lost jobs), 429s appear only while
// injected pressure is open, and the queue drains clean once the load
// stops. It is the chaos half of the durability story — cleand -store
// -chaos supplies the faults, cleanstress arms them mid-soak through
// /debug/chaos and measures what the clients see.
//
// Usage:
//
//	cleand -addr 127.0.0.1:7319 -store /tmp/cleand.store -chaos &
//	cleanstress -addr http://127.0.0.1:7319 -duration 20s -qps 25 -chaos
//
// The soak writes a schema-versioned BENCH_service.json (p50/p95/p99
// submit and end-to-end latency, throughput, rejection and fault
// counts) and exits non-zero on any contract violation, which is what
// the CI soak-smoke job keys off.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/prog"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cleanstress: ")
	var (
		addr     = flag.String("addr", "http://127.0.0.1:7319", "cleand base URL")
		duration = flag.Duration("duration", 20*time.Second, "soak length")
		qps      = flag.Float64("qps", 25, "target submissions per second")
		conc     = flag.Int("conc", 4, "concurrent submitter goroutines")
		seed     = flag.Int64("seed", 1, "job-mix RNG seed")
		outDir   = flag.String("out", ".", "directory for BENCH_service.json")
		chaos    = flag.Bool("chaos", false, "arm /debug/chaos mid-soak (server must run -chaos)")
		panics   = flag.Int("panics", 3, "worker-panic budget to inject (with -chaos)")
		storeErr = flag.Int("storeerrs", 2, "store-error budget to inject (with -chaos)")
		stall    = flag.Duration("stall", 2*time.Second, "worker-stall window to inject (with -chaos)")
		sample   = flag.Duration("sample", 250*time.Millisecond, "resource-sampling interval")
		baseline = flag.String("baseline", "", "directory with a baseline BENCH_service.json to gate against ('' = no gate)")
	)
	flag.Parse()

	s := newSoak(*addr, *seed, *sample)
	if err := s.run(*duration, *qps, *conc, *chaos, *panics, *storeErr, *stall); err != nil {
		log.Fatal(err)
	}
	violations := s.report(os.Stdout)

	f := s.benchFile(*duration, *qps)
	for _, v := range s.res.resourceReport(os.Stdout, f) {
		fmt.Printf("VIOLATION:  %s\n", v)
		violations++
	}
	if *baseline != "" {
		bv, err := telemetry.Gate(f, *baseline, gatedKeys)
		if err != nil {
			bv = append(bv, err.Error())
		}
		for _, v := range bv {
			fmt.Printf("VIOLATION:  %s\n", v)
			violations++
		}
		if len(bv) == 0 {
			fmt.Printf("baseline:   within tolerance of %s\n", *baseline)
		}
	}
	if path, err := f.WriteFile(*outDir); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("bench:      %s\n", path)
	}
	if violations > 0 {
		log.Fatalf("%d contract violation(s)", violations)
	}
	fmt.Println("soak passed: zero lost acknowledged jobs, pressure contained, resources bounded, clean drain")
}

// ackedJob is one acknowledged (202) submission the soak must see
// through to a terminal result.
type ackedJob struct {
	session string
	id      string
	acked   time.Time
}

// soak owns the load, the collected observations, and the verdict.
type soak struct {
	addr string
	// load is the raw client: no retries, so every 429/503 the server
	// emits is observed and accounted instead of absorbed.
	load *service.Client
	// ctl uses default retries for control-plane calls (session setup,
	// health polls) that should ride out injected pressure.
	ctl *service.Client
	// res samples goroutines/heap/journal through the soak and drain.
	res *sampler
	rng *rand.Rand

	mu          sync.Mutex
	submitLat   []float64 // seconds, successful submissions
	e2eLat      []float64 // seconds, submit → done
	acked       []ackedJob
	rejected429 []time.Time
	rejected503 []time.Time
	otherErrs   []string
	byKind      map[string]int
	outcomes    map[string]int
	lost        []string

	pressureFrom time.Time // zero = no chaos armed
	pressureTo   time.Time
	drainClean   bool
}

func newSoak(addr string, seed int64, sampleEvery time.Duration) *soak {
	s := &soak{
		addr:     addr,
		load:     service.NewClient(addr, service.WithoutRetries()),
		ctl:      service.NewClient(addr),
		rng:      rand.New(rand.NewSource(seed)),
		byKind:   make(map[string]int),
		outcomes: make(map[string]int),
	}
	s.res = newSampler(s.ctl, sampleEvery)
	return s
}

func (s *soak) run(duration time.Duration, qps float64, conc int, chaos bool, panics, storeErrs int, stall time.Duration) error {
	ctx := context.Background()
	h, err := s.ctl.Health(ctx)
	if err != nil {
		return fmt.Errorf("cleand unreachable at %s: %w", s.addr, err)
	}
	fmt.Printf("target:     %s (durable=%v, workers=%d, queue=%d)\n", s.addr, h.Durable, h.Workers, h.QueueCap)

	// The resource sampler brackets the whole soak: its first sample is
	// the pre-load baseline the leak SLOs measure growth from.
	s.res.start(ctx)

	sess, err := s.ctl.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 1})
	if err != nil {
		return fmt.Errorf("creating soak session: %w", err)
	}

	// One ticker feeds every submitter: the aggregate rate is qps no
	// matter how many submitters share it.
	interval := time.Duration(float64(time.Second) / qps)
	if interval <= 0 {
		interval = time.Millisecond
	}
	ticks := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		deadline := time.After(duration)
		for {
			select {
			case <-t.C:
				select {
				case ticks <- struct{}{}:
				default: // all submitters busy: shed the tick, don't queue bursts
				}
			case <-deadline:
				close(ticks)
				return
			}
		}
	}()

	// Mid-soak chaos: a third of the way in, inject worker panics, store
	// write failures and a worker stall that builds real queue pressure.
	if chaos {
		go func() {
			time.Sleep(duration / 3)
			ack, err := s.ctl.ArmChaos(ctx, apiv1.ChaosRequest{
				WorkerPanics: panics,
				StoreErrors:  storeErrs,
				StallSeconds: stall.Seconds(),
			})
			if err != nil {
				s.mu.Lock()
				s.otherErrs = append(s.otherErrs, fmt.Sprintf("arming chaos: %v", err))
				s.mu.Unlock()
				return
			}
			now := time.Now()
			s.mu.Lock()
			s.pressureFrom = now
			// 429s are legitimate while workers stall and for the drain of
			// the backlog the stall built up afterwards.
			s.pressureTo = now.Add(stall + 5*time.Second)
			s.mu.Unlock()
			fmt.Printf("chaos:      armed %d panics, %d store errors, %.1fs stall\n",
				ack.WorkerPanics, ack.StoreErrors, ack.StallSecondsRemaining)
		}()
	}

	// Waiters cap their own concurrency; litmus-sized jobs finish in
	// milliseconds so the pool never falls far behind the submitters.
	var submitters, waiters sync.WaitGroup
	waiterSlots := make(chan struct{}, 32)
	for i := 0; i < conc; i++ {
		submitters.Add(1)
		go func(worker int) {
			defer submitters.Done()
			for range ticks {
				spec, kind := s.nextSpec()
				key := service.NewIdempotencyKey()
				t0 := time.Now()
				job, err := s.load.SubmitWithKey(ctx, sess.ID, spec, key)
				lat := time.Since(t0).Seconds()
				if err != nil {
					s.recordReject(err)
					continue
				}
				a := ackedJob{session: sess.ID, id: job.ID, acked: t0}
				s.mu.Lock()
				s.submitLat = append(s.submitLat, lat)
				s.acked = append(s.acked, a)
				s.byKind[kind]++
				s.mu.Unlock()
				waiters.Add(1)
				waiterSlots <- struct{}{}
				go func() {
					defer func() { <-waiterSlots; waiters.Done() }()
					s.await(ctx, a)
				}()
			}
		}(i)
	}
	submitters.Wait()
	waiters.Wait()

	// Clean drain: with the load gone, the queue must empty promptly.
	drainDeadline := time.Now().Add(30 * time.Second)
	for {
		h, err := s.ctl.Health(ctx)
		if err == nil && h.QueueDepth == 0 {
			s.drainClean = true
			break
		}
		if time.Now().After(drainDeadline) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	// Post-drain: the sampler's final sample is what the goroutine/heap
	// leak SLOs compare against the pre-load baseline.
	s.res.halt(ctx)
	return nil
}

// await sees one acknowledged job through to a terminal result; a job
// that never produces one is lost — the violation this harness exists
// to catch.
func (s *soak) await(ctx context.Context, a ackedJob) {
	wctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	job, err := s.ctl.Wait(wctx, a.session, a.id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil || job.State != apiv1.JobDone || len(job.Runs) == 0 {
		s.lost = append(s.lost, fmt.Sprintf("%s: err=%v", a.id, err))
		return
	}
	s.e2eLat = append(s.e2eLat, time.Since(a.acked).Seconds())
	for _, r := range job.Runs {
		s.outcomes[r.Outcome]++
	}
}

func (s *soak) recordReject(err error) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var e *apiv1.Error
	switch {
	case asAPIError(err, &e) && e.Status == 429:
		s.rejected429 = append(s.rejected429, now)
	case asAPIError(err, &e) && e.Status == 503:
		s.rejected503 = append(s.rejected503, now)
	default:
		s.otherErrs = append(s.otherErrs, err.Error())
	}
}

func asAPIError(err error, out **apiv1.Error) bool {
	e, ok := err.(*apiv1.Error)
	if ok {
		*out = e
	}
	return ok
}

// nextSpec draws one job from the mix: litmus races and clean litmuses,
// generated two-thread programs, scripted schedule replays, and Go
// source lowered server-side — every submission surface the service
// has.
func (s *soak) nextSpec() (apiv1.JobSpec, string) {
	s.mu.Lock()
	roll := s.rng.Intn(100)
	pick := s.rng.Intn(1 << 30)
	s.mu.Unlock()
	switch {
	case roll < 40:
		names := []string{"waw", "raw-war", "locked-counter", "disjoint", "nested-locks", "chan-handoff"}
		return apiv1.JobSpec{Litmus: names[pick%len(names)]}, "litmus"
	case roll < 65:
		return apiv1.JobSpec{Program: genProgram(pick)}, "program"
	case roll < 80:
		// Witness replay: the scripted interleaving that races, and the
		// one that does not.
		schedules := [][]int{{0, 1}, {1, 0}}
		return apiv1.JobSpec{Litmus: "raw-war", Schedule: schedules[pick%2]}, "schedule"
	case roll < 90:
		// A generous deadline exercises the TTL plumbing; it only trips
		// while an injected stall holds the workers.
		return apiv1.JobSpec{Litmus: "waw", DeadlineSeconds: 20}, "deadline"
	default:
		return apiv1.JobSpec{GoSource: goSources[pick%len(goSources)]}, "gosource"
	}
}

// genProgram builds a small two-thread program; even picks lock the
// shared write (race-free), odd picks leave it racy.
func genProgram(pick int) string {
	locked := pick%2 == 0
	p := &prog.Program{Region: 64, Locks: 1, Threads: make([][]prog.Op, 2)}
	for th := range p.Threads {
		var ops []prog.Op
		if locked {
			ops = append(ops, prog.Op{Kind: prog.Lock, Lock: 0})
		}
		ops = append(ops,
			prog.Op{Kind: prog.Write, Off: 0, Size: 8},
			prog.Op{Kind: prog.Work, Work: 1 + pick%7},
			prog.Op{Kind: prog.Read, Off: 8, Size: 8},
		)
		if locked {
			ops = append(ops, prog.Op{Kind: prog.Unlock, Lock: 0})
		}
		p.Threads[th] = ops
	}
	return p.String()
}

// goSources are tiny gofront-subset inputs: a channel handoff that is
// race-free and an unsynchronized counter that races.
var goSources = []string{
	`package main

var data int64
var done = make(chan bool)

func main() {
	go func() {
		data = 42
		done <- true
	}()
	<-done
	println(data)
}
`,
	`package main

var counter int64

func main() {
	go func() {
		counter = counter + 1
	}()
	counter = counter + 1
}
`,
}

// report prints the verdict and returns the violation count.
func (s *soak) report(w *os.File) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	violations := 0

	fmt.Fprintf(w, "submitted:  %d acked, %d rejected 429, %d rejected 503, %d errors\n",
		len(s.acked), len(s.rejected429), len(s.rejected503), len(s.otherErrs))
	var kinds []string
	for k, n := range s.byKind {
		kinds = append(kinds, fmt.Sprintf("%s=%d", k, n))
	}
	fmt.Fprintf(w, "mix:        %s\n", strings.Join(kinds, " "))
	var outs []string
	for o, n := range s.outcomes {
		outs = append(outs, fmt.Sprintf("%s=%d", o, n))
	}
	fmt.Fprintf(w, "outcomes:   %s\n", strings.Join(outs, " "))
	fmt.Fprintf(w, "latency:    submit p50=%.1fms p95=%.1fms p99=%.1fms | e2e p50=%.1fms p95=%.1fms p99=%.1fms\n",
		1000*stats.Percentile(s.submitLat, 50), 1000*stats.Percentile(s.submitLat, 95), 1000*stats.Percentile(s.submitLat, 99),
		1000*stats.Percentile(s.e2eLat, 50), 1000*stats.Percentile(s.e2eLat, 95), 1000*stats.Percentile(s.e2eLat, 99))

	if n := len(s.lost); n > 0 {
		violations += n
		fmt.Fprintf(w, "VIOLATION:  %d acknowledged job(s) lost: %s\n", n, strings.Join(s.lost, "; "))
	}
	for _, ts := range s.rejected429 {
		if s.pressureFrom.IsZero() || ts.Before(s.pressureFrom) || ts.After(s.pressureTo) {
			violations++
			fmt.Fprintf(w, "VIOLATION:  429 at %s outside the injected pressure window\n", ts.Format(time.RFC3339Nano))
		}
	}
	for _, ts := range s.rejected503 {
		if s.pressureFrom.IsZero() || ts.Before(s.pressureFrom) {
			violations++
			fmt.Fprintf(w, "VIOLATION:  503 at %s without an injected store fault\n", ts.Format(time.RFC3339Nano))
		}
	}
	if n := len(s.otherErrs); n > 0 {
		violations += n
		fmt.Fprintf(w, "VIOLATION:  %d unexpected error(s): %s\n", n, strings.Join(s.otherErrs, "; "))
	}
	if !s.drainClean {
		violations++
		fmt.Fprintf(w, "VIOLATION:  queue did not drain after the load stopped\n")
	}
	return violations
}

// benchFile renders the soak as the schema-versioned BENCH_service
// document; the caller adds the resource curves and writes it out.
func (s *soak) benchFile(duration time.Duration, qps float64) *telemetry.BenchFile {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := telemetry.NewBenchFile("service")
	f.AddSummary("soak.duration_seconds", duration.Seconds())
	f.AddSummary("soak.target_qps", qps)
	f.AddSummary("soak.achieved_qps", float64(len(s.acked))/duration.Seconds())
	f.AddSummary("soak.jobs_acked", float64(len(s.acked)))
	f.AddSummary("soak.jobs_lost", float64(len(s.lost)))
	f.AddSummary("soak.rejected_429", float64(len(s.rejected429)))
	f.AddSummary("soak.rejected_503", float64(len(s.rejected503)))
	f.AddSummary("soak.errors_other", float64(len(s.otherErrs)))
	f.AddSummary("soak.submit_seconds.p50", stats.Percentile(s.submitLat, 50))
	f.AddSummary("soak.submit_seconds.p95", stats.Percentile(s.submitLat, 95))
	f.AddSummary("soak.submit_seconds.p99", stats.Percentile(s.submitLat, 99))
	f.AddSummary("soak.e2e_seconds.p50", stats.Percentile(s.e2eLat, 50))
	f.AddSummary("soak.e2e_seconds.p95", stats.Percentile(s.e2eLat, 95))
	f.AddSummary("soak.e2e_seconds.p99", stats.Percentile(s.e2eLat, 99))
	for o, n := range s.outcomes {
		f.AddSummary("soak.outcome."+o, float64(n))
	}
	drained := 0.0
	if s.drainClean {
		drained = 1
	}
	f.AddSummary("soak.drain_clean", drained)
	return f
}
