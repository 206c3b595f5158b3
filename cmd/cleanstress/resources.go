// Resource-SLO instrumentation for the soak: a background sampler
// polls the server's live /metrics gauges (goroutines, heap, journal
// size) through the whole soak including the drain, periodically
// validates the Prometheus text exposition, and the analysis turns the
// series into growth curves plus unbounded-growth violations. A
// checked-in baseline (testdata/service-baseline/) gates regressions
// with generous tolerance bands — the gate catches order-of-magnitude
// drift on shared CI runners, not microsecond noise.
package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// resourceSample is one poll of the server's live instruments.
type resourceSample struct {
	at            time.Time
	goroutines    float64
	heapBytes     float64
	journalBytes  float64
	shadowPages   float64 // shadow.mapped_pages: live pages across in-flight jobs
	shadowMeta    float64 // shadow.metadata_bytes: logical live metadata
	shadowHitRate float64 // shadow.pool_hit_rate: page-pool recycling efficiency
}

// sampler polls /metrics on an interval and keeps the series. The
// control-plane client retries, so a sample rides out injected
// pressure instead of punching a hole in the curve.
type sampler struct {
	ctl      *service.Client
	interval time.Duration

	mu          sync.Mutex
	samples     []resourceSample
	promChecked int
	promErrs    []string

	stop chan struct{}
	done chan struct{}
}

func newSampler(ctl *service.Client, interval time.Duration) *sampler {
	return &sampler{
		ctl:      ctl,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// start begins sampling; the first sample is taken synchronously so
// the series always has a pre-load baseline point.
func (sm *sampler) start(ctx context.Context) {
	sm.sample(ctx)
	go func() {
		defer close(sm.done)
		t := time.NewTicker(sm.interval)
		defer t.Stop()
		n := 0
		for {
			select {
			case <-t.C:
				sm.sample(ctx)
				// Validate the Prometheus exposition every ~2s of soak:
				// a malformed line anywhere in the registry is a bug no
				// matter when it appears.
				if n++; n%8 == 0 {
					sm.checkProm(ctx)
				}
			case <-sm.stop:
				return
			}
		}
	}()
}

// halt stops the ticker, takes one final post-drain sample (the value
// the leak SLOs judge), and runs one last exposition check.
func (sm *sampler) halt(ctx context.Context) {
	close(sm.stop)
	<-sm.done
	sm.sample(ctx)
	sm.checkProm(ctx)
}

func (sm *sampler) sample(ctx context.Context) {
	m, err := sm.ctl.Metrics(ctx)
	if err != nil {
		return // a missed poll thins the curve; the SLOs use what landed
	}
	s := resourceSample{
		at:            time.Now(),
		goroutines:    m.Metrics.Gauges["process.goroutines"],
		heapBytes:     m.Metrics.Gauges["process.heap_alloc_bytes"],
		journalBytes:  m.Metrics.Gauges["store.journal_bytes"],
		shadowPages:   m.Metrics.Gauges["shadow.mapped_pages"],
		shadowMeta:    m.Metrics.Gauges["shadow.metadata_bytes"],
		shadowHitRate: m.Metrics.Gauges["shadow.pool_hit_rate"],
	}
	sm.mu.Lock()
	sm.samples = append(sm.samples, s)
	sm.mu.Unlock()
}

func (sm *sampler) checkProm(ctx context.Context) {
	text, err := sm.ctl.MetricsText(ctx)
	if err == nil {
		err = telemetry.CheckPrometheusText(text)
	}
	sm.mu.Lock()
	sm.promChecked++
	if err != nil {
		sm.promErrs = append(sm.promErrs, err.Error())
	}
	sm.mu.Unlock()
}

// curvePoints are the positions along the soak timeline each growth
// curve is summarized at: p0 is the pre-load sample, p100 the
// post-drain sample.
var curvePoints = []int{0, 25, 50, 75, 100}

// curve picks the series value at each timeline position.
func curve(samples []resourceSample, get func(resourceSample) float64) map[int]float64 {
	out := make(map[int]float64, len(curvePoints))
	n := len(samples)
	if n == 0 {
		return out
	}
	for _, p := range curvePoints {
		out[p] = get(samples[(n-1)*p/100])
	}
	return out
}

func seriesMax(samples []resourceSample, get func(resourceSample) float64) float64 {
	max := 0.0
	for _, s := range samples {
		if v := get(s); v > max {
			max = v
		}
	}
	return max
}

// Resource SLOs: the absolute unbounded-growth tripwires. They are
// deliberately loose — a leak that matters blows through them in a 20s
// soak; honest jitter never does.
const (
	maxGoroutineGrowth = 25               // post-drain goroutines over the pre-load count
	maxHeapGrowthBytes = 64 << 20         // post-drain heap over max(3x start, start+this)
	maxJournalBytes    = 64 << 20         // peak journal size (auto-compaction holds it ~8 MiB)
	maxShadowPageDrift = 64               // post-drain live shadow pages over the pre-load count
	mib                = float64(1 << 20) // for messages
)

// resourceReport writes the growth-curve summary keys into the bench
// file and returns the unbounded-growth / exposition violations.
func (sm *sampler) resourceReport(w *os.File, f *telemetry.BenchFile) []string {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	var violations []string

	if len(sm.samples) < 2 {
		return append(violations, fmt.Sprintf("resource sampler collected %d samples; cannot judge growth", len(sm.samples)))
	}
	first, last := sm.samples[0], sm.samples[len(sm.samples)-1]

	curves := []struct {
		name string
		get  func(resourceSample) float64
	}{
		{"goroutines", func(s resourceSample) float64 { return s.goroutines }},
		{"heap_bytes", func(s resourceSample) float64 { return s.heapBytes }},
		{"journal_bytes", func(s resourceSample) float64 { return s.journalBytes }},
		{"shadow_pages", func(s resourceSample) float64 { return s.shadowPages }},
		{"shadow_meta_bytes", func(s resourceSample) float64 { return s.shadowMeta }},
	}
	for _, c := range curves {
		for p, v := range curve(sm.samples, c.get) {
			f.AddSummary(fmt.Sprintf("soak.curve.%s.p%d", c.name, p), v)
		}
		f.AddSummary("soak.curve."+c.name+".max", seriesMax(sm.samples, c.get))
	}
	f.AddSummary("soak.resource_samples", float64(len(sm.samples)))
	f.AddSummary("soak.prom_scrapes_checked", float64(sm.promChecked))
	f.AddSummary("soak.prom_scrape_errors", float64(len(sm.promErrs)))
	f.AddSummary("soak.shadow_pool_hit_rate", last.shadowHitRate)

	fmt.Fprintf(w, "resources:  goroutines %d→%d, heap %.1f→%.1f MiB, journal peak %.1f MiB (%d samples)\n",
		int(first.goroutines), int(last.goroutines), first.heapBytes/mib, last.heapBytes/mib,
		seriesMax(sm.samples, curves[2].get)/mib, len(sm.samples))
	fmt.Fprintf(w, "shadow:     pages %d→%d (peak %d), meta peak %.1f MiB, pool hit rate %.2f\n",
		int(first.shadowPages), int(last.shadowPages), int(seriesMax(sm.samples, curves[3].get)),
		seriesMax(sm.samples, curves[4].get)/mib, last.shadowHitRate)

	// Unbounded-growth tripwires, judged start → post-drain.
	if last.goroutines > first.goroutines+maxGoroutineGrowth {
		violations = append(violations, fmt.Sprintf(
			"goroutines grew %d → %d over the soak (leak cap +%d)",
			int(first.goroutines), int(last.goroutines), maxGoroutineGrowth))
	}
	heapCap := 3 * first.heapBytes
	if lo := first.heapBytes + maxHeapGrowthBytes; lo > heapCap {
		heapCap = lo
	}
	if last.heapBytes > heapCap {
		violations = append(violations, fmt.Sprintf(
			"heap grew %.1f MiB → %.1f MiB over the soak (cap %.1f MiB)",
			first.heapBytes/mib, last.heapBytes/mib, heapCap/mib))
	}
	if peak := seriesMax(sm.samples, curves[2].get); peak > maxJournalBytes {
		violations = append(violations, fmt.Sprintf(
			"journal peaked at %.1f MiB (cap %.1f MiB); compaction is not holding",
			peak/mib, float64(maxJournalBytes)/mib))
	}
	// Shadow flatness: job paths release their regions on completion, so
	// after the drain the live page gauge must be back at its pre-load
	// level (mid-soak values track in-flight jobs and are not leaks).
	if last.shadowPages > first.shadowPages+maxShadowPageDrift {
		violations = append(violations, fmt.Sprintf(
			"shadow pages grew %d → %d over the soak (drift cap +%d); a job path is not releasing its region",
			int(first.shadowPages), int(last.shadowPages), maxShadowPageDrift))
	}

	// Exposition validity: every scrape must parse, and at least one
	// must have happened or the check proved nothing.
	if sm.promChecked == 0 {
		violations = append(violations, "no Prometheus exposition scrape was validated")
	}
	for _, e := range sm.promErrs {
		violations = append(violations, "invalid Prometheus exposition: "+e)
	}
	return violations
}

// gatedKeys are the baseline-compared quantities, each allowed up to
// max(factor × base, base + slack). Latency bands absorb an order of
// magnitude of shared-runner noise; resource bands absorb GC timing;
// anything beyond that is a real regression.
var gatedKeys = []telemetry.Band{
	{Key: "soak.submit_seconds.p95", Factor: 10, Slack: 5.0},
	{Key: "soak.submit_seconds.p99", Factor: 10, Slack: 5.0},
	{Key: "soak.e2e_seconds.p95", Factor: 10, Slack: 5.0},
	{Key: "soak.e2e_seconds.p99", Factor: 10, Slack: 5.0},
	{Key: "soak.curve.goroutines.p100", Factor: 2, Slack: 50},
	{Key: "soak.curve.heap_bytes.max", Factor: 3, Slack: 64 << 20},
	{Key: "soak.curve.journal_bytes.max", Factor: 3, Slack: 32 << 20},
	{Key: "soak.curve.shadow_pages.p100", Factor: 2, Slack: 64},
	{Key: "soak.curve.shadow_meta_bytes.max", Factor: 3, Slack: 8 << 20},
}
