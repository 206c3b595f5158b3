package shadow

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/vclock"
)

var layout = vclock.DefaultLayout

func TestLoadUntouchedIsZero(t *testing.T) {
	r := New()
	if e := r.Load(12345); e != 0 {
		t.Fatalf("untouched epoch = %v, want 0", e)
	}
	if r.MappedPages() != 0 {
		t.Fatalf("Load must not materialize pages, got %d", r.MappedPages())
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	r := New()
	e := layout.Pack(3, 77)
	r.Store(999, e)
	if got := r.Load(999); got != e {
		t.Fatalf("Load = %v, want %v", got, e)
	}
	if got := r.Load(998); got != 0 {
		t.Fatalf("neighbour epoch = %v, want 0", got)
	}
}

func TestStoreAcrossPageBoundary(t *testing.T) {
	r := New()
	base := uint64(PageBytes - 2)
	e := layout.Pack(1, 1)
	r.StoreRange(base, 4, e)
	for i := uint64(0); i < 4; i++ {
		if got := r.Load(base + i); got != e {
			t.Fatalf("epoch at +%d = %v, want %v", i, got, e)
		}
	}
	if r.MappedPages() != 2 {
		t.Fatalf("MappedPages = %d, want 2", r.MappedPages())
	}
}

func TestCompareAndSwap(t *testing.T) {
	r := New()
	a := layout.Pack(1, 10)
	b := layout.Pack(2, 20)
	if !r.CompareAndSwap(5, 0, a) {
		t.Fatal("CAS from zero failed")
	}
	if r.CompareAndSwap(5, 0, b) {
		t.Fatal("CAS with stale old value succeeded")
	}
	if !r.CompareAndSwap(5, a, b) {
		t.Fatal("CAS with correct old value failed")
	}
	if got := r.Load(5); got != b {
		t.Fatalf("Load = %v, want %v", got, b)
	}
}

func TestLoadAllEqual(t *testing.T) {
	r := New()
	e := layout.Pack(4, 9)
	r.StoreRange(100, 8, e)
	got, eq, loads := r.LoadAllEqual(100, 8)
	if !eq || got != e || loads != 8 {
		t.Fatalf("LoadAllEqual = %v,%v,%d; want %v,true,8", got, eq, loads, e)
	}
	r.Store(103, layout.Pack(5, 9))
	if _, eq, loads := r.LoadAllEqual(100, 8); eq || loads != 4 {
		t.Fatalf("after divergent byte: eq=%v loads=%d, want false,4", eq, loads)
	}
	if _, eq, loads := r.LoadAllEqual(50, 0); !eq || loads != 0 {
		t.Fatal("empty range must be trivially equal with 0 loads")
	}
}

func TestLoadAllEqualUnmappedReadsAsZero(t *testing.T) {
	r := New()
	e, eq, loads := r.LoadAllEqual(1<<30, 8)
	if e != 0 || !eq || loads != 8 {
		t.Fatalf("unmapped LoadAllEqual = %v,%v,%d; want 0,true,8", e, eq, loads)
	}
	if r.MappedPages() != 0 {
		t.Fatalf("LoadAllEqual materialized %d pages", r.MappedPages())
	}
}

func TestLoadAllEqualAcrossPageBoundary(t *testing.T) {
	r := New()
	base := uint64(PageBytes - 3)
	e := layout.Pack(2, 5)
	r.StoreRange(base, 8, e)
	got, eq, loads := r.LoadAllEqual(base, 8)
	if !eq || got != e || loads != 8 {
		t.Fatalf("crossing LoadAllEqual = %v,%v,%d; want %v,true,8", got, eq, loads, e)
	}
	r.Store(base+5, layout.Pack(3, 5)) // divergence on the second page
	if _, eq, loads := r.LoadAllEqual(base, 8); eq || loads != 6 {
		t.Fatalf("crossing divergence: eq=%v loads=%d, want false,6", eq, loads)
	}
}

func TestCompareAndSwapRangeStopsOnConflict(t *testing.T) {
	r := New()
	old := layout.Pack(1, 1)
	r.StoreRange(0, 4, old)
	r.Store(0, layout.Pack(2, 2)) // conflicting update on the leading epoch
	if r.CompareAndSwapRange(0, 4, old, layout.Pack(1, 3)) {
		t.Fatal("range CAS should fail on the conflicting leading epoch")
	}
	// Trailing epochs must not have been updated.
	if got := r.Load(3); got != old {
		t.Fatalf("epoch past conflict was updated: %v", got)
	}
}

func TestCompareAndSwapRangeSucceeds(t *testing.T) {
	r := New()
	old := layout.Pack(1, 1)
	nw := layout.Pack(1, 2)
	r.StoreRange(8, 8, old)
	if !r.CompareAndSwapRange(8, 8, old, nw) {
		t.Fatal("range CAS failed on matching epochs")
	}
	for i := uint64(8); i < 16; i++ {
		if got := r.Load(i); got != nw {
			t.Fatalf("epoch %d = %v, want %v", i, got, nw)
		}
	}
	if r.CompareAndSwapRange(0, 0, old, nw) != true {
		t.Fatal("empty range CAS must trivially succeed")
	}
}

func TestCompareAndSwapRangeAcrossPageBoundary(t *testing.T) {
	r := New()
	base := uint64(2*PageBytes - 4)
	old := layout.Pack(1, 1)
	nw := layout.Pack(1, 2)
	r.StoreRange(base, 8, old)
	if !r.CompareAndSwapRange(base, 8, old, nw) {
		t.Fatal("crossing range CAS failed")
	}
	for i := uint64(0); i < 8; i++ {
		if got := r.Load(base + i); got != nw {
			t.Fatalf("epoch +%d = %v, want %v", i, got, nw)
		}
	}
}

func TestReset(t *testing.T) {
	r := New()
	r.Store(1, layout.Pack(1, 1))
	r.Store(PageBytes*3, layout.Pack(2, 2))
	if r.MappedPages() != 2 {
		t.Fatalf("MappedPages = %d, want 2", r.MappedPages())
	}
	r.Reset()
	if r.Load(1) != 0 || r.Load(PageBytes*3) != 0 {
		t.Fatal("epochs survived Reset")
	}
	if r.MappedPages() != 0 {
		t.Fatalf("pages survived Reset: %d", r.MappedPages())
	}
	// The last-page cache must not resurrect a dropped page.
	if r.CompareAndSwap(1, layout.Pack(1, 1), layout.Pack(1, 9)) {
		t.Fatal("CAS against a pre-Reset epoch succeeded")
	}
}

func TestMetadataBytes(t *testing.T) {
	r := New()
	r.Store(0, 1)
	// One mapped page (a compact epoch per line) plus one expanded line
	// (the divergent store of epoch 1 over the line's compact zero).
	want := LinesPerPage*4 + LineBytes*4
	if got := r.MetadataBytes(); got != want {
		t.Fatalf("MetadataBytes = %d, want %d", got, want)
	}
	// Collapsing the line back (full-line store) drops the expanded share.
	r.StoreRange(0, LineBytes, 1)
	if got, want := r.MetadataBytes(), LinesPerPage*4; got != want {
		t.Fatalf("after collapse: MetadataBytes = %d, want %d", got, want)
	}
}

// The adaptive representation must expand exactly on divergence and
// collapse exactly on full-line coverage / uniformity (Fig. 5).
func TestAdaptiveExpandCollapse(t *testing.T) {
	r := New()
	e1, e2 := layout.Pack(1, 1), layout.Pack(2, 2)

	// A full-line store keeps the line compact.
	r.StoreRange(0, LineBytes, e1)
	if f := r.Footprint(); f.LinesExpanded != 0 || f.LinesCompact != LinesPerPage {
		t.Fatalf("after full-line store: %+v", f)
	}
	// Storing the line's own epoch stays compact.
	r.Store(5, e1)
	if f := r.Footprint(); f.LinesExpanded != 0 {
		t.Fatalf("same-epoch store expanded the line: %+v", f)
	}
	// A divergent byte expands the line and preserves its neighbours.
	r.Store(5, e2)
	if f := r.Footprint(); f.LinesExpanded != 1 {
		t.Fatalf("divergent store did not expand: %+v", f)
	}
	if r.Load(4) != e1 || r.Load(5) != e2 || r.Load(6) != e1 {
		t.Fatalf("copy-out lost neighbours: %v %v %v", r.Load(4), r.Load(5), r.Load(6))
	}
	// A partial store that makes the line uniform re-compacts it.
	r.Store(5, e1)
	if f := r.Footprint(); f.LinesExpanded != 1 {
		t.Fatalf("single-byte store should not recompact: %+v", f)
	}
	r.StoreRange(0, 8, e1) // partial range store leaves the line uniform
	if f := r.Footprint(); f.LinesExpanded != 0 {
		t.Fatalf("uniform partial store did not recompact: %+v", f)
	}
	if got, eq, loads := r.LoadAllEqual(0, LineBytes); !eq || got != e1 || loads != LineBytes {
		t.Fatalf("recompacted line: LoadAllEqual = %v,%v,%d", got, eq, loads)
	}
}

// Word-packed scanning of expanded lines must report the exact per-byte
// mismatch index for every alignment, including odd offsets and mismatches
// in either half of a packed word.
func TestExpandedScanMismatchIndex(t *testing.T) {
	e1, e2 := layout.Pack(1, 1), layout.Pack(2, 2)
	for mismatch := 0; mismatch < 24; mismatch++ {
		for start := 0; start <= mismatch; start++ {
			r := New()
			r.StoreRange(0, 64, e1)
			r.Store(uint64(mismatch), e2) // expands the line
			n := 24 - start
			_, eq, loads := r.LoadAllEqual(uint64(start), n)
			wantEq, wantLoads := true, n
			switch {
			case mismatch == start && n > 1:
				// e0 is the divergent epoch itself; the mismatch is the
				// first byte after it.
				wantEq, wantLoads = false, 2
			case mismatch > start && mismatch-start < n:
				wantEq, wantLoads = false, mismatch-start+1
			}
			if eq != wantEq || loads != wantLoads {
				t.Fatalf("start=%d mismatch=%d n=%d: eq=%v loads=%d, want %v,%d",
					start, mismatch, n, eq, loads, wantEq, wantLoads)
			}
		}
	}
}

// Released pages recycle through the free list: a second region (or a
// reset region) re-materializes without growing the pool miss counter.
func TestPagePoolRecycles(t *testing.T) {
	r := New()
	e := layout.Pack(1, 1)
	r.StoreRange(0, PageBytes*2, e)
	r.Store(3, layout.Pack(2, 2)) // force one expansion so bytes are attached
	before := Global()
	r.Release()
	after := Global()
	if after.PoolPuts < before.PoolPuts+2 && after.PoolDrops == before.PoolDrops {
		t.Fatalf("release parked no pages: before=%+v after=%+v", before, after)
	}
	// Re-materialize: should be served by the list (hits grow, misses flat)
	// unless the pool was already full and the pages were dropped.
	if after.PoolPages > 0 {
		misses := after.PoolMisses
		r2 := New()
		r2.StoreRange(0, PageBytes, e)
		if g := Global(); g.PoolMisses != misses {
			t.Fatalf("re-materialization missed the pool: %+v", g)
		}
		// A recycled page must read as zero epochs.
		if got := r2.Load(PageBytes - 1); got != e {
			t.Fatalf("recycled page lost the new store: %v", got)
		}
		r2.Release()
	}
	// Reset also recycles and the region stays usable.
	r.StoreRange(0, 64, e)
	r.Reset()
	if r.Load(0) != 0 || r.MappedPages() != 0 {
		t.Fatal("reset region not clean")
	}
}

// Release must drive the region's share of the global live gauges back to
// where it started, so long-lived service processes report flat curves.
func TestGlobalGaugesReturnToBaseline(t *testing.T) {
	before := Global()
	r := New()
	r.StoreRange(0, PageBytes*3, layout.Pack(1, 1))
	r.Store(1, layout.Pack(2, 2))
	mid := Global()
	if mid.MappedPages < before.MappedPages+3 {
		t.Fatalf("mapped pages gauge did not grow: %+v -> %+v", before, mid)
	}
	r.Release()
	after := Global()
	if after.MappedPages != before.MappedPages || after.LinesExpanded != before.LinesExpanded {
		t.Fatalf("gauges did not return to baseline: before=%+v after=%+v", before, after)
	}
}

// Property: a store is observed by a subsequent load at the same address
// and at no other address.
func TestStoreIsolationProperty(t *testing.T) {
	f := func(addr uint32, tid uint8, clock uint32, other uint32) bool {
		r := New()
		e := layout.Pack(int(tid), clock&layout.MaxClock())
		r.Store(uint64(addr), e)
		if r.Load(uint64(addr)) != e {
			return false
		}
		if other != addr && r.Load(uint64(other)) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The access path must be allocation-free once a page is mapped: this is
// the zero-allocation guarantee the detector hot path builds on. The
// compact-line paths are covered here (StoreRange(0,64) collapses line 0).
func TestHotPathZeroAllocs(t *testing.T) {
	r := New()
	e := layout.Pack(1, 1)
	r.StoreRange(0, 64, e)
	checks := map[string]func(){
		"Load":                func() { _ = r.Load(7) },
		"Store":               func() { r.Store(7, e) },
		"CompareAndSwap":      func() { r.CompareAndSwap(7, e, e) },
		"LoadAllEqual":        func() { _, _, _ = r.LoadAllEqual(8, 8) },
		"CompareAndSwapRange": func() { r.CompareAndSwapRange(8, 8, e, e) },
		"StoreRange":          func() { r.StoreRange(8, 8, e) },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", name, allocs)
		}
	}
}

// Expanded-line traffic — divergent stores, word scans over per-byte
// epochs, expansion and recompaction cycles — must also be allocation-free
// once the page's per-byte store exists.
func TestExpandedPathZeroAllocs(t *testing.T) {
	r := New()
	e1, e2 := layout.Pack(1, 1), layout.Pack(2, 2)
	r.StoreRange(0, 64, e1)
	r.Store(3, e2) // attach the per-byte store
	checks := map[string]func(){
		"LoadExpanded":        func() { _ = r.Load(3) },
		"StoreExpanded":       func() { r.Store(3, e2) },
		"ScanExpanded":        func() { _, _, _ = r.LoadAllEqual(0, 8) },
		"ExpandCollapseCycle": func() { r.Store(70, e2); r.StoreRange(64, 64, e1) },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", name, allocs)
		}
	}
}

// Reset with pool recycling must be allocation-free in the steady state:
// pages park on the free list and the next era re-materializes from it
// (including the re-expansion, since recycled pages keep their per-byte
// arrays attached).
func TestResetRecycleZeroAllocs(t *testing.T) {
	r := New()
	e1, e2 := layout.Pack(1, 1), layout.Pack(2, 2)
	cycle := func() {
		r.StoreRange(0, PageBytes, e1)
		r.Store(5, e2) // divergence → expansion
		r.Reset()
	}
	cycle() // warm-up: attach byte arrays, populate the pool
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("reset/recycle cycle allocates %.1f per op, want 0", allocs)
	}
}

// TestConcurrentRegionsSharePool drives the concurrency the shadow really
// has: separate regions on separate goroutines, as the service's and the
// parallel harness's concurrent jobs hold them, sharing the page pool and
// the global gauges while another goroutine polls Global. Each region
// stores, makes a line diverge, resets, stores again and releases, reading
// its own epochs back after every step; a page handed to two regions at
// once would fail a read-back (and, under -race, race on the page). Once
// every region is released the live gauges are back where they started.
func TestConcurrentRegionsSharePool(t *testing.T) {
	const workers, rounds, pages = 8, 40, 3
	before := Global()
	limit := before.MappedPages + workers*pages

	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			if g := Global(); g.MappedPages > limit || g.LinesExpanded > limit {
				t.Errorf("gauges past this test's %d pages: %+v", workers*pages, g)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := New()
			// readBack reports whether every sampled byte holds want,
			// except the byte at odd (none: no byte), which holds oddE.
			const none = ^uint64(0)
			readBack := func(step string, want vclock.Epoch, odd uint64, oddE vclock.Epoch) bool {
				for p := uint64(0); p < pages; p++ {
					for a := p * PageBytes; a < (p+1)*PageBytes; a += LineBytes / 2 {
						e := want
						if a == odd {
							e = oddE
						}
						if got := r.Load(a); got != e {
							t.Errorf("worker %d, %s: Load(%d) = %v, want %v", w, step, a, got, e)
							return false
						}
					}
				}
				return true
			}
			for round := 0; round < rounds; round++ {
				e := layout.Pack(w, uint32(round+1))
				d := layout.Pack(w, uint32(round+2))
				r.StoreRange(0, pages*PageBytes, e)
				if !readBack("store", e, none, 0) {
					return
				}
				odd := uint64(round%pages)*PageBytes + LineBytes
				r.Store(odd, d)
				if !readBack("diverge", e, odd, d) {
					return
				}
				if _, eq, loads := r.LoadAllEqual(odd-1, 3); eq || loads != 2 {
					t.Errorf("worker %d: diverged line reads eq=%v loads=%d, want false,2", w, eq, loads)
					return
				}
				r.Reset()
				if !readBack("reset", 0, none, 0) {
					return
				}
				r.StoreRange(0, pages*PageBytes, d)
				if !readBack("store after reset", d, none, 0) {
					return
				}
				r.Release()
				if n := r.MappedPages(); n != 0 {
					t.Errorf("worker %d: released region still maps %d pages", w, n)
					return
				}
				if !readBack("release", 0, none, 0) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-polled
	after := Global()
	if after.MappedPages != before.MappedPages || after.LinesExpanded != before.LinesExpanded {
		t.Fatalf("gauges did not return to baseline: before=%+v after=%+v", before, after)
	}
}

func BenchmarkLoad(b *testing.B) {
	r := New()
	r.Store(100, layout.Pack(1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Load(100)
	}
}

func BenchmarkLoadAllEqual8(b *testing.B) {
	r := New()
	r.StoreRange(100, 8, layout.Pack(1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = r.LoadAllEqual(100, 8)
	}
}

func BenchmarkCAS(b *testing.B) {
	r := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := layout.Pack(1, uint32(i)&layout.MaxClock())
		r.CompareAndSwap(100, r.Load(100), e)
	}
}

func BenchmarkCASRange8(b *testing.B) {
	r := New()
	prev := vclock.Epoch(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := layout.Pack(1, uint32(i+1)&layout.MaxClock())
		r.CompareAndSwapRange(256, 8, prev, e)
		prev = e
	}
}

func BenchmarkStoreRange8(b *testing.B) {
	r := New()
	e := layout.Pack(1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.StoreRange(512, 8, e)
	}
}

// BenchmarkLoadAllEqual8Compact measures the 8-byte check when the line is
// compact: one epoch compare validates the whole access.
func BenchmarkLoadAllEqual8Compact(b *testing.B) {
	r := New()
	r.StoreRange(64, 64, layout.Pack(1, 1)) // full line → compact
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = r.LoadAllEqual(100, 8)
	}
}

// BenchmarkLoadAllEqual64Line measures a whole-line check on a compact
// line — the paper's line-level vector compare in one comparison.
func BenchmarkLoadAllEqual64Line(b *testing.B) {
	r := New()
	r.StoreRange(64, 64, layout.Pack(1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = r.LoadAllEqual(64, 64)
	}
}

// BenchmarkStoreRange64Collapse measures a full-line store, which writes
// one compact epoch instead of 64.
func BenchmarkStoreRange64Collapse(b *testing.B) {
	r := New()
	e1, e2 := layout.Pack(1, 1), layout.Pack(1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			r.StoreRange(128, 64, e1)
		} else {
			r.StoreRange(128, 64, e2)
		}
	}
}

// BenchmarkResetRecycle measures a touch-then-reset cycle over four pages:
// the steady state is four pool round-trips and header scrubs, no
// allocation.
func BenchmarkResetRecycle(b *testing.B) {
	r := New()
	e := layout.Pack(1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.StoreRange(0, PageBytes*4, e)
		r.Reset()
	}
}

// BenchmarkLoadPageSpread measures the last-page cache under page-switching
// traffic: alternating accesses across pages defeat the cache and pay the
// map lookup.
func BenchmarkLoadPageSpread(b *testing.B) {
	r := New()
	for p := 0; p < 16; p++ {
		r.Store(uint64(p)*PageBytes, layout.Pack(1, 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Load(uint64(i%16) * PageBytes)
	}
}
