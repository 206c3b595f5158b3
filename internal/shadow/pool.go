// Shadow-page free list and process-wide footprint accounting.
//
// The paper's rollover reset (§4.5) remaps epoch pages to the kernel zero
// page — the physical frames stay allocated and are reused for the next
// epoch era. This file is the software analogue: released pages park on a
// bounded free list with their expensive per-byte arrays still attached,
// and the next region (the next service job, or the same region after a
// rollover Reset) re-materializes out of the list instead of the garbage
// collector. getPage zeroes only the 264-byte adaptive header (line
// epochs + expansion bitmap), never the 16 KiB per-byte store — exactly
// the remap-not-rewrite trade the paper makes — which is what keeps
// steady-state shadow allocation at ~zero under sustained service load.
//
// The package-level gauges below track live footprint across ALL
// unreleased regions in the process; the service /metrics snapshot and the
// cleanstress soak curves read them through Global.
package shadow

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// poolCap bounds the free list. 1024 pages ≈ 4 MiB of data coverage; with
// per-byte arrays attached a full list retains ≤ ~17 MiB, a deliberate
// ceiling on memory parked for reuse.
const poolCap = 1024

var pagePool struct {
	mu    sync.Mutex
	pages []*page
}

// Live footprint across all unreleased regions.
var (
	gMappedPages   atomic.Int64
	gExpandedLines atomic.Int64
	gExpansions    atomic.Uint64
	gCollapses     atomic.Uint64
)

// Free-list traffic counters.
var (
	gPoolHits   atomic.Uint64
	gPoolMisses atomic.Uint64
	gPoolPuts   atomic.Uint64
	gPoolDrops  atomic.Uint64
)

// getPage returns a zero-state adaptive page, recycling from the free list
// when possible. Recycled pages keep their per-byte arrays: only the
// compact header is scrubbed, so a pool hit costs a 264-byte clear and
// re-expansion after a hit allocates nothing.
func getPage() *page {
	pagePool.mu.Lock()
	n := len(pagePool.pages)
	if n == 0 {
		pagePool.mu.Unlock()
		gPoolMisses.Add(1)
		return new(page)
	}
	p := pagePool.pages[n-1]
	pagePool.pages[n-1] = nil
	pagePool.pages = pagePool.pages[:n-1]
	pagePool.mu.Unlock()
	gPoolHits.Add(1)
	p.lineEpoch = [LinesPerPage]uint32{}
	p.expanded = 0
	return p
}

// putPage parks a released page on the free list, dropping it to the
// garbage collector when the list is full.
func putPage(p *page) {
	pagePool.mu.Lock()
	if len(pagePool.pages) < poolCap {
		pagePool.pages = append(pagePool.pages, p)
		pagePool.mu.Unlock()
		gPoolPuts.Add(1)
		return
	}
	pagePool.mu.Unlock()
	gPoolDrops.Add(1)
}

// GlobalStats is a snapshot of process-wide shadow footprint: the live
// gauges summed over every unreleased Region plus free-list state. The
// service exports it at /metrics; a flat MappedPages/MetadataBytes curve
// under sustained load is the recycling working as designed.
type GlobalStats struct {
	MappedPages   int64  // pages live in unreleased regions
	LinesCompact  int64  // live lines in compact form
	LinesExpanded int64  // live lines in per-byte form
	MetadataBytes int64  // logical live metadata bytes (see Region.MetadataBytes)
	Expansions    uint64 // cumulative compact→expanded transitions
	Collapses     uint64 // cumulative expanded→compact transitions

	PoolPages         int    // pages parked on the free list
	PoolRetainedBytes int64  // physical bytes retained by parked pages
	PoolHits          uint64 // materializations served from the list
	PoolMisses        uint64 // materializations that had to allocate
	PoolPuts          uint64 // pages parked by Release/Reset
	PoolDrops         uint64 // pages dropped because the list was full
}

// HitRate returns the fraction of page materializations served by the free
// list, in [0,1]; 0 when nothing has been materialized yet.
func (g GlobalStats) HitRate() float64 {
	total := g.PoolHits + g.PoolMisses
	if total == 0 {
		return 0
	}
	return float64(g.PoolHits) / float64(total)
}

// Global returns the current process-wide shadow footprint snapshot.
// Gauges are read individually and can be momentarily inconsistent with
// each other under concurrent mutation; negative transients clamp to zero.
func Global() GlobalStats {
	pages := gMappedPages.Load()
	expanded := gExpandedLines.Load()
	if pages < 0 {
		pages = 0
	}
	if expanded < 0 {
		expanded = 0
	}
	compact := pages*LinesPerPage - expanded
	if compact < 0 {
		compact = 0
	}
	g := GlobalStats{
		MappedPages:   pages,
		LinesCompact:  compact,
		LinesExpanded: expanded,
		MetadataBytes: pages*LinesPerPage*4 + expanded*LineBytes*4,
		Expansions:    gExpansions.Load(),
		Collapses:     gCollapses.Load(),
		PoolHits:      gPoolHits.Load(),
		PoolMisses:    gPoolMisses.Load(),
		PoolPuts:      gPoolPuts.Load(),
		PoolDrops:     gPoolDrops.Load(),
	}
	pagePool.mu.Lock()
	g.PoolPages = len(pagePool.pages)
	for _, p := range pagePool.pages {
		g.PoolRetainedBytes += int64(unsafe.Sizeof(page{}))
		if p.bytes != nil {
			g.PoolRetainedBytes += PageBytes * 4
		}
	}
	pagePool.mu.Unlock()
	return g
}
