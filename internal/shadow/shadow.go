// Package shadow implements CLEAN's software epoch region (§4.2): one
// 32-bit epoch per byte of program data, at a fixed offset from the data
// address, so EPOCH_ADDRESS is a shift-and-add.
//
// The paper reserves a large fixed region of virtual address space and
// relies on demand paging so that only epochs for touched data consume
// physical memory; the deterministic rollover reset (§4.5) then remaps all
// epoch pages to the kernel zero page instead of writing zeroes. This
// package reproduces both properties with a lazily populated page table:
// untouched pages cost nothing, and Reset drops every page in O(pages).
//
// On top of the page table the region is adaptive-granularity, modelling
// the compact/expanded epoch lines of the paper's Fig. 5: each 64-byte
// line of a page holds a single compact epoch while all of its bytes
// agree, and expands to a per-byte epoch array only on the first divergent
// store (a dedup-style copy-out of the compact value). Range stores that
// cover a whole line collapse it back to compact form, partial stores
// re-compact opportunistically when they leave the line uniform, and Reset
// recompacts everything by construction. The shape this buys:
//
//   - LoadAllEqual over a compact line is ONE epoch compare, the software
//     analogue of the paper's line-level vector check (§4.4) — and the
//     common case, since >99.7% of multi-byte accesses see uniform epochs.
//   - Expanded lines are scanned word-at-a-time: the per-byte epochs are
//     backed by a uint64 array (two packed epochs per word), so an 8-byte
//     check is four word compares instead of eight 32-bit loads.
//   - Pages are recycled through a process-wide free list (see pool.go),
//     so steady-state serving re-materializes shadow for each job out of
//     the pool instead of the garbage collector.
//
// The region is structured as a page-handle fast lane: every operation
// resolves its page exactly once and then works on the page's line table
// directly, and a last-page cache — the same trick ThreadSanitizer's
// direct-mapped shadow plays with its application/shadow offset — makes
// the common same-page access skip the page table entirely.
//
// A region is not synchronized. The cooperative machine dispatches one
// thread at a time, so every detector check is already serialized, and the
// region uses plain loads and stores: the compare-and-swap of §4.3 is
// atomic because nothing else runs while it does. Separate regions may be
// used from different goroutines at once (the service's and the parallel
// harness's concurrent jobs do); they share only the page pool and the
// global gauges of pool.go, which are synchronized.
//
// Every multi-byte operation reports per-byte-equivalent epoch-load
// counts: a compact line validated by one compare still counts as having
// inspected each covered byte, so core.Stats.EpochLoads — and the golden
// run reports pinned on it — are independent of the compact/expanded state
// a line happens to be in.
package shadow

import (
	"unsafe"

	"repro/internal/vclock"
)

// PageShift is log2(PageBytes); the page index of an address is one shift.
const PageShift = 12

// PageBytes is the number of data bytes covered by one shadow page. Each
// page backs up to PageBytes epochs (4×PageBytes metadata bytes when fully
// expanded, mirroring the 1:4 data:metadata ratio of §4.2) but only
// LinesPerPage compact epochs while its lines are uniform.
const PageBytes = 1 << PageShift

// pageMask extracts the intra-page offset of an address.
const pageMask = PageBytes - 1

// LineShift is log2(LineBytes); the line index of an intra-page offset is
// one shift.
const LineShift = 6

// LineBytes is the number of data bytes covered by one epoch line — the
// cache-line granularity of the paper's Fig. 5 compact entries.
const LineBytes = 1 << LineShift

// LinesPerPage is the number of epoch lines in one shadow page.
const LinesPerPage = PageBytes / LineBytes

// wordsPerLine is the number of packed uint64 words backing one expanded
// line: two 32-bit epochs per word.
const wordsPerLine = LineBytes / 2

// Region is the epoch shadow for a simulated address space. The zero value
// is not ready for use; call New.
type Region struct {
	// lastIdx/lastPage cache the most recently resolved page: the common
	// same-page access skips the map entirely.
	lastIdx  uint64
	lastPage *page

	pages map[uint64]*page

	// expandedLines counts lines currently in expanded (per-byte) form
	// across all of the region's pages.
	expandedLines int
}

// pageEpochs is the expanded per-byte epoch store of one page. The backing
// array is uint64 so the storage is 8-byte aligned by construction and
// uniformity scans can compare two packed epochs per load; epochs() views
// the same memory as the per-byte uint32 array.
type pageEpochs struct {
	words [PageBytes / 2]uint64
}

// epochs returns the per-byte uint32 view of the packed word array.
func (pe *pageEpochs) epochs() *[PageBytes]uint32 {
	return (*[PageBytes]uint32)(unsafe.Pointer(&pe.words))
}

// page is one shadow page in adaptive form: a compact epoch per line, a
// bitmap of which lines have expanded to per-byte entries, and the lazily
// allocated per-byte store. A recycled page keeps its bytes array attached
// (see pool.go) so re-expansion after Reset allocates nothing.
type page struct {
	lineEpoch [LinesPerPage]uint32
	expanded  uint64 // bit l set ⇒ line l is per-byte in bytes
	bytes     *pageEpochs
}

// pattern doubles a 32-bit epoch into the packed-word compare pattern.
func pattern(e uint32) uint64 { return uint64(e)<<32 | uint64(e) }

// New returns an empty shadow region. It must be used from one goroutine
// at a time; the cooperative machine, which serializes all checks, does.
func New() *Region {
	return &Region{pages: make(map[uint64]*page)}
}

// Load returns the epoch of the data byte at addr. Untouched bytes read as
// the zero epoch, which happens-before everything.
func (r *Region) Load(addr uint64) vclock.Epoch {
	if p := r.lastPage; p != nil && r.lastIdx == addr>>PageShift {
		off := addr & pageMask
		line := off >> LineShift
		if p.expanded&(1<<line) == 0 {
			return vclock.Epoch(p.lineEpoch[line])
		}
		return vclock.Epoch(p.bytes.epochs()[off])
	}
	p := r.lookup(addr >> PageShift)
	if p == nil {
		return 0
	}
	off := addr & pageMask
	line := off >> LineShift
	if p.expanded&(1<<line) == 0 {
		return vclock.Epoch(p.lineEpoch[line])
	}
	return vclock.Epoch(p.bytes.epochs()[off])
}

// Store unconditionally sets the epoch of the data byte at addr. On a
// compact line a store of the line's own epoch is a no-op; a divergent
// store expands the line (copying the compact epoch out to every byte)
// first — the Fig. 5 expansion event.
func (r *Region) Store(addr uint64, e vclock.Epoch) {
	p := r.ensure(addr >> PageShift)
	off := addr & pageMask
	line := off >> LineShift
	if p.expanded&(1<<line) == 0 {
		if p.lineEpoch[line] == uint32(e) {
			return
		}
		r.expandLine(p, uint(line))
	}
	p.bytes.epochs()[off] = uint32(e)
}

// CompareAndSwap replaces the epoch at addr with new if it still equals
// old, reporting whether the swap happened. A failed swap on a write check
// is exactly how a concurrent WAW race manifests in software CLEAN (§4.3).
// The machine's serialization of checks supplies the atomicity. A
// successful swap on a compact line expands it only when the value
// actually changes.
func (r *Region) CompareAndSwap(addr uint64, old, new vclock.Epoch) bool {
	p := r.ensure(addr >> PageShift)
	off := addr & pageMask
	line := off >> LineShift
	if p.expanded&(1<<line) == 0 {
		if p.lineEpoch[line] != uint32(old) {
			return false
		}
		if old == new {
			return true // value unchanged: the line stays compact
		}
		r.expandLine(p, uint(line))
		p.bytes.epochs()[off] = uint32(new)
		return true
	}
	w := &p.bytes.epochs()[off]
	if *w != uint32(old) {
		return false
	}
	*w = uint32(new)
	return true
}

// LoadAllEqual loads the epochs of the n data bytes starting at addr and
// reports whether they all hold the same value, returning that value when
// they do. This is the software analogue of the vector load + vector
// compare of §4.4: a multi-byte access on a compact line is validated by
// ONE epoch compare, and expanded lines are scanned two epochs per uint64
// word. Page-crossing ranges resolve each covered page once and scan tight
// per-page segments; unmapped pages read as runs of zero epochs.
//
// loads is the per-byte-equivalent number of epoch words inspected — n
// when the range is uniform (or entirely unmapped), first-mismatch-index+1
// when a mismatch stops the scan early — regardless of how few physical
// compares the compact/packed representations needed. Detectors use it to
// keep their epoch-load counters honest and deterministic.
func (r *Region) LoadAllEqual(addr uint64, n int) (e vclock.Epoch, allEqual bool, loads int) {
	if n <= 0 {
		return 0, true, 0
	}
	idx := addr >> PageShift
	off := int(addr & pageMask)
	// Fast lane: the whole range inside one line of the cached page — the
	// shape of nearly every detector check (≤8-byte access, hot page).
	if p := r.lastPage; p != nil && r.lastIdx == idx && (off+n-1)>>LineShift == off>>LineShift {
		line := off >> LineShift
		if p.expanded&(1<<uint(line)) == 0 {
			return vclock.Epoch(p.lineEpoch[line]), true, n
		}
		e0 := p.bytes.epochs()[off]
		if mi := scanExpanded(p.bytes, off, n, e0); mi >= 0 {
			return vclock.Epoch(e0), false, mi + 1
		}
		return vclock.Epoch(e0), true, n
	}
	p := r.lookup(idx)
	var e0 uint32
	if p != nil {
		e0 = epochAt(p, off)
	}
	scanned := 0
	for {
		run := PageBytes - off
		if run > n {
			run = n
		}
		if p == nil {
			// Unmapped page: a run of zero epochs.
			if e0 != 0 {
				return vclock.Epoch(e0), false, scanned + 1
			}
		} else if mi := scanPage(p, off, run, e0); mi >= 0 {
			return vclock.Epoch(e0), false, scanned + mi + 1
		}
		scanned += run
		n -= run
		if n == 0 {
			return vclock.Epoch(e0), true, scanned
		}
		idx++
		off = 0
		p = r.lookup(idx)
	}
}

// epochAt reads one epoch out of an adaptive page.
func epochAt(p *page, off int) uint32 {
	line := off >> LineShift
	if p.expanded&(1<<line) == 0 {
		return p.lineEpoch[line]
	}
	return p.bytes.epochs()[off]
}

// scanPage verifies that the n epochs at intra-page offset off all equal
// want, returning the offset-relative index of the first mismatching byte
// or -1 when the segment is uniform. Compact lines cost one compare for up
// to 64 bytes; expanded lines are scanned word-at-a-time.
func scanPage(p *page, off, n int, want uint32) int {
	i := 0
	for i < n {
		line := (off + i) >> LineShift
		run := (line+1)*LineBytes - (off + i) // bytes left in this line
		if run > n-i {
			run = n - i
		}
		if p.expanded&(1<<line) == 0 {
			if p.lineEpoch[line] != want {
				return i
			}
		} else if mi := scanExpanded(p.bytes, off+i, run, want); mi >= 0 {
			return i + mi
		}
		i += run
	}
	return -1
}

// scanExpanded verifies n per-byte epochs starting at intra-page offset
// off against want, two epochs per uint64 compare, returning the
// offset-relative index of the first mismatch or -1. The word pattern
// holds want in both halves, so the compare is endianness-agnostic; only
// mismatch recovery consults the per-epoch view.
func scanExpanded(pe *pageEpochs, off, n int, want uint32) int {
	ep := pe.epochs()
	i, end := off, off+n
	if i&1 == 1 { // unaligned head: one epoch
		if ep[i] != want {
			return 0
		}
		i++
	}
	pat := pattern(want)
	for ; i+2 <= end; i += 2 {
		if pe.words[i>>1] != pat {
			if ep[i] != want {
				return i - off
			}
			return i + 1 - off
		}
	}
	if i < end && ep[i] != want {
		return i - off
	}
	return -1
}

// CompareAndSwapRange performs the wide-CAS update of §4.4: the n epochs
// starting at addr are swapped from old to new as one operation. The
// hardware analogue is a 128-bit CAS covering four epochs; in software the
// leading epoch is checked and the rest stored, which is atomic here
// because the machine serializes race checks. It reports false — a WAW
// race, §4.3 — when the leading epoch no longer holds old. Fully covered
// lines collapse back to compact form as they are written.
func (r *Region) CompareAndSwapRange(addr uint64, n int, old, new vclock.Epoch) bool {
	if n <= 0 {
		return true
	}
	p := r.ensure(addr >> PageShift)
	off := int(addr & pageMask)
	// Fast lane: the whole range inside one line. The leading-epoch check,
	// the write, and the compact/expanded transitions all touch one line
	// table entry, so the general per-page walk is skipped entirely.
	if line := off >> LineShift; (off+n-1)>>LineShift == line {
		if p.expanded&(1<<uint(line)) == 0 {
			if p.lineEpoch[line] != uint32(old) {
				return false
			}
			if old == new {
				return true // value unchanged: the line stays compact
			}
			if n == LineBytes { // same-line ⇒ off is line-aligned
				p.lineEpoch[line] = uint32(new)
				return true
			}
			// After the copy-out the bytes outside the range still hold
			// old ≠ new, so no recompaction attempt is needed.
			r.expandLine(p, uint(line))
			writeEpochs(p.bytes, off, n, uint32(new))
			return true
		}
		ep := p.bytes.epochs()
		if ep[off] != uint32(old) {
			return false
		}
		writeEpochs(p.bytes, off, n, uint32(new))
		r.maybeRecompact(p, uint(line), uint32(new))
		return true
	}
	if epochAt(p, off) != uint32(old) {
		return false
	}
	run := PageBytes - off
	if run > n {
		run = n
	}
	r.storeInPage(p, off, run, uint32(new))
	if run < n {
		r.StoreRange(addr+uint64(run), n-run, new)
	}
	return true
}

// StoreRange unconditionally sets the n epochs starting at addr, one page
// resolution per covered page. Lines fully covered by the range become
// compact (this is how rollover-era sweeps and fresh allocations keep the
// region in its cheap representation); partially covered lines expand if
// they must diverge and re-compact opportunistically when the store leaves
// them uniform.
func (r *Region) StoreRange(addr uint64, n int, e vclock.Epoch) {
	for n > 0 {
		off := int(addr & pageMask)
		p := r.ensure(addr >> PageShift)
		run := PageBytes - off
		if run > n {
			run = n
		}
		r.storeInPage(p, off, run, uint32(e))
		addr += uint64(run)
		n -= run
	}
}

// storeInPage writes epoch e over [off, off+n) of page p, maintaining the
// compact/expanded invariant line by line.
func (r *Region) storeInPage(p *page, off, n int, e uint32) {
	i, end := off, off+n
	for i < end {
		line := i >> LineShift
		lineStart := line * LineBytes
		lineEnd := lineStart + LineBytes
		if i == lineStart && end >= lineEnd {
			// Full line covered: collapse to one compact epoch.
			if p.expanded&(1<<line) != 0 {
				r.collapseLine(p, uint(line))
			}
			p.lineEpoch[line] = e
			i = lineEnd
			continue
		}
		seg := lineEnd
		if seg > end {
			seg = end
		}
		if p.expanded&(1<<line) == 0 {
			if p.lineEpoch[line] == e {
				i = seg // partial store of the line's own epoch: no-op
				continue
			}
			r.expandLine(p, uint(line))
		}
		writeEpochs(p.bytes, i, seg-i, e)
		r.maybeRecompact(p, uint(line), e)
		i = seg
	}
}

// writeEpochs writes epoch e over [off, off+n) of the expanded store, two
// packed epochs per word store on the aligned interior.
func writeEpochs(pe *pageEpochs, off, n int, e uint32) {
	ep := pe.epochs()
	i, end := off, off+n
	if i&1 == 1 { // unaligned head: one epoch
		ep[i] = e
		i++
	}
	pat := pattern(e)
	for ; i+2 <= end; i += 2 {
		pe.words[i>>1] = pat
	}
	if i < end {
		ep[i] = e
	}
}

// expandLine converts line l of page p from compact to per-byte form by
// copying the compact epoch out to every byte slot — Fig. 5's expansion.
// The per-byte store is allocated on the page's first expansion only;
// pooled pages arrive with it already attached.
func (r *Region) expandLine(p *page, l uint) {
	if p.bytes == nil {
		p.bytes = new(pageEpochs)
	}
	pat := pattern(p.lineEpoch[l])
	w := p.bytes.words[l*wordsPerLine : (l+1)*wordsPerLine]
	for i := range w {
		w[i] = pat
	}
	p.expanded |= 1 << l
	r.expandedLines++
	gExpandedLines.Add(1)
	gExpansions.Add(1)
}

// collapseLine clears line l's expanded bit; the caller sets lineEpoch.
// The stale per-byte slots are left in place — they are rewritten by the
// copy-out on the next expansion.
func (r *Region) collapseLine(p *page, l uint) {
	p.expanded &^= 1 << l
	r.expandedLines--
	gExpandedLines.Add(-1)
	gCollapses.Add(1)
}

// maybeRecompact collapses an expanded line back to compact form when a
// partial store has just left every byte equal to e: one early-exit pass
// over the packed words, so the check costs at most 32 compares and
// usually exits on the first.
func (r *Region) maybeRecompact(p *page, l uint, e uint32) {
	pat := pattern(e)
	w := p.bytes.words[l*wordsPerLine : (l+1)*wordsPerLine]
	// Boundary guard: a uniform line matches at both ends, so a partial
	// store that left either boundary word divergent exits in ≤2 compares
	// — the overwhelmingly common outcome on a genuinely mixed line.
	if w[0] != pat || w[wordsPerLine-1] != pat {
		return
	}
	for _, x := range w[1 : wordsPerLine-1] {
		if x != pat {
			return
		}
	}
	r.collapseLine(p, l)
	p.lineEpoch[l] = e
}

// Reset discards every epoch, returning the region to the all-zero state.
// It models the remap-to-zero-page rollover reset of §4.5: cost is
// proportional to the number of mapped pages, not to the data size, and —
// like the remap — the pages themselves are recycled through the free
// list, so the rollover epoch starts compact and allocation-free.
func (r *Region) Reset() { r.Release() }

// Release returns the region's shadow pages to the process-wide pool.
// Call it exactly once when a run is finished with its detector (the
// facade, harness, and service job paths all do); using the region
// afterwards is safe — it simply re-materializes pages — but releasing a
// region whose machine is still running is not.
func (r *Region) Release() {
	r.lastPage = nil
	gMappedPages.Add(-int64(len(r.pages)))
	gExpandedLines.Add(-int64(r.expandedLines))
	r.expandedLines = 0
	for _, p := range r.pages {
		putPage(p)
	}
	clear(r.pages) // keeps the map's buckets for the next epoch era
}

// MappedPages returns the number of shadow pages currently backed by
// storage. The paper's memory-footprint claim (§4.6) is that this grows
// with accessed shared data, not with the address-space size.
func (r *Region) MappedPages() int { return len(r.pages) }

// Footprint describes a region's current metadata footprint in the
// adaptive representation.
type Footprint struct {
	MappedPages   int // shadow pages backed by storage
	LinesCompact  int // lines represented by one epoch
	LinesExpanded int // lines in per-byte form
	MetadataBytes int // logical metadata bytes, see MetadataBytes
}

// Footprint returns the region's current footprint. LinesCompact counts
// every line of every mapped page that is not expanded, matching the
// paper's view that a mapped-but-uniform line costs one entry.
func (r *Region) Footprint() Footprint {
	pages := len(r.pages)
	return Footprint{
		MappedPages:   pages,
		LinesCompact:  pages*LinesPerPage - r.expandedLines,
		LinesExpanded: r.expandedLines,
		MetadataBytes: metadataBytes(pages, r.expandedLines),
	}
}

// metadataBytes is the logical metadata footprint of the adaptive
// representation: one 4-byte compact epoch per line of every mapped page,
// plus 4 bytes per byte for each expanded line. It is a deterministic
// function of the region's state — pool recycling and the lazily attached
// per-byte arrays never change it — so experiment outputs that report it
// are reproducible. (Physical bytes retained by the pool are reported
// separately via Global.)
func metadataBytes(pages, expandedLines int) int {
	return pages*LinesPerPage*4 + expandedLines*LineBytes*4
}

// MetadataBytes returns the current logical metadata footprint in bytes.
func (r *Region) MetadataBytes() int { return r.Footprint().MetadataBytes }

// lookup resolves a page index to its page, or nil when unmapped. A hit
// refreshes the last-page cache.
func (r *Region) lookup(idx uint64) *page {
	if p := r.lastPage; p != nil && r.lastIdx == idx {
		return p
	}
	p := r.pages[idx]
	if p != nil {
		r.lastIdx, r.lastPage = idx, p
	}
	return p
}

// ensure resolves a page index, materializing the page on first touch.
// Pages come from the free list and start all-compact with zero epochs.
func (r *Region) ensure(idx uint64) *page {
	if p := r.lastPage; p != nil && r.lastIdx == idx {
		return p
	}
	p := r.pages[idx]
	if p == nil {
		p = getPage()
		r.pages[idx] = p
		gMappedPages.Add(1)
	}
	r.lastIdx, r.lastPage = idx, p
	return p
}
