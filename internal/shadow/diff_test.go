package shadow

// Differential testing of the adaptive region against a naive per-byte
// reference map: every operation sequence — stores, range stores, current
// and stale CASes, range CASes, resets, page crossings — must produce
// identical epochs AND identical per-byte-equivalent `loads` counts after
// every op. The loads half is the honesty guarantee core.Stats.EpochLoads
// (and the golden run reports pinned on it) build on: the compact/expanded
// state a line happens to be in must never show through the API.

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/vclock"
)

// diffSpan is the address window the differential drivers operate in:
// three pages, so ranges cross page boundaries at PageBytes and
// 2*PageBytes and line boundaries throughout.
const diffSpan = 3 * PageBytes

// refRegion is the specification: one map entry per byte, no pages, no
// lines, no compaction. Unset bytes read as epoch zero, exactly like
// unmapped shadow.
type refRegion struct{ m map[uint64]uint32 }

func newRef() *refRegion { return &refRegion{m: make(map[uint64]uint32)} }

func (r *refRegion) load(a uint64) uint32     { return r.m[a] }
func (r *refRegion) store(a uint64, e uint32) { r.m[a] = e }

func (r *refRegion) storeRange(a uint64, n int, e uint32) {
	for i := 0; i < n; i++ {
		r.m[a+uint64(i)] = e
	}
}

func (r *refRegion) cas(a uint64, old, new uint32) bool {
	if r.m[a] != old {
		return false
	}
	r.m[a] = new
	return true
}

// casRange mirrors Region.CompareAndSwapRange: only the leading epoch is
// checked, the rest stored.
func (r *refRegion) casRange(a uint64, n int, old, new uint32) bool {
	if n <= 0 {
		return true
	}
	if r.m[a] != old {
		return false
	}
	r.storeRange(a, n, new)
	return true
}

func (r *refRegion) loadAllEqual(a uint64, n int) (uint32, bool, int) {
	if n <= 0 {
		return 0, true, 0
	}
	e0 := r.m[a]
	for i := 1; i < n; i++ {
		if r.m[a+uint64(i)] != e0 {
			return e0, false, i + 1
		}
	}
	return e0, true, n
}

func (r *refRegion) reset() { clear(r.m) }

// diffState drives one adaptive region and the reference in lockstep.
type diffState struct {
	t   *testing.T
	r   *Region
	ref *refRegion
}

func (s *diffState) compareAt(a uint64, n int) {
	s.t.Helper()
	ge, geq, gl := s.r.LoadAllEqual(a, n)
	we, weq, wl := s.ref.loadAllEqual(a, n)
	if uint32(ge) != we || geq != weq || gl != wl {
		s.t.Fatalf("LoadAllEqual(%d,%d) = (%v,%v,%d), reference (%v,%v,%d)", a, n, ge, geq, gl, we, weq, wl)
	}
	if got := uint32(s.r.Load(a)); got != s.ref.load(a) {
		s.t.Fatalf("Load(%d) = %v, reference %v", a, got, s.ref.load(a))
	}
}

// step decodes one operation from six bytes and applies it to both sides.
func (s *diffState) step(op [6]byte) {
	s.t.Helper()
	addr := uint64(binary.LittleEndian.Uint16(op[1:3])) % diffSpan
	n := int(op[3]%72) + 1 // 1..72: crosses line and page boundaries
	if addr+uint64(n) > diffSpan {
		n = int(diffSpan - addr)
	}
	// A small epoch alphabet (plus zero) maximizes collisions, which is
	// where compaction/expansion transitions live.
	e := uint32(0)
	if v := op[4] % 6; v > 0 {
		e = uint32(vclock.DefaultLayout.Pack(int(v), uint32(op[5]%4)+1))
	}
	switch op[0] % 8 {
	case 0:
		s.r.Store(addr, vclock.Epoch(e))
		s.ref.store(addr, e)
	case 1:
		s.r.StoreRange(addr, n, vclock.Epoch(e))
		s.ref.storeRange(addr, n, e)
	case 2: // CAS with the true current value: must succeed identically
		old := s.ref.load(addr)
		if s.r.CompareAndSwap(addr, vclock.Epoch(old), vclock.Epoch(e)) != s.ref.cas(addr, old, e) {
			s.t.Fatalf("CAS(%d) outcome diverged", addr)
		}
	case 3: // CAS with a likely-stale value: failure paths must agree too
		if s.r.CompareAndSwap(addr, vclock.Epoch(e), vclock.Epoch(e^1)) != s.ref.cas(addr, e, e^1) {
			s.t.Fatalf("stale CAS(%d) outcome diverged", addr)
		}
	case 4:
		old := s.ref.load(addr)
		if s.r.CompareAndSwapRange(addr, n, vclock.Epoch(old), vclock.Epoch(e)) != s.ref.casRange(addr, n, old, e) {
			s.t.Fatalf("CASRange(%d,%d) outcome diverged", addr, n)
		}
	case 5:
		if s.r.CompareAndSwapRange(addr, n, vclock.Epoch(e), vclock.Epoch(e^1)) != s.ref.casRange(addr, n, e, e^1) {
			s.t.Fatalf("stale CASRange(%d,%d) outcome diverged", addr, n)
		}
	case 6: // rare full reset
		if op[1]%16 == 0 {
			s.r.Reset()
			s.ref.reset()
		}
	case 7: // pure read probe, also exercised below
	}
	s.compareAt(addr, n)
	// A fixed page-crossing probe keeps the boundary honest every step.
	s.compareAt(PageBytes-8, 16)
}

// sweep compares every byte of the window plus line-aligned range checks.
func (s *diffState) sweep() {
	s.t.Helper()
	for a := uint64(0); a < diffSpan; a++ {
		if got := uint32(s.r.Load(a)); got != s.ref.load(a) {
			s.t.Fatalf("final sweep: Load(%d) = %v, reference %v", a, got, s.ref.load(a))
		}
	}
	for a := uint64(0); a+64 <= diffSpan; a += 64 {
		s.compareAt(a, 64)
	}
}

func runDiff(t *testing.T, ops [][6]byte) {
	s := &diffState{t: t, r: New(), ref: newRef()}
	for _, op := range ops {
		s.step(op)
	}
	s.sweep()
	s.r.Release()
}

// TestDifferentialRandom drives tens of thousands of seeded random ops
// through a region against the reference.
func TestDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nops := 20000
	if testing.Short() {
		nops = 2000
	}
	ops := make([][6]byte, nops)
	for i := range ops {
		var op [6]byte
		binary.LittleEndian.PutUint32(op[0:4], rng.Uint32())
		binary.LittleEndian.PutUint16(op[4:6], uint16(rng.Uint32()))
		ops[i] = op
	}
	runDiff(t, ops)
}

// FuzzDifferential lets the fuzzer hunt for op sequences where the
// adaptive representation diverges from the per-byte reference. `go test`
// runs the seed corpus; `go test -fuzz=FuzzDifferential ./internal/shadow`
// explores.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 7, 1, 1})
	// Expansion, recompaction, and a page-crossing range around PageBytes.
	f.Add([]byte{
		1, 0xf8, 0x0f, 16, 2, 1, // StoreRange crossing the page boundary
		0, 0xfa, 0x0f, 0, 3, 1, // divergent byte inside it
		1, 0xc0, 0x0f, 63, 2, 1, // full-line store → collapse
		6, 0, 0, 0, 0, 0, // reset
		2, 0xfa, 0x0f, 7, 2, 1, // CAS after reset
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops [][6]byte
		for len(data) >= 6 && len(ops) < 512 {
			var op [6]byte
			copy(op[:], data[:6])
			ops = append(ops, op)
			data = data[6:]
		}
		runDiff(t, ops)
	})
}
