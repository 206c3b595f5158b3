// Package memory provides the simulated byte-addressable address space the
// CLEAN machine runs against.
//
// The paper instruments every access that a compiler cannot prove private
// (§4.1): stack scalars whose address is never taken are skipped, all other
// accesses are checked. This simulator makes the same distinction
// structurally: allocations are either shared or private, the two classes
// live in disjoint address ranges, and a single comparison classifies an
// address — mirroring the fixed-layout address-space split of Fig. 5.
package memory

import (
	"encoding/binary"
	"fmt"
)

// Addr is a simulated memory address.
type Addr = uint64

// PrivateBase is the first address of the private region. Shared data lives
// in [0, PrivateBase); private (never-instrumented) data at or above it.
const PrivateBase Addr = 1 << 40

// Memory is a growable two-region address space. The zero value is an empty
// memory ready for use.
type Memory struct {
	shared  []byte
	private []byte

	sharedNext  Addr // next free shared address
	privateNext Addr // next free private offset (relative to PrivateBase)
}

// New returns an empty memory.
func New() *Memory { return &Memory{} }

// Alloc reserves n bytes in the shared or private region, aligned to align
// (which must be a power of two; 0 or 1 means byte alignment), and returns
// the base address. The new bytes are zeroed.
func (m *Memory) Alloc(n int, shared bool, align int) Addr {
	if n < 0 {
		panic(fmt.Sprintf("memory: Alloc(%d): negative size", n))
	}
	if align <= 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("memory: Alloc align %d is not a power of two", align))
	}
	a := uint64(align)
	if shared {
		m.sharedNext = (m.sharedNext + a - 1) &^ (a - 1)
		base := m.sharedNext
		m.sharedNext += uint64(n)
		m.shared = grow(m.shared, int(m.sharedNext))
		return base
	}
	m.privateNext = (m.privateNext + a - 1) &^ (a - 1)
	base := m.privateNext
	m.privateNext += uint64(n)
	m.private = grow(m.private, int(m.privateNext))
	return PrivateBase + base
}

func grow(b []byte, n int) []byte {
	if n <= len(b) {
		return b
	}
	nb := make([]byte, n)
	copy(nb, b)
	return nb
}

// IsShared reports whether addr lies in the shared (instrumented) region.
func IsShared(addr Addr) bool { return addr < PrivateBase }

// Load reads a size-byte little-endian value at addr. size must be 1, 2, 4
// or 8 and the access must lie inside an allocated region.
func (m *Memory) Load(addr Addr, size int) uint64 {
	b := m.slice(addr, size)
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 8:
		return binary.LittleEndian.Uint64(b)
	}
	panic(fmt.Sprintf("memory: Load size %d (want 1,2,4,8)", size))
}

// Store writes a size-byte little-endian value at addr.
func (m *Memory) Store(addr Addr, size int, v uint64) {
	b := m.slice(addr, size)
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	default:
		panic(fmt.Sprintf("memory: Store size %d (want 1,2,4,8)", size))
	}
}

// Bytes returns the n bytes at addr, which must lie inside one allocated
// region, as a view of the memory that stays valid until the next Alloc.
func (m *Memory) Bytes(addr Addr, n int) []byte { return m.slice(addr, n) }

// SharedBytes returns the size of the allocated shared region.
func (m *Memory) SharedBytes() int { return int(m.sharedNext) }

// PrivateBytes returns the size of the allocated private region.
func (m *Memory) PrivateBytes() int { return int(m.privateNext) }

func (m *Memory) slice(addr Addr, size int) []byte {
	if IsShared(addr) {
		if addr+uint64(size) > m.sharedNext {
			panic(fmt.Sprintf("memory: shared access [%#x,+%d) out of bounds (allocated %d)", addr, size, m.sharedNext))
		}
		return m.shared[addr : addr+uint64(size)]
	}
	off := addr - PrivateBase
	if off+uint64(size) > m.privateNext {
		panic(fmt.Sprintf("memory: private access [%#x,+%d) out of bounds (allocated %d)", addr, size, m.privateNext))
	}
	return m.private[off : off+uint64(size)]
}
