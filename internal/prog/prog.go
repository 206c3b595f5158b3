// Package prog is the program IR shared by the fuzzer (internal/progen),
// the static race analyzer (internal/staticrace), the model checker
// (internal/explore), and cmd/cleanvet.
//
// A Program is a fixed fork/join skeleton: a root thread spawns one
// machine thread per entry of Threads, each worker executes its straight-
// line op list (reads, writes, lock/unlock, channel send/recv, private
// work) over a shared region, a fixed set of mutexes and a fixed set of
// Go-memory-model channels, and the root joins them all. The IR
// is independent of any machine: Build instantiates it on a fresh
// simulated machine, String/Parse round-trip it through a line-oriented
// text form, and the analyses reason about it without running anything.
package prog

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/machine"
)

// OpKind discriminates the IR operations.
type OpKind int

// The IR operation kinds.
const (
	Read OpKind = iota
	Write
	Lock
	Unlock
	Work
	Send
	Recv
)

var opKindNames = [...]string{"read", "write", "lock", "unlock", "work", "send", "recv"}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one straight-line operation of a worker thread.
type Op struct {
	Kind OpKind
	// Off and Size locate a Read/Write within the shared region.
	Off  uint64
	Size int
	// Lock is the mutex index of a Lock/Unlock.
	Lock int
	// Chan is the channel index of a Send/Recv.
	Chan int
	// Work is the number of private computation units of a Work op.
	Work int
}

func (o Op) String() string {
	switch o.Kind {
	case Read, Write:
		return fmt.Sprintf("%s %d %d", o.Kind, o.Off, o.Size)
	case Lock, Unlock:
		return fmt.Sprintf("%s %d", o.Kind, o.Lock)
	case Send, Recv:
		return fmt.Sprintf("%s %d", o.Kind, o.Chan)
	default:
		return fmt.Sprintf("work %d", o.Work)
	}
}

// Program is a fork/join program over a shared region and a lock set.
type Program struct {
	// Region is the shared region size in bytes.
	Region int
	// Locks is the number of mutexes available to the workers.
	Locks int
	// Chans lists the workers' channels by capacity: channel c is a FIFO
	// channel of capacity Chans[c] (0 = unbuffered rendezvous), with the
	// Go memory model's synchronization edges (see machine.Chan).
	Chans []int
	// Threads holds one straight-line op list per worker thread; the
	// implicit root thread spawns them all, performs no accesses, and
	// joins them all.
	Threads [][]Op
}

// NumOps returns the total operation count across all workers.
func (p *Program) NumOps() int {
	n := 0
	for _, ops := range p.Threads {
		n += len(ops)
	}
	return n
}

// MaxRegion and MaxLocks bound a program's shared region (bytes) and its
// mutex count. Every run pays for both — the region is allocated and
// shadowed, each lock is a machine object — and programs arrive as
// untrusted text, so Validate rejects anything larger. In-repo programs
// use at most a 64-byte region and 3 locks.
const (
	MaxRegion = 1 << 20
	MaxLocks  = 4096
)

// Validate checks that the program is well-formed: a region of 1 to
// MaxRegion bytes, at most MaxLocks locks, legal access ranges and sizes,
// lock indices in range, no acquire of a held lock, releases only of held
// locks, and every lock released by thread end. A valid program never
// faults the machine; it may still deadlock if workers acquire multiple
// locks in conflicting orders (the generator's id-ordered discipline
// rules that out, hand-written programs must mind it themselves).
func (p *Program) Validate() error {
	if p.Region < 1 || p.Region > MaxRegion {
		return fmt.Errorf("prog: region size %d outside [1,%d]", p.Region, MaxRegion)
	}
	if p.Locks < 0 || p.Locks > MaxLocks {
		return fmt.Errorf("prog: lock count %d outside [0,%d]", p.Locks, MaxLocks)
	}
	for c, capacity := range p.Chans {
		if capacity < 0 {
			return fmt.Errorf("prog: channel %d has negative capacity %d", c, capacity)
		}
	}
	if len(p.Threads) == 0 {
		return fmt.Errorf("prog: no worker threads")
	}
	for th, ops := range p.Threads {
		held := map[int]bool{}
		for i, o := range ops {
			switch o.Kind {
			case Read, Write:
				switch o.Size {
				case 1, 2, 4, 8:
				default:
					return fmt.Errorf("prog: thread %d op %d: size %d not in {1,2,4,8}", th, i, o.Size)
				}
				if o.Off+uint64(o.Size) > uint64(p.Region) {
					return fmt.Errorf("prog: thread %d op %d: [%d,%d) outside region of %d bytes",
						th, i, o.Off, o.Off+uint64(o.Size), p.Region)
				}
			case Lock:
				if o.Lock < 0 || o.Lock >= p.Locks {
					return fmt.Errorf("prog: thread %d op %d: lock %d out of range [0,%d)", th, i, o.Lock, p.Locks)
				}
				if held[o.Lock] {
					return fmt.Errorf("prog: thread %d op %d: lock %d acquired while held", th, i, o.Lock)
				}
				held[o.Lock] = true
			case Unlock:
				if o.Lock < 0 || o.Lock >= p.Locks {
					return fmt.Errorf("prog: thread %d op %d: lock %d out of range [0,%d)", th, i, o.Lock, p.Locks)
				}
				if !held[o.Lock] {
					return fmt.Errorf("prog: thread %d op %d: unlock of lock %d not held", th, i, o.Lock)
				}
				delete(held, o.Lock)
			case Send, Recv:
				if o.Chan < 0 || o.Chan >= len(p.Chans) {
					return fmt.Errorf("prog: thread %d op %d: channel %d out of range [0,%d)", th, i, o.Chan, len(p.Chans))
				}
			case Work:
				if o.Work < 1 {
					return fmt.Errorf("prog: thread %d op %d: work %d < 1", th, i, o.Work)
				}
			default:
				return fmt.Errorf("prog: thread %d op %d: unknown kind %d", th, i, int(o.Kind))
			}
		}
		if len(held) > 0 {
			ids := make([]int, 0, len(held))
			for l := range held {
				ids = append(ids, l)
			}
			sort.Ints(ids)
			return fmt.Errorf("prog: thread %d ends holding locks %v", th, ids)
		}
	}
	return nil
}

// Build allocates the program's shared region and locks on m and returns
// the root function to pass to m.Run. The returned base is the shared
// region's address, for post-run inspection.
func (p *Program) Build(m *machine.Machine) (root func(*machine.Thread), base uint64) {
	base = m.AllocShared(p.Region, 8)
	locks := make([]*machine.Mutex, p.Locks)
	for i := range locks {
		locks[i] = m.NewMutex()
	}
	chans := make([]*machine.Chan, len(p.Chans))
	for i, capacity := range p.Chans {
		chans[i] = m.NewChan(capacity)
	}
	runOps := func(t *machine.Thread, ops []Op) {
		for _, o := range ops {
			switch o.Kind {
			case Read:
				t.Load(base+o.Off, o.Size)
			case Write:
				t.Store(base+o.Off, o.Size, t.DetCounter^uint64(t.ID)<<32)
			case Lock:
				t.Lock(locks[o.Lock])
			case Unlock:
				t.Unlock(locks[o.Lock])
			case Send:
				t.Send(chans[o.Chan])
			case Recv:
				t.Recv(chans[o.Chan])
			case Work:
				t.Work(o.Work)
			}
		}
	}
	root = func(t *machine.Thread) {
		kids := make([]*machine.Thread, 0, len(p.Threads))
		for i := range p.Threads {
			ops := p.Threads[i]
			kids = append(kids, t.Spawn(func(c *machine.Thread) {
				runOps(c, ops)
			}))
		}
		for _, k := range kids {
			t.Join(k)
		}
	}
	return root, base
}

// Run executes the program on a fresh machine with the given scheduling
// seed and detector, returning the machine and the run error.
func (p *Program) Run(schedSeed int64, det machine.Detector, detSync bool) (*machine.Machine, error) {
	m := machine.New(machine.Config{Seed: schedSeed, Detector: det, DetSync: detSync})
	root, _ := p.Build(m)
	return m, m.Run(root)
}

// RunPicked executes the program on a fresh machine driven by an explicit
// scheduling picker (see machine.Config.Picker), returning the machine
// and the run error. The static analyzer's witness schedules replay
// through this entry point.
func (p *Program) RunPicked(pick func([]*machine.Thread) int, det machine.Detector) (*machine.Machine, error) {
	m := machine.New(machine.Config{Detector: det, Picker: pick})
	root, _ := p.Build(m)
	return m, m.Run(root)
}

// SequentialPicker returns a machine scheduling picker that realizes the
// sequential-composition schedule the static analyzer's must-race witness
// reasons about. The root always runs when it can — it only spawns and
// joins, so this drives it to spawn every worker and park in its join
// loop. Among the workers, those listed run in the given order, each to
// completion (it stays the unique preferred runnable thread); unlisted
// workers run only when no listed one can, lowest thread id first.
//
// Worker w of a Program built by Build runs as machine thread id w+1: the
// root is thread 0 and ids are assigned in spawn order, with no id reuse
// before the root's join loop.
func SequentialPicker(order ...int) func(runnable []*machine.Thread) int {
	rank := map[int]int{}
	for pos, w := range order {
		rank[w+1] = pos
	}
	return func(runnable []*machine.Thread) int {
		best := -1
		bestRank, bestOK := 0, false
		for i, t := range runnable {
			if t.ID == 0 {
				return i // the root spawns/joins; it never touches data
			}
			r, ok := rank[t.ID]
			switch {
			case best < 0:
				best, bestRank, bestOK = i, r, ok
			case ok && (!bestOK || r < bestRank):
				best, bestRank, bestOK = i, r, true
			case !ok && !bestOK && t.ID < runnable[best].ID:
				best = i
			}
		}
		return best
	}
}

// String renders the program in the textual IR form Parse reads back.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "region %d\n", p.Region)
	fmt.Fprintf(&b, "locks %d\n", p.Locks)
	for _, capacity := range p.Chans {
		fmt.Fprintf(&b, "chan %d\n", capacity)
	}
	for _, ops := range p.Threads {
		b.WriteString("thread\n")
		for _, o := range ops {
			fmt.Fprintf(&b, "  %s\n", o)
		}
	}
	return b.String()
}

// Parse reads the textual IR form produced by String: a "region N" line,
// a "locks N" line, one "chan CAP" line per channel, then per worker a
// "thread" line followed by one op per line ("read OFF SIZE",
// "write OFF SIZE", "lock L", "unlock L", "send C", "recv C", "work N").
// Blank lines and #-comments are ignored. The parsed program is validated
// before being returned.
func Parse(r io.Reader) (*Program, error) {
	p := &Program{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	sawRegion, sawLocks := false, false
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fail := func(format string, args ...interface{}) (*Program, error) {
			return nil, fmt.Errorf("prog: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "region":
			if len(fields) != 2 || !scanInt(fields[1], &p.Region) {
				return fail("want \"region N\", got %q", line)
			}
			sawRegion = true
		case "locks":
			if len(fields) != 2 || !scanInt(fields[1], &p.Locks) {
				return fail("want \"locks N\", got %q", line)
			}
			sawLocks = true
		case "chan":
			var capacity int
			if len(fields) != 2 || !scanInt(fields[1], &capacity) {
				return fail("want \"chan CAP\", got %q", line)
			}
			if len(p.Threads) > 0 {
				return fail("chan declaration after the first \"thread\"")
			}
			p.Chans = append(p.Chans, capacity)
		case "thread":
			if len(fields) != 1 {
				return fail("trailing tokens after \"thread\"")
			}
			p.Threads = append(p.Threads, nil)
		case "read", "write":
			if len(p.Threads) == 0 {
				return fail("%s before the first \"thread\"", fields[0])
			}
			var off, size int
			if len(fields) != 3 || !scanInt(fields[1], &off) || !scanInt(fields[2], &size) || off < 0 {
				return fail("want %q, got %q", fields[0]+" OFF SIZE", line)
			}
			kind := Read
			if fields[0] == "write" {
				kind = Write
			}
			th := len(p.Threads) - 1
			p.Threads[th] = append(p.Threads[th], Op{Kind: kind, Off: uint64(off), Size: size})
		case "lock", "unlock":
			if len(p.Threads) == 0 {
				return fail("%s before the first \"thread\"", fields[0])
			}
			var l int
			if len(fields) != 2 || !scanInt(fields[1], &l) {
				return fail("want %q, got %q", fields[0]+" L", line)
			}
			kind := Lock
			if fields[0] == "unlock" {
				kind = Unlock
			}
			th := len(p.Threads) - 1
			p.Threads[th] = append(p.Threads[th], Op{Kind: kind, Lock: l})
		case "send", "recv":
			if len(p.Threads) == 0 {
				return fail("%s before the first \"thread\"", fields[0])
			}
			var c int
			if len(fields) != 2 || !scanInt(fields[1], &c) {
				return fail("want %q, got %q", fields[0]+" C", line)
			}
			kind := Send
			if fields[0] == "recv" {
				kind = Recv
			}
			th := len(p.Threads) - 1
			p.Threads[th] = append(p.Threads[th], Op{Kind: kind, Chan: c})
		case "work":
			if len(p.Threads) == 0 {
				return fail("work before the first \"thread\"")
			}
			var n int
			if len(fields) != 2 || !scanInt(fields[1], &n) {
				return fail("want \"work N\", got %q", line)
			}
			th := len(p.Threads) - 1
			p.Threads[th] = append(p.Threads[th], Op{Kind: Work, Work: n})
		default:
			return fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("prog: %w", err)
	}
	if !sawRegion || !sawLocks {
		return nil, fmt.Errorf("prog: missing %q or %q header", "region", "locks")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func scanInt(s string, out *int) bool {
	n, err := strconv.Atoi(s)
	if err != nil {
		return false
	}
	*out = n
	return true
}
