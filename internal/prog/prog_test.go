package prog

import (
	"strings"
	"testing"

	"repro/internal/machine"
)

func TestValidateCatchesMalformedPrograms(t *testing.T) {
	cases := []struct {
		name string
		p    Program
	}{
		{"zero region", Program{Region: 0, Threads: [][]Op{{}}}},
		{"no threads", Program{Region: 8}},
		{"bad size", Program{Region: 8, Threads: [][]Op{{{Kind: Read, Off: 0, Size: 3}}}}},
		{"out of region", Program{Region: 8, Threads: [][]Op{{{Kind: Write, Off: 4, Size: 8}}}}},
		{"lock out of range", Program{Region: 8, Locks: 1, Threads: [][]Op{{{Kind: Lock, Lock: 1}, {Kind: Unlock, Lock: 1}}}}},
		{"reacquire held", Program{Region: 8, Locks: 1, Threads: [][]Op{{
			{Kind: Lock, Lock: 0}, {Kind: Lock, Lock: 0}, {Kind: Unlock, Lock: 0}, {Kind: Unlock, Lock: 0}}}}},
		{"unlock not held", Program{Region: 8, Locks: 1, Threads: [][]Op{{{Kind: Unlock, Lock: 0}}}}},
		{"unbalanced", Program{Region: 8, Locks: 1, Threads: [][]Op{{{Kind: Lock, Lock: 0}}}}},
		{"zero work", Program{Region: 8, Threads: [][]Op{{{Kind: Work, Work: 0}}}}},
		{"region over cap", Program{Region: MaxRegion + 1, Threads: [][]Op{{}}}},
		{"locks over cap", Program{Region: 8, Locks: MaxLocks + 1, Threads: [][]Op{{}}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a malformed program", c.name)
		}
	}
}

func TestLitmusesAreValidAndRunnable(t *testing.T) {
	for _, l := range Litmuses() {
		if err := l.P.Validate(); err != nil {
			t.Errorf("%s: %v", l.Name, err)
			continue
		}
		// Without a detector every litmus must complete: races abort
		// nothing, and the lock structure is deadlock-free.
		if _, err := l.P.Run(1, nil, false); err != nil {
			t.Errorf("%s: run failed: %v", l.Name, err)
		}
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	for _, l := range Litmuses() {
		text := l.P.String()
		q, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: reparse failed: %v\n%s", l.Name, err, text)
		}
		if q.String() != text {
			t.Fatalf("%s: round trip diverged:\n%s\nvs\n%s", l.Name, text, q.String())
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	bad := []string{
		"region 8\nlocks 0\nread 0 4\n",          // op before thread
		"region 8\nlocks 0\nthread\nread 0\n",    // missing size
		"region 8\nlocks 0\nthread\nfrob 1\n",    // unknown directive
		"locks 0\nthread\nwork 1\n",              // missing region
		"region 8\nlocks 0\nthread\nwrite 4 8\n", // fails Validate
		"region 134217728\nlocks 0\nthread\nwrite 0 8\n",
		"region 8\nlocks 4194304\nthread\nwrite 0 8\n",
	}
	for i, text := range bad {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Errorf("case %d: Parse accepted %q", i, text)
		}
	}
}

func TestParseIgnoresCommentsAndBlanks(t *testing.T) {
	p, err := Parse(strings.NewReader(`
# a racy pair
region 8
locks 1

thread
  lock 0   # enter
  write 0 8
  unlock 0
thread
  write 0 8
`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Region != 8 || p.Locks != 1 || len(p.Threads) != 2 || p.NumOps() != 4 {
		t.Fatalf("parsed %+v", p)
	}
}

// TestSequentialPickerRunsWorkersInOrder: under SequentialPicker(1, 0),
// worker 1's ops all execute before worker 0's. The writes record the
// writer's machine thread id in their value, so the final memory tells us
// who wrote last.
func TestSequentialPickerRunsWorkersInOrder(t *testing.T) {
	p := &Program{Region: 8, Locks: 0, Threads: [][]Op{
		{{Kind: Write, Off: 0, Size: 8}},
		{{Kind: Write, Off: 0, Size: 8}},
	}}
	m := machine.New(machine.Config{Picker: SequentialPicker(1, 0)})
	root, base := p.Build(m)
	if err := m.Run(root); err != nil {
		t.Fatal(err)
	}
	// Worker 0 is machine thread 1 and runs second: the surviving value
	// carries tid 1 in its high half (Build stores DetCounter^tid<<32).
	if got := m.Mem().Load(base, 8) >> 32; got != 1 {
		t.Fatalf("last writer tid = %d, want 1 (worker 0)", got)
	}
}

func TestRunPickedMatchesBuild(t *testing.T) {
	lit := LitmusByName("locked-counter")
	if lit == nil {
		t.Fatal("locked-counter litmus missing")
	}
	if _, err := lit.P.RunPicked(SequentialPicker(0, 1), nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzParse: Parse never panics on arbitrary text, and an accepted
// program's String form re-parses to the identical text.
func FuzzParse(f *testing.F) {
	for _, l := range Litmuses() {
		f.Add(l.P.String())
	}
	f.Add("region 8\nlocks 1\nchan 0\nthread\n  lock 0\n  send 0\n  unlock 0\nthread\n  recv 0 # c\n  work 3\n")
	f.Add("region 134217728\nlocks 0\nthread\nwrite 0 8\n")
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		canon := p.String()
		q, err := Parse(strings.NewReader(canon))
		if err != nil {
			t.Fatalf("accepted program's String form does not re-parse: %v\n%s", err, canon)
		}
		if got := q.String(); got != canon {
			t.Fatalf("round trip drifted:\n%s\nvs\n%s", canon, got)
		}
	})
}
