package gofront

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/prog"
	"repro/internal/staticrace"
)

var update = flag.Bool("update", false, "rewrite the golden lowerings")

const corpusDir = "../../testdata/gosrc"

// corpusTruth is the expected static verdict and dynamic ground truth
// of every corpus program. The golden lowerings pin the front end; this
// table pins the analyses on top of it.
var corpusTruth = map[string]struct {
	verdict staticrace.Verdict
	racy    bool
}{
	"bankrace":       {staticrace.MustRace, true},
	"bankrace_mutex": {staticrace.RaceFree, false},
	"tornwrite":      {staticrace.MustRace, true},
	"dcl":            {staticrace.MustRace, true},
	"chanhandoff":    {staticrace.RaceFree, false},
	"wgcounter":      {staticrace.MustRace, true},
}

func corpusFiles(t testing.TB) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	sort.Strings(files)
	return files
}

// TestGoldenLowerings pins source → canonical IR text for the whole
// corpus. Run with -update after a deliberate lowering change.
func TestGoldenLowerings(t *testing.T) {
	for _, f := range corpusFiles(t) {
		name := strings.TrimSuffix(filepath.Base(f), ".go")
		p, err := Load(f)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		got := p.Prog.String()
		golden := filepath.Join(corpusDir, "golden", name+".ir")
		if *update {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Errorf("%s: missing golden (run go test ./internal/gofront -update): %v", name, err)
			continue
		}
		if got != string(want) {
			t.Errorf("%s: lowering drifted from golden.\n--- got ---\n%s--- want ---\n%s", name, got, want)
		}
	}
}

// TestGoldenRoundTrip: every golden lowering survives the IR's
// String/Parse round trip, so `cleanvet -go f -print` output is valid
// `cleanvet -f` input.
func TestGoldenRoundTrip(t *testing.T) {
	for _, f := range corpusFiles(t) {
		p, err := Load(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		text := p.Prog.String()
		back, err := prog.Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: reparse: %v", f, err)
		}
		if back.String() != text {
			t.Errorf("%s: round trip drifted", f)
		}
	}
}

// TestCorpusVerdicts pins the static analyzer's verdict on every corpus
// program.
func TestCorpusVerdicts(t *testing.T) {
	for _, f := range corpusFiles(t) {
		name := strings.TrimSuffix(filepath.Base(f), ".go")
		want, ok := corpusTruth[name]
		if !ok {
			t.Errorf("%s: corpus file without a truth entry; add one", name)
			continue
		}
		p, err := Load(f)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		rep := staticrace.Analyze(p.Prog)
		if got := rep.Verdict(); got != want.verdict {
			t.Errorf("%s: verdict %v, want %v\n%v", name, got, want.verdict, rep.Pairs)
		}
	}
}

// TestCorpusSoundness checks every corpus program's static verdict
// against execution ground truth: MustRace witnesses must replay to a
// race exception under the reference oracle, and race-free programs
// must survive the model checker (exhaustively when the space fits,
// sampled otherwise) with zero exceptions and zero deadlocks. Racy
// programs must actually race somewhere in the space.
func TestCorpusSoundness(t *testing.T) {
	for _, f := range corpusFiles(t) {
		name := strings.TrimSuffix(filepath.Base(f), ".go")
		want := corpusTruth[name]
		p, err := Load(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := staticrace.Analyze(p.Prog)

		if rep.Verdict() == staticrace.MustRace {
			first, second, ok := rep.Witness()
			if !ok {
				t.Errorf("%s: MustRace without a witness", name)
				continue
			}
			_, err := p.Prog.RunPicked(prog.SequentialPicker(first, second), oracle.New(oracle.AllRaces))
			var re *machine.RaceError
			if !errors.As(err, &re) {
				t.Errorf("%s: witness schedule (t%d first) raised %v, want race exception", name, first, err)
			}
		}

		res := explore.RunProgram(explore.Options{
			Detector: func() machine.Detector { return core.New(core.Config{}) },
			MaxRuns:  30000,
		}, p.Prog, nil)
		raced := res.Runs - res.Completed - res.Deadlocks
		if res.Deadlocks != 0 {
			t.Errorf("%s: %d deadlocked interleavings: %+v", name, res.Deadlocks, res)
		}
		if want.racy {
			if raced == 0 && res.Exhaustive() {
				t.Errorf("%s: marked racy but no interleaving raced: %+v", name, res)
			}
			if rep.Verdict() == staticrace.RaceFree {
				t.Errorf("%s: racy program statically RaceFree — unsound", name)
			}
		} else {
			if raced != 0 {
				t.Errorf("%s: marked race-free but %d interleavings raced: %+v", name, raced, res)
			}
			if !res.Exhaustive() {
				// Bounded check only; sample more seeds for confidence.
				for seed := int64(0); seed < 200; seed++ {
					_, err := p.Prog.Run(seed, core.New(core.Config{}), false)
					var re *machine.RaceError
					if errors.As(err, &re) {
						t.Errorf("%s: seed %d raced: %v", name, seed, err)
						break
					}
				}
			}
		}
	}
}

// TestSourceMapping: the lowering's source map points every op at a
// real position in the right file, and DescribeAccess names the
// variable.
func TestSourceMapping(t *testing.T) {
	p, err := Load(filepath.Join(corpusDir, "bankrace.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Workers) != len(p.Prog.Threads) {
		t.Fatalf("%d workers for %d threads", len(p.Workers), len(p.Prog.Threads))
	}
	for w, ops := range p.Prog.Threads {
		wk := p.Workers[w]
		if len(wk.OpPos) != len(ops) || len(wk.OpDesc) != len(ops) {
			t.Fatalf("worker %d: %d positions / %d descs for %d ops", w, len(wk.OpPos), len(wk.OpDesc), len(ops))
		}
		for i := range ops {
			if !strings.HasSuffix(wk.OpPos[i].Filename, "bankrace.go") || wk.OpPos[i].Line <= 0 {
				t.Errorf("worker %d op %d: bad position %v", w, i, wk.OpPos[i])
			}
		}
	}
	if v := p.VarAt(0, 8); v == nil || v.Name != "balance" {
		t.Errorf("VarAt(0,8) = %+v, want balance", v)
	}
	desc := p.DescribeAccess(0, 0)
	if !strings.Contains(desc, "balance") || !strings.Contains(desc, "bankrace.go") {
		t.Errorf("DescribeAccess = %q", desc)
	}
	// Worker naming: goroutines first, main continuation last.
	if last := p.Workers[len(p.Workers)-1].Name; last != "main" {
		t.Errorf("last worker %q, want main", last)
	}
}

// TestDiagnosticsArePositioned: unsupported constructs fail loudly with
// file:line:column diagnostics, never silently.
func TestDiagnosticsArePositioned(t *testing.T) {
	cases := []struct {
		name, src, wantMsg string
	}{
		{"select", `package main
var c = make(chan int)
func main() {
	go func() { c <- 1 }()
	select {}
}`, "unsupported statement"},
		{"import", `package main
import "os"
func main() { go func() { os.Exit(1) }() }`, `import "os" unsupported`},
		{"map", `package main
var m = map[string]int{}
var d int
func main() {
	go func() { m["k"] = 1 }()
	d = 1
}`, "unsupported"},
		{"late-go", `package main
var x int
func main() {
	go func() { x = 1 }()
	x = 2
	go func() { x = 3 }()
}`, "go statement after main's continuation"},
		{"recursion", `package main
var x int
func f() { x++; f() }
func main() { go f() }`, "recursive call"},
		{"nested-go", `package main
var x int
func main() {
	go func() {
		go func() { x = 1 }()
	}()
}`, "nested go"},
		{"dynamic-loop", `package main
var x, n int
func main() {
	go func() {
		for i := 0; i < n; i++ {
			x++
		}
	}()
}`, "constant bounds"},
		{"shared-string", `package main
var s string
func main() {
	go func() { s = "a" }()
	go func() { s = "b" }()
}`, "unsupported type"},
		{"nested-loops", nestedLoops, "more than 65536 ops"},
		{"inline-blowup", `package main
var x int
func a() { x++; x++; x++; x++ }
func b() { a(); a(); a(); a(); a(); a(); a(); a() }
func c() { b(); b(); b(); b(); b(); b(); b(); b() }
func d() { c(); c(); c(); c(); c(); c(); c(); c() }
func e() { d(); d(); d(); d(); d(); d(); d(); d() }
func f() { e(); e(); e(); e(); e(); e(); e(); e() }
func main() { go f() }`, "more than 65536 ops"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := LoadSource(c.name+".go", []byte(c.src))
			var de *DiagError
			if !errors.As(err, &de) {
				t.Fatalf("err = %v, want DiagError", err)
			}
			found := false
			for _, d := range de.Diags {
				if strings.Contains(d.Msg, c.wantMsg) {
					found = true
					if d.Pos.Line <= 0 && c.name != "import-check" {
						t.Errorf("diagnostic %v lacks a position", d)
					}
				}
			}
			if !found {
				t.Errorf("no diagnostic containing %q in:\n%v", c.wantMsg, err)
			}
		})
	}
}

// nestedLoops would lower to 64⁴ × 2 ops: four nested unrolled loops
// around one read and one write. The op budget stops it at the first op
// past the limit.
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

// FuzzLoadSource: the front end lowers arbitrary source or returns an
// error — it never panics — and every program it does lower is a valid
// IR program.
func FuzzLoadSource(f *testing.F) {
	for _, file := range corpusFiles(f) {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Add([]byte(nestedLoops))
	f.Fuzz(func(t *testing.T, src []byte) {
		p, err := LoadSource("fuzz.go", src)
		if err != nil {
			return
		}
		if err := p.Prog.Validate(); err != nil {
			t.Fatalf("lowering is not a valid program: %v\n%s", err, p.Prog)
		}
	})
}

// TestCapturedLocalIsShared: a main local captured by a goroutine
// closure gets a slot; an uncaptured one stays invisible.
func TestCapturedLocalIsShared(t *testing.T) {
	src := `package main
import "sync"
func main() {
	var wg sync.WaitGroup
	var shared int
	private := 0
	private++
	wg.Add(1)
	go func() {
		shared = 1
		wg.Done()
	}()
	wg.Wait()
	_ = shared
	_ = private
}`
	p, err := LoadSource("cap.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Vars) != 1 || p.Vars[0].Name != "shared" {
		t.Fatalf("vars = %+v, want just 'shared'", p.Vars)
	}
	// worker: write shared, Done; main: Wait recv, read shared.
	want := [][]prog.Op{
		{{Kind: prog.Write, Off: 0, Size: 8}, {Kind: prog.Send, Chan: 0}},
		{{Kind: prog.Recv, Chan: 0}, {Kind: prog.Read, Off: 0, Size: 8}},
	}
	if len(p.Prog.Threads) != 2 {
		t.Fatalf("threads: %v", p.Prog.Threads)
	}
	for w := range want {
		if len(p.Prog.Threads[w]) != len(want[w]) {
			t.Fatalf("thread %d = %v, want %v", w, p.Prog.Threads[w], want[w])
		}
		for i, op := range want[w] {
			if p.Prog.Threads[w][i] != op {
				t.Fatalf("thread %d op %d = %v, want %v", w, i, p.Prog.Threads[w][i], op)
			}
		}
	}
}

// TestPreForkDropsAreNoted: main's pre-goroutine writes are dropped
// with a note, not silently.
func TestPreForkDropsAreNoted(t *testing.T) {
	src := `package main
var x int
func main() {
	x = 41
	go func() { x = 1 }()
	_ = x
}`
	p, err := LoadSource("pre.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range p.Notes {
		if strings.Contains(n, "pre-goroutine") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no pre-goroutine drop note in %v", p.Notes)
	}
}
