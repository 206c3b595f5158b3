package staticrace_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/prog"
	"repro/internal/staticrace"
)

var update = flag.Bool("update", false, "rewrite the golden analyzer reports")

// chanCorpus returns the channel programs the witness check runs on: the
// six Go-source programs (through their pinned lowerings, which the
// gofront suite keeps byte-identical to the front end's output) and the
// two channel litmuses.
func chanCorpus(t *testing.T) (names []string, progs []*prog.Program) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "gosrc", "golden", "*.ir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("gosrc lowerings: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := prog.Parse(bytes.NewReader(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		names = append(names, strings.TrimSuffix(filepath.Base(f), ".ir"))
		progs = append(progs, p)
	}
	for _, name := range []string{"chan-handoff", "chan-buffered-racy"} {
		names = append(names, name)
		progs = append(progs, prog.LitmusByName(name).P)
	}
	return names, progs
}

// TestChanCorpusGolden pins every pair verdict, witness direction and
// program verdict the analyzer produces on the channel corpus. Regenerate
// with `go test -run ChanCorpusGolden -update` only after an intended
// change to the analysis.
func TestChanCorpusGolden(t *testing.T) {
	names, progs := chanCorpus(t)
	var b strings.Builder
	for i, p := range progs {
		rep := staticrace.Analyze(p)
		fmt.Fprintf(&b, "%s: %v\n", names[i], rep.Verdict())
		for _, pr := range rep.Pairs {
			fmt.Fprintf(&b, "  %s\n", pr)
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "chancorpus.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Fatalf("analyzer output drifted from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}
