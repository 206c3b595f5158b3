package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestServerDoesNotLinkExperimentEngine: cleand serves detection jobs and
// needs none of the paper-experiment machinery. It walks the module
// imports of this command's non-test sources transitively and fails if
// the experiment engine (internal/harness) or the hardware simulator it
// pulls in (internal/hwsim) is among them.
func TestServerDoesNotLinkExperimentEngine(t *testing.T) {
	const module = "repro"
	root := filepath.Join("..", "..")
	forbidden := map[string]bool{"repro/internal/harness": true, "repro/internal/hwsim": true}
	seen := map[string]bool{}
	var walk func(pkg string, chain []string)
	walk = func(pkg string, chain []string) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		chain = append(chain, pkg)
		if forbidden[pkg] {
			t.Errorf("cleand links %s: %s", pkg, strings.Join(chain, " → "))
			return
		}
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(pkg, module), "/")))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		fset := token.NewFileSet()
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("parsing %s: %v", name, err)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatalf("%s: bad import %s: %v", name, imp.Path.Value, err)
				}
				if path == module || strings.HasPrefix(path, module+"/") {
					walk(path, chain)
				}
			}
		}
	}
	walk("repro/cmd/cleand", nil)
	if len(seen) < 5 {
		t.Fatalf("walked only %d packages", len(seen))
	}
}
