// Package explore is a stateless model checker for the simulated machine:
// it enumerates every scheduler interleaving of a (small) program by
// depth-first search over the scheduling decision tree, upgrading the
// repository's seed-sampled claims — "a WAW race always raises an
// exception", "no completed execution observes a torn write", "completed
// deterministic runs all agree" — to exhaustively verified ones on litmus
// programs.
//
// The technique is the classic stateless-model-checking loop: a run is
// replayed from the start with a forced prefix of scheduling choices and
// default (first-runnable) choices beyond it; every scheduling point's
// branching degree is recorded, and unexplored siblings of the executed
// path are pushed as new prefixes. The state space is exponential in the
// number of scheduling points, so MaxRuns bounds the search and Truncated
// reports whether the bound was hit.
package explore

import (
	"errors"

	"repro/internal/machine"
	"repro/internal/prog"
)

// Builder constructs the program under test on a fresh machine, returning
// the root function. It runs once per explored interleaving, so it must be
// deterministic and self-contained.
type Builder func(m *machine.Machine) func(*machine.Thread)

// Options bounds the exploration.
type Options struct {
	// MaxRuns caps the number of interleavings executed (default 10000).
	MaxRuns int
	// Detector builds a fresh detector per run (nil for none).
	Detector func() machine.Detector
	// DetSync enables deterministic synchronization in every run.
	DetSync bool
}

// Result summarizes an exploration.
type Result struct {
	// Runs is the number of distinct interleavings executed.
	Runs int
	// Truncated reports that MaxRuns stopped the search before the
	// decision tree was exhausted.
	Truncated bool
	// Completed counts exception-free executions.
	Completed int
	// Exceptions counts race exceptions by kind.
	Exceptions map[machine.RaceKind]int
	// Deadlocks counts deadlocked interleavings.
	Deadlocks int
	// OtherErrors counts runs that failed some other way (workload
	// panics).
	OtherErrors int
}

// Exhaustive reports whether every interleaving was enumerated.
func (r Result) Exhaustive() bool { return !r.Truncated }

// replayPicker forces a prefix of choices and records the branching
// degree at every scheduling point.
type replayPicker struct {
	prefix  []int
	step    int
	degrees []int
}

func (p *replayPicker) pick(runnable []*machine.Thread) int {
	p.degrees = append(p.degrees, len(runnable))
	choice := 0
	if p.step < len(p.prefix) {
		choice = p.prefix[p.step]
	}
	p.step++
	return choice
}

// Run explores build's interleavings under opts, calling inspect (when
// non-nil) after every run with the machine and its error.
func Run(opts Options, build Builder, inspect func(m *machine.Machine, err error)) Result {
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = 10000
	}
	res := Result{Exceptions: make(map[machine.RaceKind]int)}

	// DFS over choice prefixes. Each executed run expands the frontier
	// with the unexplored siblings of its path, deepest-first so the
	// search backtracks locally.
	frontier := [][]int{nil}
	for len(frontier) > 0 {
		if res.Runs >= opts.MaxRuns {
			res.Truncated = true
			return res
		}
		prefix := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]

		picker := &replayPicker{prefix: prefix}
		var det machine.Detector
		if opts.Detector != nil {
			det = opts.Detector()
		}
		m := machine.New(machine.Config{
			Detector: det,
			DetSync:  opts.DetSync,
			Picker:   picker.pick,
		})
		root := build(m)
		err := m.Run(root)
		res.Runs++
		classify(&res, err)
		if inspect != nil {
			inspect(m, err)
		}

		// Push unexplored siblings: for every scheduling point at or
		// beyond the forced prefix, the executed run chose 0 (or the
		// forced value); its alternatives are new prefixes.
		for step := len(picker.degrees) - 1; step >= len(prefix); step-- {
			for alt := 1; alt < picker.degrees[step]; alt++ {
				branch := make([]int, step+1)
				copy(branch, prefix)
				branch[step] = alt
				frontier = append(frontier, branch)
			}
		}
	}
	return res
}

// RunProgram explores every interleaving of a prog IR program, like Run.
func RunProgram(opts Options, p *prog.Program, inspect func(m *machine.Machine, err error)) Result {
	return Run(opts, func(m *machine.Machine) func(*machine.Thread) {
		root, _ := p.Build(m)
		return root
	}, inspect)
}

func classify(res *Result, err error) {
	var re *machine.RaceError
	var dl *machine.DeadlockError
	switch {
	case err == nil:
		res.Completed++
	case errors.As(err, &re):
		res.Exceptions[re.Kind]++
	case errors.As(err, &dl):
		res.Deadlocks++
	default:
		res.OtherErrors++
	}
}
