// Package gofront is a go/ast + go/types front end that turns a
// restricted-but-useful subset of real Go source into internal/prog
// programs, so the repository's whole verification stack — the static
// analyzer, the seeded dynamic detectors, and the exhaustive model
// checker — applies to code that looks like what Go programmers
// actually write.
//
// The supported subset is a single file whose goroutines and shared
// state have statically evident structure:
//
//   - shared state: package-level variables of fixed-width scalar type
//     (bool, sized ints, floats), plus main-function locals captured by
//     a goroutine closure; each gets a slot in the program's shared
//     region. Reads and writes of those variables lower to Read/Write
//     ops; everything else (goroutine-local variables, constants, loop
//     counters) is invisible to the detectors, exactly as private
//     memory is on the machine.
//   - sync.Mutex Lock/Unlock (including defer), lowering to the IR's
//     lock ops.
//   - channels: make(chan T) and make(chan T, C) with constant C,
//     lowered to IR channels carrying the Go memory model's
//     synchronization edges; ch <- v and <-ch lower to Send/Recv.
//   - sync.WaitGroup, lowered onto a dedicated channel: each Done is a
//     send, Wait receives once per counted Add, and the channel's
//     capacity equals the total Adds so Done never blocks — the same
//     happens-before edges a WaitGroup provides.
//   - goroutines: go statements in main (closure literals or calls to
//     top-level functions, which are inlined). All go statements must
//     precede the first lowered operation of main's continuation; the
//     continuation itself becomes the program's last worker, and
//     anything main does before launching goroutines happens-before
//     everything, so it is dropped with a note.
//   - straight-line control flow, plus two documented flattenings: if
//     statements lower condition reads then both branches in sequence
//     (an over-approximation of the access set), and for loops with
//     constant trip count unroll.
//
// Everything outside the subset fails loudly: Load returns a *DiagError
// listing every offending construct with its file:line:column position,
// never a silently wrong program.
package gofront

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"strings"

	"repro/internal/machine"
	"repro/internal/prog"
)

// Diag is one positioned diagnostic.
type Diag struct {
	Pos token.Position
	Msg string
}

func (d Diag) String() string { return fmt.Sprintf("%s: %s", d.Pos, d.Msg) }

// DiagError aggregates every diagnostic found in one file.
type DiagError struct {
	Diags []Diag
}

func (e *DiagError) Error() string {
	parts := make([]string, len(e.Diags))
	for i, d := range e.Diags {
		parts[i] = d.String()
	}
	return strings.Join(parts, "\n")
}

// Var is one shared variable's slot in the lowered region.
type Var struct {
	Name string
	Off  uint64
	Size int
	Pos  token.Position
}

// Named is a lock or channel with its source identity.
type Named struct {
	Name string
	Pos  token.Position
}

// Worker is one lowered thread with its source mapping.
type Worker struct {
	// Name identifies the thread for reports: "go@<line> (<func>)" for
	// goroutines, "main" for the continuation.
	Name string
	Pos  token.Position
	// OpPos and OpDesc run parallel to the worker's op list.
	OpPos  []token.Position
	OpDesc []string
}

// Program is one Go source file lowered to the IR, with enough source
// mapping to render analyzer verdicts and machine exceptions back in
// terms of the original code.
type Program struct {
	File string
	Prog *prog.Program
	// Vars lists the shared-region slots in layout order.
	Vars []Var
	// Locks and Chans name the IR's mutexes and channels; WaitGroups
	// appear among Chans as "wg <name>".
	Locks []Named
	Chans []Named
	// Workers runs parallel to Prog.Threads.
	Workers []*Worker
	// Notes records the lowering's documented drops and flattenings.
	Notes []string
}

// VarAt returns the shared variable whose slot contains [off, off+size),
// or nil.
func (p *Program) VarAt(off uint64, size int) *Var {
	for i := range p.Vars {
		v := &p.Vars[i]
		if off >= v.Off && off+uint64(size) <= v.Off+uint64(v.Size) {
			return v
		}
	}
	return nil
}

// OpAt returns the source position and description of one lowered op.
func (p *Program) OpAt(thread, index int) (token.Position, string) {
	if thread < 0 || thread >= len(p.Workers) {
		return token.Position{}, ""
	}
	w := p.Workers[thread]
	if index < 0 || index >= len(w.OpPos) {
		return token.Position{}, ""
	}
	return w.OpPos[index], w.OpDesc[index]
}

// DescribeAccess renders one access in source terms: "write balance
// (bank.go:12:2)".
func (p *Program) DescribeAccess(thread, index int) string {
	pos, desc := p.OpAt(thread, index)
	if desc == "" {
		return fmt.Sprintf("t%d#%d", thread, index)
	}
	return fmt.Sprintf("%s (%s)", desc, pos)
}

// DescribeRace renders a machine race exception in source terms, one
// indented line each: the shared variable with its declaration site, then
// the racing and the earlier worker with the source positions where each
// touches that variable. base is the address the shared region was built
// at (prog.Program.Build's result, clean.Report.OutputAddr).
func (p *Program) DescribeRace(re *machine.RaceError, base uint64) string {
	off := re.Addr - base
	v := p.VarAt(off, re.Size)
	if v == nil {
		return fmt.Sprintf("  variable:  <unmapped offset %d>\n", off)
	}
	return fmt.Sprintf("  variable:  %s (declared at %s)\n  racing:    %s\n  earlier:   %s\n",
		v.Name, v.Pos, p.accessSites(re.TID-1, v), p.accessSites(re.PrevTID-1, v))
}

// accessSites lists where worker w touches v. A race witness carries the
// address, not the op index, so every touching site in that worker is
// listed; workers are short, so this is precise in practice. Machine
// thread w+1 is worker w (thread 0 is the root).
func (p *Program) accessSites(w int, v *Var) string {
	if w < 0 || w >= len(p.Workers) {
		return fmt.Sprintf("machine thread %d (root)", w+1)
	}
	var sites []string
	seen := map[string]bool{}
	for i, op := range p.Prog.Threads[w] {
		if op.Kind != prog.Read && op.Kind != prog.Write {
			continue
		}
		if op.Off >= v.Off+uint64(v.Size) || v.Off >= op.Off+uint64(op.Size) {
			continue
		}
		pos, desc := p.OpAt(w, i)
		if s := fmt.Sprintf("%s (%s)", pos, desc); !seen[s] {
			seen[s] = true
			sites = append(sites, s)
		}
	}
	if len(sites) == 0 {
		return p.Workers[w].Name
	}
	return fmt.Sprintf("%s at %s", p.Workers[w].Name, strings.Join(sites, "; "))
}

// Summary renders the lowering for a report header: the source file, the
// shared variables with the lock and channel counts, the workers, and
// every note.
func (p *Program) Summary() string {
	var b strings.Builder
	vars := make([]string, len(p.Vars))
	for i, v := range p.Vars {
		vars[i] = v.Name
	}
	workers := make([]string, len(p.Workers))
	for i, w := range p.Workers {
		workers[i] = w.Name
	}
	fmt.Fprintf(&b, "source:    %s\n", p.File)
	fmt.Fprintf(&b, "shared:    %d variable(s) [%s], %d lock(s), %d channel(s)\n",
		len(p.Vars), strings.Join(vars, ", "), len(p.Locks), len(p.Chans))
	fmt.Fprintf(&b, "workers:   %s\n", strings.Join(workers, ", "))
	for _, n := range p.Notes {
		fmt.Fprintf(&b, "note:      %s\n", n)
	}
	return b.String()
}

// Load parses, type-checks, and lowers one Go source file.
func Load(path string) (*Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadSource(path, src)
}

// LoadSource is Load on in-memory source; filename is used in positions.
func LoadSource(filename string, src []byte) (*Program, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("gofront: %w", err)
	}

	f := &front{
		fset: fset,
		file: file,
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		slots: map[*types.Var]*Var{},
		locks: map[*types.Var]int{},
		chans: map[*types.Var]int{},
		wgs:   map[*types.Var]*wgInfo{},
		funcs: map[types.Object]*ast.FuncDecl{},
	}
	for _, imp := range file.Imports {
		if path := strings.Trim(imp.Path.Value, `"`); path != "sync" {
			f.errorf(imp.Pos(), "import %q unsupported (only \"sync\")", path)
		}
	}
	// Reject before type checking: the source importer would compile the
	// import and all of its dependencies from GOROOT first, which costs
	// seconds and hundreds of MiB for a package such as net/http.
	if derr := f.err(); derr != nil {
		return nil, derr
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check(filename, fset, []*ast.File{file}, f.info); err != nil {
		f.errorf(token.NoPos, "type check: %v", err)
		return nil, f.err()
	}
	return f.lowerFile()
}

// wgInfo is the lowering state of one sync.WaitGroup.
type wgInfo struct {
	name string
	pos  token.Position
	// chanIdx is the dedicated channel, allocated on first use.
	chanIdx int
	// adds is the total of constant wg.Add(n) arguments.
	adds int
	// waits counts Wait calls (at most one supported).
	waits int
}

// front holds the state of one file's lowering.
type front struct {
	fset *token.FileSet
	file *ast.File
	info *types.Info

	diags []Diag
	notes []string

	// slots maps shared variable objects to their region slots, in
	// declaration order via slotOrder.
	slots     map[*types.Var]*Var
	slotOrder []*types.Var
	// locks, chans, wgs map sync objects to IR indices.
	locks    map[*types.Var]int
	lockList []Named
	chans    map[*types.Var]int
	chanList []Named
	chanCaps []int
	wgs      map[*types.Var]*wgInfo
	// funcs holds top-level function declarations for inlining.
	funcs map[types.Object]*ast.FuncDecl
	// pkgVars marks package-level variables; mainLocals the variables
	// declared by main's own statements; captured the main locals some
	// goroutine closure references.
	pkgVars    map[*types.Var]bool
	mainLocals map[*types.Var]bool
	captured   map[*types.Var]bool

	// workers and threads accumulate the lowered program in parallel;
	// ops counts every op emitted so far, against maxOps.
	workers []*Worker
	threads [][]prog.Op
	ops     int
}

func (f *front) errorf(pos token.Pos, format string, args ...interface{}) {
	f.diags = append(f.diags, Diag{Pos: f.fset.Position(pos), Msg: fmt.Sprintf(format, args...)})
}

func (f *front) notef(pos token.Pos, format string, args ...interface{}) {
	f.notes = append(f.notes, fmt.Sprintf("%s: %s", f.fset.Position(pos), fmt.Sprintf(format, args...)))
}

func (f *front) err() error {
	if len(f.diags) == 0 {
		return nil
	}
	return &DiagError{Diags: f.diags}
}

// dataSize returns the region-slot size of a scalar type.
func dataSize(t types.Type) (int, bool) {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return 0, false
	}
	switch b.Kind() {
	case types.Bool, types.Int8, types.Uint8:
		return 1, true
	case types.Int16, types.Uint16:
		return 2, true
	case types.Int32, types.Uint32, types.Float32:
		return 4, true
	case types.Int, types.Int64, types.Uint, types.Uint64, types.Uintptr, types.Float64:
		return 8, true
	}
	return 0, false
}

// isSyncType reports whether t is sync.<name> (or a pointer to it).
func isSyncType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// registerVar classifies one declared variable object: sync objects get
// lock/wg identities, channels wait for their make site, scalar data
// gets a region slot. Unsupported types are only an error if a worker
// later touches them.
func (f *front) registerVar(obj *types.Var) {
	t := obj.Type()
	switch {
	case isSyncType(t, "Mutex"):
		f.locks[obj] = len(f.lockList)
		f.lockList = append(f.lockList, Named{Name: obj.Name(), Pos: f.fset.Position(obj.Pos())})
	case isSyncType(t, "WaitGroup"):
		f.wgs[obj] = &wgInfo{name: obj.Name(), pos: f.fset.Position(obj.Pos()), chanIdx: -1}
	default:
		if _, ok := t.Underlying().(*types.Chan); ok {
			f.chans[obj] = -1 // allocated at its make site
			return
		}
		if size, ok := dataSize(t); ok {
			v := &Var{Name: obj.Name(), Size: size, Pos: f.fset.Position(obj.Pos())}
			f.slots[obj] = v
			f.slotOrder = append(f.slotOrder, obj)
		}
	}
}

// layout assigns region offsets to every slot in declaration order and
// returns the region size.
func (f *front) layout() (int, []Var) {
	off := uint64(0)
	vars := make([]Var, 0, len(f.slotOrder))
	for _, obj := range f.slotOrder {
		v := f.slots[obj]
		a := uint64(v.Size)
		off = (off + a - 1) &^ (a - 1)
		v.Off = off
		off += uint64(v.Size)
		vars = append(vars, *v)
	}
	region := int((off + 7) &^ 7)
	if region < 8 {
		region = 8
	}
	return region, vars
}
