package predict

import (
	"sort"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/prog"
	"repro/internal/workloads"
)

// Target builds the program under analysis on a fresh machine. Recording
// and every certification replay call Build once each; it must be
// deterministic (same allocations, same spawn structure under the same
// schedule). hashLen bytes at hashAddr are hashed for the certification
// determinism check (hashLen 0 disables the memory hash).
type Target struct {
	Build func(m *machine.Machine) (root func(*machine.Thread), hashAddr uint64, hashLen int)
}

// ProgramTarget adapts an IR program; the determinism hash covers its
// shared region.
func ProgramTarget(p *prog.Program) Target {
	return Target{Build: func(m *machine.Machine) (func(*machine.Thread), uint64, int) {
		root, base := p.Build(m)
		return root, base, p.Region
	}}
}

// WorkloadTarget adapts a benchmark stand-in; the determinism hash
// covers its output region.
func WorkloadTarget(w workloads.Workload, scale workloads.Scale, variant workloads.Variant) Target {
	return Target{Build: func(m *machine.Machine) (func(*machine.Thread), uint64, int) {
		root, out := w.Build(m, scale, variant)
		return root, out.Addr, out.Len
	}}
}

// Defaults for Options zero values.
const (
	DefaultMaxSteps      = 2_000_000
	DefaultMaxCandidates = 512
)

// Options configures a prediction run.
type Options struct {
	// Seed selects the recorded schedule; recording is deterministic
	// given the seed.
	Seed int64
	// MaxSteps bounds the recording run (0 = DefaultMaxSteps). Replays
	// derive their own budget from the recording's size.
	MaxSteps uint64
	// MaxCandidates caps how many screened pairs are taken through the
	// closure + certification pipeline (0 = DefaultMaxCandidates).
	MaxCandidates int
	// Detector builds a fresh certification detector per replay (nil =
	// the CLEAN core detector).
	Detector func() machine.Detector
}

func (o Options) maxSteps() uint64 {
	if o.MaxSteps == 0 {
		return DefaultMaxSteps
	}
	return o.MaxSteps
}

func (o Options) maxCandidates() int {
	if o.MaxCandidates == 0 {
		return DefaultMaxCandidates
	}
	return o.MaxCandidates
}

func (o Options) detector() machine.Detector {
	if o.Detector != nil {
		return o.Detector()
	}
	return core.New(core.Config{})
}

// Access identifies one side of a candidate pair in the recorded trace.
type Access struct {
	Thread int // spawn sequence number
	Index  int // program-order position in the thread
	Addr   uint64
	Size   int
	Write  bool
}

func accessOf(e *Event) Access {
	return Access{Thread: e.Thread, Index: e.Index, Addr: e.Addr, Size: e.Size, Write: e.Kind == KindWrite}
}

// Prediction is one certified predicted race.
type Prediction struct {
	// First and Second are the candidate pair in witness order: Second
	// is the access that completes the race (for a mixed pair the write
	// goes first, realizing it as RAW under CLEAN semantics).
	First, Second Access
	// Kind is the race kind the witness realizes (WAW or RAW).
	Kind machine.RaceKind
	// Schedule is the witness: one spawn sequence number per dispatched
	// event, ending with the racing pair.
	Schedule []int
	// Certified reports that the witness replayed to a detector hit
	// twice with byte-identical outcomes. Run only returns certified
	// predictions; the field is kept explicit for serialization.
	Certified bool
	// Race is the exception the witness replay raised.
	Race *machine.RaceError
	// Hash digests the replayed race identity, the final deterministic
	// counters and the shared-region hash; both replays agreed on it.
	Hash uint64
}

// Result is the outcome of a full prediction run.
type Result struct {
	Recording *Recording
	// Candidates counts conflicting cross-thread pairs the weak screen
	// left unordered and that hold no common lock (before dedup against
	// already-certified races).
	Candidates int
	// Capped reports that the screen stopped at Options.MaxCandidates;
	// unordered pairs past the cap, if any, were neither counted nor
	// certified.
	Capped bool
	// Feasible counts candidate orderings with a sync-preserving witness.
	Feasible int
	// Uncertified counts feasible witnesses whose replay did not raise
	// the predicted exception (the closure ordered the pair through a
	// path the weak screen ignores, or the replay diverged).
	Uncertified int
	// Predictions holds the certified races, deduplicated by realized
	// (kind, address).
	Predictions []Prediction
	// RecordSteps and ReplaySteps split the scheduler-step budget spent
	// recording and certifying; Steps is their sum — the number explore
	// comparisons charge predict with.
	RecordSteps uint64
	ReplaySteps uint64
}

// Steps returns the total scheduler steps spent.
func (r *Result) Steps() uint64 { return r.RecordSteps + r.ReplaySteps }

// Record executes the target once under the seeded scheduler with no
// detector attached — a race must not truncate the trace — and returns
// the recording.
func Record(t Target, o Options) *Recording {
	r := NewRecorder()
	m := machine.New(machine.Config{
		Seed:       o.Seed,
		Tracer:     r,
		YieldEvery: 1,
		MaxSteps:   o.maxSteps(),
	})
	root, _, _ := t.Build(m)
	r.rec.Err = m.Run(root)
	r.rec.Steps = m.Stats().Steps
	return &r.rec
}

type certKey struct {
	kind machine.RaceKind
	addr uint64
}

// Run records one execution of the target and predicts races in its
// sync-preserving reorderings. Every returned prediction is certified:
// its witness schedule re-executed to a detector hit, byte-identically
// across two replays.
func Run(t Target, o Options) *Result {
	rec := Record(t, o)
	res := &Result{Recording: rec, RecordSteps: rec.Steps}
	cands, capped := screen(rec, o.maxCandidates())
	res.Candidates, res.Capped = len(cands), capped
	if len(cands) == 0 {
		return res
	}
	idx := buildIndex(rec)
	certified := make(map[certKey]bool)
	for _, c := range cands {
		for _, ord := range orderings(c) {
			key := certKey{kind: predictedKind(ord), addr: ord[1].Addr}
			if certified[key] {
				continue
			}
			wit, ok := reorder(rec, idx, ord[0], ord[1])
			if !ok {
				continue
			}
			res.Feasible++
			pred, steps, ok := certify(t, o, rec, wit, ord[0], ord[1])
			res.ReplaySteps += steps
			if !ok {
				res.Uncertified++
				continue
			}
			certified[key] = true
			res.Predictions = append(res.Predictions, pred)
		}
	}
	sort.Slice(res.Predictions, func(i, j int) bool {
		a, b := res.Predictions[i], res.Predictions[j]
		if a.Race.Addr != b.Race.Addr {
			return a.Race.Addr < b.Race.Addr
		}
		return a.Kind < b.Kind
	})
	return res
}

// orderings returns the witness orders to attempt for a candidate pair:
// write-first for a mixed pair (CLEAN detects RAW, not WAR), both orders
// for write/write (the completing access differs, so the realized race
// identity may too).
func orderings(c candidate) [][2]*Event {
	a, b := c.a, c.b
	aw, bw := a.Kind == KindWrite, b.Kind == KindWrite
	switch {
	case aw && bw:
		return [][2]*Event{{a, b}, {b, a}}
	case aw:
		return [][2]*Event{{a, b}}
	default:
		return [][2]*Event{{b, a}}
	}
}

func predictedKind(ord [2]*Event) machine.RaceKind {
	if ord[0].Kind == KindWrite && ord[1].Kind == KindWrite {
		return machine.WAW
	}
	return machine.RAW
}
