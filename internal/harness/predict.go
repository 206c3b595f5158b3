package harness

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	clean "repro"
	"repro/internal/explore"
	"repro/internal/gofront"
	"repro/internal/machine"
	"repro/internal/predict"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// The predict experiment's acceptance thresholds: prediction must
// recover at least this fraction of the races exhaustive exploration
// finds, spending at most this fraction of exploration's scheduler
// steps. Both are hard gates — the experiment fails when either is
// missed, with or without a baseline directory.
const (
	predictMinRecall     = 0.80
	predictMaxStepsRatio = 0.10
)

// predictExploreRuns bounds the per-program exploration. The corpus
// programs are small enough that most are exhausted well before the
// bound; it exists so a pathological generated program cannot pin CI.
const predictExploreRuns = 400

// raceSig identifies a distinct race by its realized kind and address —
// the same identity both the explorer's exceptions and predict's
// certified predictions carry, so the two sets are directly comparable.
type raceSig struct {
	kind machine.RaceKind
	addr uint64
}

// predictCase is one corpus program.
type predictCase struct {
	name string
	p    *prog.Program
}

// predictCorpus assembles the comparison corpus: every litmus program
// plus every Go source file in testdata/gosrc lowered through gofront —
// the same programs the rest of the repository's dynamic claims run on.
func predictCorpus() ([]predictCase, error) {
	var cases []predictCase
	for _, l := range prog.Litmuses() {
		cases = append(cases, predictCase{name: "litmus/" + l.Name, p: l.P})
	}
	dir := "testdata/gosrc"
	if _, err := os.Stat(dir); err != nil {
		// Running under `go test ./internal/harness`: the corpus lives at
		// the repository root.
		dir = filepath.Join("..", "..", "testdata", "gosrc")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("predict: corpus dir: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		gp, err := gofront.Load(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("predict: lowering %s: %w", e.Name(), err)
		}
		cases = append(cases, predictCase{name: "gosrc/" + e.Name(), p: gp.Prog})
	}
	return cases, nil
}

// Predict compares predictive race detection (internal/predict: one
// recorded run, sync-preserving reordering, certification by replay)
// against bounded-exhaustive exploration (internal/explore) over the
// litmus + gofront corpus. For each program it collects the distinct
// (kind, addr) races each technique surfaces and the scheduler steps
// each spends, then gates the aggregate: predict must recover ≥80% of
// exploration's races in <10% of its steps. With Options.JSONDir the
// aggregates land in BENCH_predict.json; with Options.BaselineDir the
// fresh numbers are additionally gated against the checked-in snapshot
// so a regression in prediction power or cost fails CI.
func Predict(w io.Writer, o Options) error {
	cases, err := predictCorpus()
	if err != nil {
		return err
	}

	tb := stats.NewTable("program", "explored", "races", "predicted", "matched", "explore steps", "predict steps")
	var (
		totalExploreSteps, totalPredictSteps uint64
		totalRaces, totalMatched             int
		totalPredicted                       int
	)
	for _, c := range cases {
		exploreRaces := map[raceSig]bool{}
		var exploreSteps uint64
		res := explore.RunProgram(explore.Options{
			MaxRuns:  predictExploreRuns,
			Detector: clean.Config{Detection: clean.DetectCLEAN}.NewDetector,
		}, c.p, func(m *machine.Machine, err error) {
			exploreSteps += m.Stats().Steps
			var re *machine.RaceError
			if errors.As(err, &re) {
				exploreRaces[raceSig{re.Kind, re.Addr}] = true
			}
		})

		pr := predict.Run(predict.ProgramTarget(c.p), predict.Options{})
		predictRaces := map[raceSig]bool{}
		for i := range pr.Predictions {
			r := pr.Predictions[i].Race
			predictRaces[raceSig{r.Kind, r.Addr}] = true
		}
		matched := 0
		for sig := range exploreRaces {
			if predictRaces[sig] {
				matched++
			}
		}

		totalExploreSteps += exploreSteps
		totalPredictSteps += pr.Steps()
		totalRaces += len(exploreRaces)
		totalMatched += matched
		totalPredicted += len(predictRaces)
		tb.AddRow(c.name, float64(res.Runs), float64(len(exploreRaces)),
			float64(len(predictRaces)), float64(matched),
			float64(exploreSteps), float64(pr.Steps()))
		if o.Verbose {
			keys := make([]raceSig, 0, len(predictRaces))
			for sig := range predictRaces {
				keys = append(keys, sig)
			}
			sort.Slice(keys, func(i, j int) bool {
				return keys[i].addr < keys[j].addr ||
					(keys[i].addr == keys[j].addr && keys[i].kind < keys[j].kind)
			})
			for _, sig := range keys {
				fmt.Fprintf(w, "  %s: predicted %v @%#x (in explore set: %v)\n",
					c.name, sig.kind, sig.addr, exploreRaces[sig])
			}
		}
	}
	if _, err := fmt.Fprint(w, tb.String()); err != nil {
		return err
	}

	recall := 1.0
	if totalRaces > 0 {
		recall = float64(totalMatched) / float64(totalRaces)
	}
	stepsRatio := 0.0
	if totalExploreSteps > 0 {
		stepsRatio = float64(totalPredictSteps) / float64(totalExploreSteps)
	}
	fmt.Fprintf(w, "recall: %d/%d distinct races (%.2f)   steps: %d predict / %d explore (ratio %.4f)\n",
		totalMatched, totalRaces, recall, totalPredictSteps, totalExploreSteps, stepsRatio)

	bench := telemetry.NewBenchFile("predict")
	bench.AddSummary("predict.corpus.programs", float64(len(cases)))
	bench.AddSummary("predict.explore.distinct_races", float64(totalRaces))
	bench.AddSummary("predict.explore.steps", float64(totalExploreSteps))
	bench.AddSummary("predict.predicted_races", float64(totalPredicted))
	bench.AddSummary("predict.matched_races", float64(totalMatched))
	bench.AddSummary("predict.steps", float64(totalPredictSteps))
	bench.AddSummary("predict.recall", recall)
	bench.AddSummary("predict.steps_ratio", stepsRatio)
	if o.JSONDir != "" {
		path, err := bench.WriteFile(o.JSONDir)
		if err != nil {
			return fmt.Errorf("predict: writing bench file: %w", err)
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}

	var violations []string
	if recall < predictMinRecall {
		violations = append(violations, fmt.Sprintf(
			"recall %.3f below the %.2f floor", recall, predictMinRecall))
	}
	if stepsRatio >= predictMaxStepsRatio {
		violations = append(violations, fmt.Sprintf(
			"steps ratio %.4f at or above the %.2f ceiling", stepsRatio, predictMaxStepsRatio))
	}
	if o.BaselineDir != "" {
		bv, err := gatePredictBaseline(bench, o.BaselineDir)
		if err != nil {
			return err
		}
		violations = append(violations, bv...)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(w, "GATE VIOLATION: %s\n", v)
		}
		return fmt.Errorf("predict: %d gate violation(s)", len(violations))
	}
	if o.BaselineDir != "" {
		fmt.Fprintf(w, "baseline gate ok (%s)\n", o.BaselineDir)
	}
	return nil
}

// Tolerances for the baseline gate. The pipeline is fully deterministic,
// so fresh numbers normally reproduce the snapshot exactly; the bands
// exist to let intentional corpus or algorithm changes land without
// byte-matching, while still catching a real regression.
const (
	predictRecallSlack = 0.05 // recall may drop at most this far below baseline
	predictRatioFactor = 1.5  // steps ratio may grow at most this much over baseline
	predictRatioSlack  = 0.01 // ...or by this absolute amount, whichever is larger
)

// gatePredictBaseline compares fresh aggregates against the checked-in
// BENCH_predict.json: recall must stay within predictRecallSlack of the
// baseline and the steps ratio inside its tolerance band. Keys missing
// from either side are ignored, mirroring the hotpath gate.
func gatePredictBaseline(cur *telemetry.BenchFile, dir string) ([]string, error) {
	path := filepath.Join(dir, telemetry.BenchFileName("predict"))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("predict: baseline unreadable: %w", err)
	}
	base, err := telemetry.DecodeBenchFile(data)
	if err != nil {
		return nil, fmt.Errorf("predict: baseline %s: %w", path, err)
	}
	var violations []string
	if bv, ok := base.Summary["predict.recall"]; ok {
		if cv, ok2 := cur.Summary["predict.recall"]; ok2 && cv < bv-predictRecallSlack {
			violations = append(violations, fmt.Sprintf(
				"predict.recall = %.3f fell more than %.2f below baseline %.3f", cv, predictRecallSlack, bv))
		}
	}
	if bv, ok := base.Summary["predict.steps_ratio"]; ok {
		if cv, ok2 := cur.Summary["predict.steps_ratio"]; ok2 {
			allowed := predictRatioFactor * bv
			if lo := bv + predictRatioSlack; lo > allowed {
				allowed = lo
			}
			if cv > allowed {
				violations = append(violations, fmt.Sprintf(
					"predict.steps_ratio = %.4f exceeds band %.4f (base %.4f)", cv, allowed, bv))
			}
		}
	}
	return violations, nil
}
