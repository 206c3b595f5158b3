package main

import apiv1 "repro/api/v1"

// The truth every workload's outputs are checked against. It is written
// out here by hand, from the paper and from the corpus programs' own
// comments, and is never read back from the code under test: setup
// cross-checks the registry against it instead of deriving it.

// accessKernels are the Fig. 7 access-density leaders plus dedup, whose
// byte-granular stores are the only expanded shadow lines.
var accessKernels = []string{"lu_cb", "lu_ncb", "radix", "ocean_cp", "fft", "dedup"}

// syncKernels are the synchronization-frequent set, where Kendo and
// dispatch dominate and the race check is a few percent.
var syncKernels = []string{"fmm", "fluidanimate", "x264", "water_nsquared", "radiosity"}

// allKernels is the paper's 26-benchmark roster (§6.1), SPLASH-2 first.
var allKernels = []string{
	"barnes", "cholesky", "fft", "fmm", "lu_cb", "lu_ncb", "ocean_cp",
	"ocean_ncp", "radiosity", "radix", "raytrace", "volrend",
	"water_nsquared", "water_spatial",
	"blackscholes", "bodytrack", "canneal", "dedup", "facesim", "ferret",
	"fluidanimate", "parsec_raytrace", "streamcluster", "swaptions", "vips",
	"x264",
}

// paperRacy is the paper's racy set: the 17 benchmarks whose unmodified
// variants contain data races (§6.1). The other 9 are race-free, so a
// certified prediction on any of them is a wrong verdict.
var paperRacy = map[string]bool{
	"barnes": true, "cholesky": true, "fmm": true, "ocean_cp": true,
	"ocean_ncp": true, "radiosity": true, "raytrace": true, "volrend": true,
	"water_nsquared": true, "water_spatial": true, "canneal": true,
	"dedup": true, "ferret": true, "fluidanimate": true,
	"streamcluster": true, "vips": true, "x264": true,
}

// gosrcTruth is the verdict table for the testdata/gosrc corpus, one
// entry per program:
//
//   - detect: what every seed of an 8-seed full-CLEAN detection job
//     must do. dcl has no expectation: whether its double-checked read
//     overlaps the write depends on the schedule, so some seeds raise
//     and some complete.
//   - certified: whether a predict job must certify at least one race
//     (true) or none (false).
var gosrcTruth = []gosrcVerdict{
	{name: "bankrace", detect: mustRaise, certified: true},
	{name: "bankrace_mutex", detect: mustComplete, certified: false},
	{name: "chanhandoff", detect: mustComplete, certified: false},
	{name: "dcl", detect: eitherOutcome, certified: true},
	{name: "tornwrite", detect: mustRaise, certified: true},
	{name: "wgcounter", detect: mustRaise, certified: true},
}

type detectExpect int

const (
	eitherOutcome detectExpect = iota
	mustRaise
	mustComplete
)

type gosrcVerdict struct {
	name      string
	detect    detectExpect
	certified bool
}

// detectVerdictOK reports whether one detection run's outcome satisfies
// the expectation.
func detectVerdictOK(want detectExpect, outcome string) bool {
	switch want {
	case mustRaise:
		return outcome == apiv1.OutcomeRaceException
	case mustComplete:
		return outcome == apiv1.OutcomeCompleted
	default:
		return outcome == apiv1.OutcomeRaceException || outcome == apiv1.OutcomeCompleted
	}
}

// predictVerdictOK reports whether a predict run that certified n races
// with the given outcome satisfies the expectation.
func predictVerdictOK(wantCertified bool, outcome string, n int) bool {
	if wantCertified {
		return n >= 1 && outcome == apiv1.OutcomeRaceException
	}
	return n == 0 && outcome == apiv1.OutcomeCompleted
}
