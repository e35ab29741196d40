package sat

// Config is the solver's search configuration. The zero value (plus a seed)
// is the classic configuration New uses: zero default phase, no randomized
// decisions, no conflict budget. VSIDS decay (varDecay) and the Luby restart
// base (restartBase) are fixed.
type Config struct {
	// Seed drives the randomized phase decisions; two solvers with equal
	// configs and inputs behave identically.
	Seed int64

	// DefaultPhase is the polarity used for a decision variable with no
	// saved phase. False (assign 0) yields Z3-style minimal models and is
	// load-bearing for unguided generation; see the package comment.
	DefaultPhase bool

	// RandomPhaseProb is the probability a decision takes a random
	// polarity.
	RandomPhaseProb float64

	// MaxConflicts, when positive, bounds each Solve call; exceeding it
	// returns Unknown.
	MaxConflicts int64
}

// varDecay is the VSIDS activity decay factor; restartBase scales the Luby
// restart intervals.
const (
	varDecay    = 0.95
	restartBase = 100
)
