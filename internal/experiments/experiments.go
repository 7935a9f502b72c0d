package experiments

import (
	"context"
	"fmt"

	"mtvec/internal/report"
)

// Result is one reproduced table or figure.
type Result struct {
	ID     string
	Title  string
	Tables []*report.Table
	Charts []string
	Notes  []string
}

// Experiment reproduces one artifact of the paper's evaluation.
type Experiment struct {
	ID    string
	Title string
	// PaperShape states what the paper reports, for EXPERIMENTS.md
	// comparison.
	PaperShape string
	// Run regenerates the artifact from env; ctx governs its runs.
	Run func(context.Context, *Env) (*Result, error)
	// Points enumerates the experiment's independent simulation points
	// as prefetch tasks, which run under ctx. RunSuite fans them out
	// over the worker pool to warm the Env caches before Run aggregates
	// them serially; nil means the experiment has no parallelizable
	// sweep. Each task must be memoized by the Env, so running it twice
	// costs one simulation.
	Points func(context.Context, *Env) []func() error
}

// All returns every experiment in paper order, followed by the
// extensions.
func All() []Experiment {
	return []Experiment{
		table1Exp(), table2Exp(), table3Exp(),
		fig4Exp(), fig5Exp(), fig6Exp(), fig7Exp(), fig8Exp(),
		fig9Exp(), fig10Exp(), fig11Exp(), fig12Exp(),
		extPoliciesExp(), extPortsExp(), extBanksExp(), extIssueExp(), extCompilerExp(),
		extRegfileExp(), extBenchsuiteExp(),
	}
}

// ByID returns the experiment with the given id, or nil.
func ByID(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			e := e
			return &e
		}
	}
	return nil
}

// IDs lists the experiment identifiers.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}

func note(format string, args ...any) string { return fmt.Sprintf(format, args...) }
