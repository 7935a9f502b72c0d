package experiments

import (
	"context"
	"fmt"

	"mtvec/internal/report"
	"mtvec/internal/sched"
)

// The extension experiments quantify the paper's stated future work and
// the idealizations DESIGN.md calls out. All use the ten-program job
// queue at 50-cycle memory latency unless stated otherwise.

// extPoliciesSpecs enumerates the policy-study queue runs.
func extPoliciesSpecs() []QueueSpec {
	var specs []QueueSpec
	for _, pol := range sched.Names() {
		for _, ctx := range []int{2, 4} {
			specs = append(specs, QueueSpec{Contexts: ctx, Latency: 50, Policy: pol})
		}
	}
	return specs
}

// extPortsSpecs enumerates the multi-port memory study runs.
func extPortsSpecs() []QueueSpec {
	var specs []QueueSpec
	for _, ctx := range []int{1, 2, 4} {
		specs = append(specs, QueueSpec{Contexts: ctx, Latency: 50})
	}
	for _, ctx := range []int{2, 4} {
		for _, iw := range []int{1, 2} {
			if iw > ctx {
				continue
			}
			specs = append(specs, QueueSpec{
				Contexts: ctx, Latency: 50, LoadPorts: 2, StorePorts: 1, IssueWidth: iw,
			})
		}
	}
	return specs
}

// extBanksSpecs enumerates the banked-memory study runs.
func extBanksSpecs() []QueueSpec {
	var specs []QueueSpec
	for _, ctx := range []int{1, 2} {
		specs = append(specs,
			QueueSpec{Contexts: ctx, Latency: 50},
			QueueSpec{Contexts: ctx, Latency: 50, Banks: 64, BankBusy: 8})
	}
	return specs
}

// extIssueSpecs enumerates the multi-thread issue study runs.
func extIssueSpecs() []QueueSpec {
	var specs []QueueSpec
	for _, ctx := range []int{2, 3, 4} {
		for _, iw := range []int{1, 2} {
			specs = append(specs, QueueSpec{Contexts: ctx, Latency: 50, IssueWidth: iw})
		}
	}
	return specs
}

// extPoliciesExp compares thread-switch policies ("studies of other
// policies are currently underway", Section 2).
func extPoliciesExp() Experiment {
	return Experiment{
		ID:         "ext-policies",
		Title:      "Extension: thread-switch policy study",
		PaperShape: "paper argues run-until-block preserves chaining; fine-grain interleave should lose",
		Inputs:     func() []Input { return queueRuns(suiteKey{}, extPoliciesSpecs()...) },
		Run: func(ctx context.Context, e *Env) (*Result, error) {
			t := report.NewTable("Ten-program queue at latency 50",
				"policy", "contexts", "cycles", "mem occ", "VOPC", "lost decode")
			for _, s := range extPoliciesSpecs() {
				rep, err := e.QueueRun(ctx, s)
				if err != nil {
					return nil, err
				}
				t.AddRow(s.Policy, report.I(int64(s.Contexts)), report.I(rep.Cycles),
					report.Pct(rep.MemOccupation()), report.F(rep.VOPC(), 2),
					report.I(rep.LostDecode))
			}
			return &Result{ID: "ext-policies", Title: "Policy study", Tables: []*report.Table{t}}, nil
		},
	}
}

// extPortsExp is the Cray-like multi-port memory future work (Section 10).
func extPortsExp() Experiment {
	return Experiment{
		ID:         "ext-ports",
		Title:      "Extension: Cray-like 2-load/1-store memory ports",
		PaperShape: "paper predicts multi-port machines need simultaneous multi-thread issue to saturate",
		Inputs:     func() []Input { return queueRuns(suiteKey{}, extPortsSpecs()...) },
		Run: func(ctx context.Context, e *Env) (*Result, error) {
			t := report.NewTable("Ten-program queue at latency 50",
				"memory", "contexts", "issue width", "cycles", "occ/port")
			for _, s := range extPortsSpecs() {
				rep, err := e.QueueRun(ctx, s)
				if err != nil {
					return nil, err
				}
				memory := "1 port"
				if s.LoadPorts > 0 {
					memory = "2L+1S ports"
				}
				t.AddRow(memory, report.I(int64(s.Contexts)), report.I(int64(max(s.IssueWidth, 1))),
					report.I(rep.Cycles), report.Pct(rep.MemOccupation()))
			}
			return &Result{
				ID: "ext-ports", Title: "Multi-port memory",
				Tables: []*report.Table{t},
				Notes: []string{
					"Per-port occupation drops with 3 ports at issue width 1: a single decode slot cannot feed them (the paper's Section 10 prediction); width 2 recovers part of it.",
				},
			}, nil
		},
	}
}

// extBanksExp quantifies the flat-memory idealization with a banked
// conflict model.
func extBanksExp() Experiment {
	return Experiment{
		ID:         "ext-banks",
		Title:      "Extension: banked memory with conflict stalls",
		PaperShape: "the paper assumes a conflict-free memory; banking should cost little at unit stride",
		Inputs:     func() []Input { return queueRuns(suiteKey{}, extBanksSpecs()...) },
		Run: func(ctx context.Context, e *Env) (*Result, error) {
			t := report.NewTable("Ten-program queue at latency 50",
				"memory model", "contexts", "cycles", "vs flat")
			var flat int64
			for _, s := range extBanksSpecs() {
				rep, err := e.QueueRun(ctx, s)
				if err != nil {
					return nil, err
				}
				if s.Banks == 0 {
					flat = rep.Cycles
					t.AddRow("flat", report.I(int64(s.Contexts)), report.I(rep.Cycles), "1.0000")
				} else {
					t.AddRow("64 banks, busy 8", report.I(int64(s.Contexts)), report.I(rep.Cycles),
						report.F(float64(rep.Cycles)/float64(flat), 4))
				}
			}
			return &Result{
				ID: "ext-banks", Title: "Banked memory",
				Tables: []*report.Table{t},
				Notes: []string{
					"Workloads are dominated by unit-stride streams; only nasa7's long-stride column walks conflict, so the flat-memory idealization is mild.",
				},
			}, nil
		},
	}
}

// extIssueExp is the future-work simultaneous multi-thread issue knob.
func extIssueExp() Experiment {
	return Experiment{
		ID:         "ext-issue",
		Title:      "Extension: simultaneous issue from several threads",
		PaperShape: "paper expects little gain on a single-port machine (decode is rarely the bottleneck)",
		Inputs:     func() []Input { return queueRuns(suiteKey{}, extIssueSpecs()...) },
		Run: func(ctx context.Context, e *Env) (*Result, error) {
			t := report.NewTable("Ten-program queue at latency 50",
				"contexts", "issue width", "cycles", "speed vs width 1", "mem occ")
			var base int64
			for _, s := range extIssueSpecs() {
				rep, err := e.QueueRun(ctx, s)
				if err != nil {
					return nil, err
				}
				rel := "1.000"
				if s.IssueWidth == 1 {
					base = rep.Cycles
				} else {
					rel = report.F(float64(base)/float64(rep.Cycles), 3)
				}
				t.AddRow(report.I(int64(s.Contexts)), report.I(int64(s.IssueWidth)), report.I(rep.Cycles),
					rel, report.Pct(rep.MemOccupation()))
			}
			return &Result{
				ID: "ext-issue", Title: "Multi-thread issue",
				Tables: []*report.Table{t},
				Notes: []string{
					fmt.Sprintf("With one memory port the address bus, not decode, bounds throughput; gains stay small, matching the paper's argument for keeping the decode unit simple."),
				},
			}, nil
		},
	}
}
