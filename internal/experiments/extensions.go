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
		Points:     func(ctx context.Context, e *Env) []func() error { return queuePoints(ctx, e, extPoliciesSpecs()) },
		Title:      "Extension: thread-switch policy study",
		PaperShape: "paper argues run-until-block preserves chaining; fine-grain interleave should lose",
		Run: func(ctx context.Context, e *Env) (*Result, error) {
			t := report.NewTable("Ten-program queue at latency 50",
				"policy", "contexts", "cycles", "mem occ", "VOPC", "lost decode")
			for _, pol := range sched.Names() {
				for _, nctx := range []int{2, 4} {
					rep, err := e.QueueRun(ctx, QueueSpec{Contexts: nctx, Latency: 50, Policy: pol})
					if err != nil {
						return nil, err
					}
					t.AddRow(pol, report.I(int64(nctx)), report.I(rep.Cycles),
						report.Pct(rep.MemOccupation()), report.F(rep.VOPC(), 2),
						report.I(rep.LostDecode))
				}
			}
			return &Result{ID: "ext-policies", Title: "Policy study", Tables: []*report.Table{t}}, nil
		},
	}
}

// extPortsExp is the Cray-like multi-port memory future work (Section 10).
func extPortsExp() Experiment {
	return Experiment{
		ID:         "ext-ports",
		Points:     func(ctx context.Context, e *Env) []func() error { return queuePoints(ctx, e, extPortsSpecs()) },
		Title:      "Extension: Cray-like 2-load/1-store memory ports",
		PaperShape: "paper predicts multi-port machines need simultaneous multi-thread issue to saturate",
		Run: func(ctx context.Context, e *Env) (*Result, error) {
			t := report.NewTable("Ten-program queue at latency 50",
				"memory", "contexts", "issue width", "cycles", "occ/port")
			for _, nctx := range []int{1, 2, 4} {
				rep, err := e.QueueRun(ctx, QueueSpec{Contexts: nctx, Latency: 50})
				if err != nil {
					return nil, err
				}
				t.AddRow("1 port", report.I(int64(nctx)), "1", report.I(rep.Cycles), report.Pct(rep.MemOccupation()))
			}
			for _, nctx := range []int{2, 4} {
				for _, iw := range []int{1, 2} {
					if iw > nctx {
						continue
					}
					rep, err := e.QueueRun(ctx, QueueSpec{
						Contexts: nctx, Latency: 50, LoadPorts: 2, StorePorts: 1, IssueWidth: iw,
					})
					if err != nil {
						return nil, err
					}
					t.AddRow("2L+1S ports", report.I(int64(nctx)), report.I(int64(iw)),
						report.I(rep.Cycles), report.Pct(rep.MemOccupation()))
				}
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
		Points:     func(ctx context.Context, e *Env) []func() error { return queuePoints(ctx, e, extBanksSpecs()) },
		Title:      "Extension: banked memory with conflict stalls",
		PaperShape: "the paper assumes a conflict-free memory; banking should cost little at unit stride",
		Run: func(ctx context.Context, e *Env) (*Result, error) {
			t := report.NewTable("Ten-program queue at latency 50",
				"memory model", "contexts", "cycles", "vs flat")
			for _, nctx := range []int{1, 2} {
				flat, err := e.QueueRun(ctx, QueueSpec{Contexts: nctx, Latency: 50})
				if err != nil {
					return nil, err
				}
				banked, err := e.QueueRun(ctx, QueueSpec{Contexts: nctx, Latency: 50, Banks: 64, BankBusy: 8})
				if err != nil {
					return nil, err
				}
				t.AddRow("flat", report.I(int64(nctx)), report.I(flat.Cycles), "1.0000")
				t.AddRow("64 banks, busy 8", report.I(int64(nctx)), report.I(banked.Cycles),
					report.F(float64(banked.Cycles)/float64(flat.Cycles), 4))
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
		Points:     func(ctx context.Context, e *Env) []func() error { return queuePoints(ctx, e, extIssueSpecs()) },
		Title:      "Extension: simultaneous issue from several threads",
		PaperShape: "paper expects little gain on a single-port machine (decode is rarely the bottleneck)",
		Run: func(ctx context.Context, e *Env) (*Result, error) {
			t := report.NewTable("Ten-program queue at latency 50",
				"contexts", "issue width", "cycles", "speed vs width 1", "mem occ")
			for _, nctx := range []int{2, 3, 4} {
				var base int64
				for _, iw := range []int{1, 2} {
					rep, err := e.QueueRun(ctx, QueueSpec{Contexts: nctx, Latency: 50, IssueWidth: iw})
					if err != nil {
						return nil, err
					}
					rel := "1.000"
					if iw == 1 {
						base = rep.Cycles
					} else {
						rel = report.F(float64(base)/float64(rep.Cycles), 3)
					}
					t.AddRow(report.I(int64(nctx)), report.I(int64(iw)), report.I(rep.Cycles),
						rel, report.Pct(rep.MemOccupation()))
				}
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
