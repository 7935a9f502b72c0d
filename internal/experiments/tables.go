package experiments

import (
	"context"
	"fmt"

	"mtvec/internal/isa"
	"mtvec/internal/report"
	"mtvec/internal/workload"
)

// table1Exp dumps the Table 1 latency reconstruction.
func table1Exp() Experiment {
	return Experiment{
		ID:         "table1",
		Title:      "Table 1: latency parameters",
		PaperShape: "scalar int/fp and vector unit latencies; 2-cycle crossbars; 1-cycle vector startup",
		Run: func(_ context.Context, e *Env) (*Result, error) {
			lt := isa.DefaultLatencies()
			t := report.NewTable("Functional-unit latencies (cycles)",
				"class", "scalar int", "scalar fp", "vector")
			for _, c := range []isa.LatClass{isa.LatAdd, isa.LatLogic, isa.LatShift, isa.LatMul, isa.LatDiv, isa.LatSqrt} {
				t.AddRow(c.String(),
					report.I(int64(lt.ScalarInt[c])),
					report.I(int64(lt.ScalarFP[c])),
					report.I(int64(lt.Vector[c])))
			}
			t2 := report.NewTable("Pipeline-front parameters (cycles)", "parameter", "reference", "multithreaded")
			t2.AddRow("read crossbar", report.I(int64(lt.ReadXbar)), report.I(int64(lt.ReadXbar))+" (3 in §8 study)")
			t2.AddRow("write crossbar", report.I(int64(lt.WriteXbar)), report.I(int64(lt.WriteXbar))+" (3 in §8 study)")
			t2.AddRow("vector startup", report.I(int64(lt.VectorStartup)), report.I(int64(lt.VectorStartup)))
			return &Result{
				ID: "table1", Title: "Table 1",
				Tables: []*report.Table{t, t2},
				Notes: []string{
					"Memory latency is the experimental variable (default 50 cycles).",
				},
			}, nil
		},
	}
}

// table2Exp reports the grouping scheme reconstruction.
func table2Exp() Experiment {
	return Experiment{
		ID:         "table2",
		Title:      "Table 2: randomly selected companion programs",
		PaperShape: "5 two-thread, 10 three-thread, 10 four-thread simulations per program",
		Run: func(_ context.Context, e *Env) (*Result, error) {
			g := workload.DefaultGroupings()
			t := report.NewTable("Companion programs per thread count", "2 threads", "3 threads", "4 threads")
			rows := len(g.Col2)
			for i := 0; i < rows; i++ {
				c2 := g.Col2[i].Short
				c3, c4 := "", ""
				if i < len(g.Col3) {
					c3 = g.Col3[i].Short
				}
				if i < len(g.Col4) {
					c4 = g.Col4[i].Short
				}
				t.AddRow(c2, c3, c4)
			}
			perProgram := len(g.Col2) + len(g.Col2)*len(g.Col3) + len(g.Col2)*len(g.Col3)*len(g.Col4)
			return &Result{
				ID: "table2", Title: "Table 2",
				Tables: []*report.Table{t},
				Notes: []string{
					note("%d grouped simulations per program (%d total), matching the paper's 5+10+10.",
						perProgram, perProgram*len(workload.Specs())),
					"Column 2 follows the Figure 7 caption; columns 3-4 are documented reconstructions (DESIGN.md).",
				},
			}, nil
		},
	}
}

// table3Exp compares every workload's measured dynamic profile with its
// published Table 3 row.
func table3Exp() Experiment {
	return Experiment{
		ID:         "table3",
		Title:      "Table 3: basic operation counts",
		PaperShape: "per-program scalar/vector instructions (M), vector operations (M), %vectorized, average VL",
		Inputs:     func() []Input { return builds(workload.Specs()) },
		Run: func(_ context.Context, e *Env) (*Result, error) {
			t := report.NewTable(
				fmt.Sprintf("Dynamic profiles at scale %g (counts rescaled to paper millions)", e.Scale),
				"program", "suite",
				"S-insn M (paper)", "V-insn M (paper)", "V-ops M (paper)",
				"%vect (paper)", "avg VL (paper)")
			for _, spec := range workload.Specs() {
				w, err := e.W(spec.Short)
				if err != nil {
					return nil, err
				}
				toM := func(v int64) string {
					return report.F(float64(v)/1e6/e.Scale, 1)
				}
				st := &w.Stats
				t.AddRow(spec.Name, spec.Suite,
					fmt.Sprintf("%s (%.1f)", toM(st.ScalarInsts), spec.ScalarM),
					fmt.Sprintf("%s (%.1f)", toM(st.VectorInsts), spec.VectorM),
					fmt.Sprintf("%s (%.1f)", toM(st.VectorOps), spec.OpsM),
					fmt.Sprintf("%.1f (%.1f)", st.PctVectorized(), spec.PctVect),
					fmt.Sprintf("%.0f (%.0f)", st.AvgVL(), spec.AvgVL),
				)
			}
			return &Result{
				ID: "table3", Title: "Table 3",
				Tables: []*report.Table{t},
				Notes: []string{
					"bdna's scalar count uses the self-consistent 239.6M (see DESIGN.md).",
					"All ten reconstructions are calibrated within test tolerances of the published rows.",
				},
			}, nil
		},
	}
}

// shortNames returns the ten programs' short tags in Table 3 order.
func shortNames() []string {
	specs := workload.Specs()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Short
	}
	return out
}
