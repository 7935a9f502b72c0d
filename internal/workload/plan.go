package workload

import (
	"fmt"

	"mtvec/internal/isa"
	"mtvec/internal/vcomp"
)

// interleaveGroups controls how finely the planner interleaves the
// benchmark's phases; real programs alternate their kernels inside outer
// timestep loops, and the interleaving matters once several workloads
// share a multithreaded machine.
const interleaveGroups = 32

// plan solves the invocation schedule that hits the spec's Table 3
// targets at the requested scale, as runs of identical invocations.
//
// For each vector phase it chooses how many invocations reproduce the
// phase's share of the vector-operation target (plus one partial
// invocation for the remainder), then soaks the remaining scalar-
// instruction budget with iterations of the "serial" loop. It fails if
// the vector loops' own control overhead already exceeds the scalar
// budget by more than 10% — that means the recipe's loop bodies are too
// small for the program being modelled.
func plan(c *vcomp.Compiled, s *Spec, phases []phase, scale float64) ([]vcomp.Run, error) {
	opsTarget := s.OpsM * 1e6 * scale
	scalarTarget := s.ScalarM * 1e6 * scale

	var shareSum float64
	for _, ph := range phases {
		shareSum += ph.share
	}
	if len(phases) == 0 || shareSum < 0.99 || shareSum > 1.01 {
		return nil, fmt.Errorf("phase shares sum to %.3f, want 1", shareSum)
	}

	type phasePlan struct {
		unit     int
		n        int64
		full     int64 // full invocations
		partialN int64 // trip count of one final partial invocation (0 = none)
	}
	plans := make([]phasePlan, 0, len(phases))
	var scalarSpent float64

	for _, ph := range phases {
		unit := c.UnitIndex(ph.unit)
		if unit < 0 {
			return nil, fmt.Errorf("phase names unknown unit %q", ph.unit)
		}
		scInv, vecInv, opsInv := c.EstimateInvocation(unit, ph.n)
		if vecInv == 0 || opsInv == 0 {
			return nil, fmt.Errorf("unit %q is not a vector loop", ph.unit)
		}
		want := opsTarget * ph.share
		full := int64(want / float64(opsInv))
		rem := want - float64(full)*float64(opsInv)
		opsPerElem := float64(opsInv) / float64(ph.n)
		partialN := int64(rem / opsPerElem)
		pp := phasePlan{unit: unit, n: ph.n, full: full, partialN: partialN}
		plans = append(plans, pp)

		scalarSpent += float64(full * scInv)
		if partialN > 0 {
			scP, _, _ := c.EstimateInvocation(unit, partialN)
			scalarSpent += float64(scP)
		}
	}

	// Serial-loop budget.
	serial := c.UnitIndex("serial")
	if serial < 0 {
		return nil, fmt.Errorf("kernel has no serial loop")
	}
	residual := scalarTarget - scalarSpent
	if residual < -0.10*scalarTarget {
		// At the reference vector length this means the recipe's loop
		// bodies are too small for the program being modelled — a bug in
		// the recipe. At a swept (shorter) register length the extra
		// strip-control overhead is the modelled machine's own cost:
		// keep the schedule and let the workload carry the higher scalar
		// fraction, which is exactly what short registers do.
		if c.RegFile().VLen == isa.MaxVL {
			return nil, fmt.Errorf("vector loop control overhead (%.0f) exceeds scalar budget (%.0f); enlarge loop bodies",
				scalarSpent, scalarTarget)
		}
	}
	sc1, _, _ := c.EstimateInvocation(serial, 1)
	sc2, _, _ := c.EstimateInvocation(serial, 2)
	perIter := sc2 - sc1
	entry := sc1 - perIter
	var serialIters int64
	if residual > float64(entry) && perIter > 0 {
		serialIters = int64(residual / float64(perIter))
	}

	// Interleave: split every phase's invocations (and the serial
	// iterations) across interleaveGroups rounds. Within a round a
	// phase's invocations are one run, so the schedule holds one run
	// per phase and round that has invocations, one serial run per
	// round that has iterations, and one partial per phase that has
	// one: its length does not grow with the scale, and it is sized
	// once.
	groups := int64(interleaveGroups)
	size := min(serialIters, groups)
	for _, pp := range plans {
		size += min(pp.full, groups)
		if pp.partialN > 0 {
			size++
		}
	}
	runs := make([]vcomp.Run, 0, max(size, 0))
	for g := int64(0); g < groups; g++ {
		for _, pp := range plans {
			count := pp.full / groups
			if g < pp.full%groups {
				count++
			}
			if count > 0 {
				runs = append(runs, vcomp.Run{Invocation: vcomp.Invocation{Unit: pp.unit, N: pp.n}, Count: count})
			}
		}
		iters := serialIters / groups
		if g < serialIters%groups {
			iters++
		}
		if iters > 0 {
			runs = append(runs, vcomp.Run{Invocation: vcomp.Invocation{Unit: serial, N: iters}, Count: 1})
		}
	}
	for _, pp := range plans {
		if pp.partialN > 0 {
			runs = append(runs, vcomp.Run{Invocation: vcomp.Invocation{Unit: pp.unit, N: pp.partialN}, Count: 1})
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("empty schedule at scale %g; increase scale", scale)
	}
	return runs, nil
}
