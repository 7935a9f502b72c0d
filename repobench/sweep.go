package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"time"

	"mtvec"
	"mtvec/internal/session"
	"mtvec/internal/store"
	"mtvec/internal/workload"
)

// sweep-cold: one caller issues successive RunAll sweeps on one Session
// with write-through to a store. Every point is new to the run, so
// every point simulates.
const (
	sweepScale = 3e-4
	// The point space of one supply: memory latency × contexts × policy.
	// It is large enough that a run never exhausts it.
	sweepLatencies = 200
	sweepContexts  = 4
	// sweepKeep is the size of the seeded sample re-run on a plain
	// session by the output check.
	sweepKeep = 16
)

// supplies returns the 17 instruction supplies: the ten Table 3
// programs and the seven benchmark kernels.
func supplies() []*workload.Spec {
	return append(mtvec.Workloads(), mtvec.BenchWorkloads()...)
}

// sweepPlan draws sweeps from a seed. Supplies are dealt from shuffled
// decks, and each supply deals its point counts from its own shuffled
// deck of 1–8, so the work in a run varies little from seed to seed.
// Each supply's points come from its own permutation of the point
// space, so none repeats.
type sweepPlan struct {
	rng      *rand.Rand
	ws       []*mtvec.Workload
	policies []string
	deck     []int
	counts   [][]int
	perm     [][]int
	used     []int
}

func newSweepPlan(seed int64, ws []*mtvec.Workload) *sweepPlan {
	p := &sweepPlan{rng: rand.New(rand.NewSource(seed)), ws: ws, policies: mtvec.PolicyNames()}
	space := sweepLatencies * sweepContexts * len(p.policies)
	for range ws {
		p.perm = append(p.perm, p.rng.Perm(space))
		p.used = append(p.used, 0)
		p.counts = append(p.counts, nil)
	}
	return p
}

// next returns one sweep: 2–4 supplies with 1–8 points each.
func (p *sweepPlan) next() ([]session.RunSpec, error) {
	n := 2 + p.rng.Intn(3)
	var chosen []int
	for len(chosen) < n {
		if len(p.deck) == 0 {
			p.deck = p.rng.Perm(len(p.ws))
		}
		s := p.deck[0]
		p.deck = p.deck[1:]
		if !slices.Contains(chosen, s) {
			chosen = append(chosen, s)
		}
	}
	var specs []session.RunSpec
	for _, s := range chosen {
		if len(p.counts[s]) == 0 {
			p.counts[s] = p.rng.Perm(8)
		}
		k := 1 + p.counts[s][0]
		p.counts[s] = p.counts[s][1:]
		for ; k > 0; k-- {
			if p.used[s] == len(p.perm[s]) {
				return nil, fmt.Errorf("supply %s: point space exhausted", p.ws[s].Spec.Short)
			}
			idx := p.perm[s][p.used[s]]
			p.used[s]++
			lat := 1 + idx%sweepLatencies
			idx /= sweepLatencies
			ctx := 1 + idx%sweepContexts
			pol := p.policies[idx/sweepContexts]
			specs = append(specs, mtvec.Solo(p.ws[s],
				mtvec.WithContexts(ctx), mtvec.WithMemLatency(lat), mtvec.WithPolicy(pol)))
		}
	}
	return specs, nil
}

type keptPoint struct {
	spec session.RunSpec
	rep  *mtvec.Report
}

type sweepInst struct {
	e       setupEnv
	ses     *session.Session
	ts      *timedStore
	dir     string
	plan    *sweepPlan
	pick    *rand.Rand // reservoir sampling of checked points
	seen    int
	kept    []keptPoint
	sources map[session.Source]int
	planErr error
}

func setupSweep(e setupEnv) (instance, error) {
	var ws []*mtvec.Workload
	for _, sp := range supplies() {
		w, err := sp.Build(e.scale)
		if err != nil {
			return nil, err
		}
		if w.Trace.Decoded() == nil {
			return nil, fmt.Errorf("%s: trace does not predecode", sp.Short)
		}
		ws = append(ws, w)
	}
	dir := e.dir + "/store"
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	back, ts := wrapStore(st, e.tr)
	return &sweepInst{
		e:       e,
		ses:     session.New(session.WithJobs(e.jobs), session.WithStore(back)),
		ts:      ts,
		dir:     dir,
		plan:    newSweepPlan(e.seed, ws),
		pick:    rand.New(rand.NewSource(e.seed + 1)),
		sources: map[session.Source]int{},
	}, nil
}

func (s *sweepInst) request(ctx context.Context, _ int, _ int64) outcome {
	specs, err := s.plan.next()
	if err != nil {
		s.planErr = err
		return outcome{points: 1, failed: 1}
	}
	tr := s.e.tr
	var results []session.Result
	if tr.on() {
		id, start := tr.begin()
		tr.setCurrent(id, id)
		results = s.ses.RunAllTracked(ctx, specs...)
		tr.finish(id, 0, id, "session.runall", start)
	} else {
		results = s.ses.RunAllTracked(ctx, specs...)
	}
	o := outcome{points: len(results), reps: make([]*mtvec.Report, len(results))}
	for i, r := range results {
		o.reps[i] = r.Report
		s.sources[r.Source]++
		switch {
		case r.Err != nil, r.Report == nil:
			o.failed++
			continue
		case r.Source != session.SourceSim:
			// A point that did not simulate was not new to the run.
			o.failed++
		default:
			o.sims++
			o.insts += r.Report.Insts
		}
		s.seen++
		if len(s.kept) < sweepKeep {
			s.kept = append(s.kept, keptPoint{specs[i], r.Report})
		} else if j := s.pick.Intn(s.seen); j < sweepKeep {
			s.kept[j] = keptPoint{specs[i], r.Report}
		}
	}
	return o
}

// check re-runs the sampled points on a session without batching and
// without memo, and requires field-identical reports.
func (s *sweepInst) check() (int, int) {
	ref := session.New(session.WithoutBatching(), session.WithoutMemo(), session.WithJobs(s.e.jobs))
	specs := make([]session.RunSpec, len(s.kept))
	for i, k := range s.kept {
		specs[i] = k.spec
	}
	results := ref.RunAllTracked(context.Background(), specs...)
	failed := 0
	for i, r := range results {
		if r.Err != nil || !reflect.DeepEqual(r.Report, s.kept[i].rep) {
			failed++
		}
	}
	if s.planErr != nil {
		failed++
	}
	return len(results), failed
}

func (s *sweepInst) traffic() map[string]float64 {
	return map[string]float64{
		"source_sim":          float64(s.sources[session.SourceSim]),
		"source_memo":         float64(s.sources[session.SourceMemo]),
		"source_store":        float64(s.sources[session.SourceStore]),
		"session_simulations": float64(s.ses.Simulations()),
		"session_store_hits":  float64(s.ses.StoreHits()),
	}
}

func (s *sweepInst) busy() (time.Duration, int) { return s.ses.Busy(), s.ses.Jobs() }

func (s *sweepInst) memoProbe() (*session.Session, []session.RunSpec, error) {
	specs := make([]session.RunSpec, len(s.kept))
	for i, k := range s.kept {
		specs[i] = k.spec
	}
	return s.ses, specs, nil
}

func (s *sweepInst) layers(m metricSet, ix spanIndex) {
	m.set("session.sim_points", float64(s.sources[session.SourceSim]), "count")
	m.set("session.store_hits", float64(s.sources[session.SourceStore]), "count")
	m.set("session.memo_hits", float64(s.sources[session.SourceMemo]), "count")
	storeLayers(m, ix, []*timedStore{s.ts}, []string{s.dir})
}

func (s *sweepInst) close() {}
