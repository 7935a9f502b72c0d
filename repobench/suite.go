package main

import (
	"bytes"
	"context"
	"time"

	"mtvec"
	"mtvec/internal/session"
	"mtvec/internal/store"
)

// suite-warm: one caller regenerates the paper's whole evaluation over
// and over, each pass on a fresh Env over a store that set-up filled
// with one cold pass. No pass simulates.
const suiteScale = 1e-4

type suiteInst struct {
	e    setupEnv
	back store.Backend
	ts   *timedStore
	dir  string
	// golden is the cold pass's rendered output, points its number of
	// distinct simulation points — what every warm pass reads back.
	golden []byte
	points int64

	passes, badPasses int
	sims, storeHits   int64
	busyTotal         time.Duration
	tracedTables      int
}

func setupSuite(e setupEnv) (instance, error) {
	dir := e.dir + "/store"
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	back, ts := wrapStore(st, e.tr)
	s := &suiteInst{e: e, back: back, ts: ts, dir: dir}
	env := s.newEnv()
	res, _, err := mtvec.RunExperiments(env, mtvec.Experiments(), e.jobs)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, r := range res {
		if err := mtvec.RenderResult(&buf, r); err != nil {
			return nil, err
		}
	}
	s.golden = buf.Bytes()
	s.points = env.Simulations()
	return s, nil
}

func (s *suiteInst) newEnv() *mtvec.Env {
	env := mtvec.NewEnv(s.e.scale)
	env.SetJobs(s.e.jobs)
	env.SetStore(s.back)
	return env
}

func (s *suiteInst) request(ctx context.Context, _ int, _ int64) outcome {
	env := s.newEnv()
	tr := s.e.tr
	traced := tr.on()
	var root, rootStart int64
	if traced {
		root, rootStart = tr.begin()
	}
	var (
		res []*mtvec.ExperimentResult
		err error
	)
	if traced {
		id, start := tr.begin()
		tr.setCurrent(id, root)
		res, _, err = mtvec.RunExperimentsContext(ctx, env, mtvec.Experiments(), s.e.jobs)
		tr.finish(id, root, root, "experiments.run", start)
	} else {
		res, _, err = mtvec.RunExperimentsContext(ctx, env, mtvec.Experiments(), s.e.jobs)
	}
	var buf bytes.Buffer
	for _, r := range res {
		if err != nil {
			break
		}
		if traced {
			id, start := tr.begin()
			err = mtvec.RenderResult(&buf, r)
			tr.finish(id, root, root, "report.render", start)
			s.tracedTables += len(r.Tables)
		} else {
			err = mtvec.RenderResult(&buf, r)
		}
	}
	if traced {
		tr.finish(root, 0, root, "suite.pass", rootStart)
	}
	sims, hits := env.Simulations(), env.StoreHits()
	s.passes++
	s.sims += sims
	s.storeHits += hits
	s.busyTotal += env.BusyTime()
	o := outcome{points: int(s.points)}
	if err != nil {
		s.badPasses++
		o.failed = o.points
		return o
	}
	out := buf.Bytes()
	o.verify = func() int {
		if sims != 0 || hits != s.points || !bytes.Equal(out, s.golden) {
			s.badPasses++
			return o.points
		}
		return 0
	}
	return o
}

// check has nothing left to do: every pass was verified as it returned.
func (s *suiteInst) check() (int, int) { return s.passes * int(s.points), 0 }

func (s *suiteInst) traffic() map[string]float64 {
	return map[string]float64{
		"passes":              float64(s.passes),
		"bad_passes":          float64(s.badPasses),
		"points_per_pass":     float64(s.points),
		"session_simulations": float64(s.sims),
		"session_store_hits":  float64(s.storeHits),
	}
}

func (s *suiteInst) busy() (time.Duration, int) { return s.busyTotal, s.e.jobs }

// memoProbe answers the ten Table 3 programs' reference runs on a fresh
// Env over the warm store.
func (s *suiteInst) memoProbe() (*session.Session, []session.RunSpec, error) {
	env := s.newEnv()
	var specs []session.RunSpec
	for _, sp := range mtvec.Workloads() {
		w, err := env.W(sp.Short)
		if err != nil {
			return nil, nil, err
		}
		specs = append(specs, mtvec.Solo(w, mtvec.WithMemLatency(50)))
	}
	return env.Session(), specs, nil
}

func (s *suiteInst) layers(m metricSet, ix spanIndex) {
	m.set("session.sim_points", float64(s.sims), "count")
	m.set("session.store_hits", float64(s.storeHits), "count")
	if len(ix.byName["experiments.run"]) > 0 {
		m.set("experiments.self_ms_per_pass", ix.meanSelf("experiments.run", "store.")/1e6, "ms")
	}
	if s.tracedTables > 0 {
		var total int64
		for _, sp := range ix.byName["report.render"] {
			total += sp.dur()
		}
		m.set("report.render_us_per_table", float64(total)/1e3/float64(s.tracedTables), "us")
	}
	storeLayers(m, ix, []*timedStore{s.ts}, []string{s.dir})
}

func (s *suiteInst) close() {}
