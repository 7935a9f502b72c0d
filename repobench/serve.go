package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"mtvec"
	"mtvec/internal/cluster"
	"mtvec/internal/session"
	"mtvec/internal/store"
)

// serve-mixed: two clients POST sweeps to an in-process coordinator over
// two workers. About a third of the points are new; the rest repeat
// points answered earlier or preloaded into the workers' stores.
const (
	serveScale   = 5e-4
	servePreload = 8 // points per program in the stores before the run
	// Tickets come in pairs that share a program and five new points:
	// the even ticket takes new points 0–2, the odd one 2–4, so the two
	// clients, drawing consecutive tickets, ask for point 2 at once.
	// Each ticket adds serveRepeat points answered before the pair.
	serveNewPerPair = 5
	serveFresh      = 3
	serveRepeat     = 5
	serveKeep       = 12
	// serveHedgeAfter is mtvserve's default.
	serveHedgeAfter = 30 * time.Second
)

// servePlan hands out tickets (sweep requests) in a seeded order from
// one shared cursor. Pairs take their program from shuffled decks of
// all 17, so every run sees a balanced mix.
type servePlan struct {
	mu       sync.Mutex
	rng      *rand.Rand
	progs    []string
	deck     []int
	policies []string
	perm     [][]int
	used     []int
	answered [][]cluster.PointAxes // per program: preloaded, then new points of finished pairs
	prog     int                   // program of the current pair
	pair     []cluster.PointAxes   // new points of the current pair
	issued   int
	newPts   int // distinct new points in issued tickets
}

type ticket struct {
	prog string
	pts  []cluster.PointAxes
}

func newServePlan(rng *rand.Rand, progs []string) *servePlan {
	p := &servePlan{rng: rng, progs: progs, policies: mtvec.PolicyNames()}
	space := sweepLatencies * sweepContexts * len(p.policies)
	for range progs {
		p.perm = append(p.perm, rng.Perm(space))
		p.used = append(p.used, 0)
		p.answered = append(p.answered, nil)
	}
	for i := range progs {
		for k := 0; k < servePreload; k++ {
			p.answered[i] = append(p.answered[i], p.draw(i))
		}
	}
	return p
}

// draw returns program i's next unused point. The point space holds
// 3200 points per program, far more than a run asks for.
func (p *servePlan) draw(i int) cluster.PointAxes {
	idx := p.perm[i][p.used[i]%len(p.perm[i])]
	p.used[i]++
	lat := 1 + idx%sweepLatencies
	idx /= sweepLatencies
	return cluster.PointAxes{Contexts: 1 + idx%sweepContexts, Latency: lat, Policy: p.policies[idx/sweepContexts]}
}

func (p *servePlan) next() ticket {
	p.mu.Lock()
	defer p.mu.Unlock()
	odd := p.issued%2 == 1
	if !odd {
		if len(p.deck) == 0 {
			p.deck = p.rng.Perm(len(p.progs))
		}
		p.prog, p.deck = p.deck[0], p.deck[1:]
		p.pair = p.pair[:0]
		for k := 0; k < serveNewPerPair; k++ {
			p.pair = append(p.pair, p.draw(p.prog))
		}
	}
	var pts []cluster.PointAxes
	if odd {
		pts = append(pts, p.pair[serveNewPerPair-serveFresh:]...)
		p.newPts += serveNewPerPair - serveFresh
	} else {
		pts = append(pts, p.pair[:serveFresh]...)
		p.newPts += serveFresh
	}
	old := p.answered[p.prog]
	for _, j := range p.rng.Perm(len(old))[:serveRepeat] {
		pts = append(pts, old[j])
	}
	p.rng.Shuffle(len(pts), func(a, b int) { pts[a], pts[b] = pts[b], pts[a] })
	if odd {
		p.answered[p.prog] = append(p.answered[p.prog], p.pair...)
	}
	p.issued++
	return ticket{prog: p.progs[p.prog], pts: pts}
}

func pointKey(prog string, a cluster.PointAxes) string {
	return fmt.Sprintf("%s/%d/%d/%s", prog, a.Contexts, a.Latency, a.Policy)
}

type servedPoint struct {
	prog string
	axes cluster.PointAxes
	rep  *mtvec.Report
}

type serveInst struct {
	e       setupEnv
	plan    *servePlan
	workers []*cluster.Server
	stores  []*timedStore
	dirs    []string
	coord   *cluster.Coordinator
	servers []*httptest.Server // coordinator last
	url     string
	client  *http.Client
	tracker *sweepTracker
	preload []servedPoint

	mu        sync.Mutex
	pick      *rand.Rand
	seen      int
	kept      []servedPoint
	simSeen   map[string]bool
	responses int
	tally     cluster.SweepResponse // summed counters of every response
}

func setupServe(e setupEnv) (inst instance, err error) {
	var progs []string
	for _, sp := range supplies() {
		progs = append(progs, sp.Short)
	}
	s := &serveInst{
		e: e, plan: newServePlan(rand.New(rand.NewSource(e.seed)), progs), tracker: newSweepTracker(),
		pick: rand.New(rand.NewSource(e.seed + 1)), simSeen: map[string]bool{},
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if err := s.preloadStores(); err != nil {
		return nil, err
	}
	var urls []string
	for _, dir := range s.dirs {
		srv, err := cluster.NewServer(cluster.Config{Scale: e.scale, Jobs: 1, StoreDir: dir})
		if err != nil {
			return nil, err
		}
		back, ts := wrapStore(srv.Session().Store(), e.tr)
		srv.Session().SetStore(back)
		// Build and predecode every program now, so the timed region
		// does not pay for a worker's first sight of a program.
		for _, p := range progs {
			w, err := srv.Env().W(p)
			if err != nil {
				return nil, err
			}
			w.Trace.Decoded()
		}
		hs := httptest.NewServer(traceHandler("cluster.worker", e.tr, srv.Handler(), nil))
		s.workers = append(s.workers, srv)
		s.stores = append(s.stores, ts)
		s.servers = append(s.servers, hs)
		urls = append(urls, hs.URL)
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Scale: e.scale, Workers: urls, HedgeAfter: serveHedgeAfter,
		Client: &http.Client{Transport: &subSweepTransport{base: newTransport(), tr: e.tr, tk: s.tracker}},
	})
	if err != nil {
		return nil, err
	}
	s.coord = coord
	for _, p := range progs {
		if _, err := coord.Env().W(p); err != nil {
			return nil, err
		}
	}
	hs := httptest.NewServer(traceHandler("cluster.coord", e.tr, coord.Handler(), s.tracker.setCoord))
	s.servers = append(s.servers, hs)
	s.url = hs.URL
	s.client = &http.Client{Transport: newTransport()}
	return s, nil
}

// preloadStores simulates every program's preloaded points on a local
// session and writes each record into both workers' store directories,
// so the first repeat of a preloaded point is a store read wherever the
// ring routes it.
func (s *serveInst) preloadStores() error {
	s.dirs = []string{s.e.dir + "/w0", s.e.dir + "/w1"}
	var dirs []*store.Dir
	for _, d := range s.dirs {
		st, err := store.Open(d)
		if err != nil {
			return err
		}
		dirs = append(dirs, st)
	}
	env := mtvec.NewEnv(s.e.scale)
	env.SetJobs(s.e.jobs)
	var specs []session.RunSpec
	for i, prog := range s.plan.progs {
		for _, a := range s.plan.answered[i] {
			spec, err := cluster.ResolveSpec(env, solo(prog, a))
			if err != nil {
				return err
			}
			specs = append(specs, spec)
			s.preload = append(s.preload, servedPoint{prog: prog, axes: a})
		}
	}
	ses := env.Session()
	reps, err := ses.RunAll(context.Background(), specs...)
	if err != nil {
		return err
	}
	for i, spec := range specs {
		key, ok := ses.PersistKey(spec)
		if !ok {
			return fmt.Errorf("preload point %v has no persist key", s.preload[i])
		}
		for _, d := range dirs {
			if err := d.Put(key, reps[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func solo(prog string, a cluster.PointAxes) cluster.RunRequest {
	return cluster.RunRequest{Mode: "solo", Programs: []string{prog}, Contexts: a.Contexts, Latency: a.Latency, Policy: a.Policy}
}

// newTransport returns a transport of the instance's own, so closing
// the instance drops its idle connections.
func newTransport() *http.Transport { return http.DefaultTransport.(*http.Transport).Clone() }

func (s *serveInst) request(ctx context.Context, _ int, _ int64) outcome {
	t := s.plan.next()
	o := outcome{points: len(t.pts)}
	resp, err := s.post(ctx, t)
	if err != nil || len(resp.Points) != len(t.pts) {
		o.failed = o.points
		return o
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.responses++
	s.tally.Simulated += resp.Simulated
	s.tally.MemoHits += resp.MemoHits
	s.tally.StoreHits += resp.StoreHits
	s.tally.PeerHits += resp.PeerHits
	s.tally.Failed += resp.Failed
	s.tally.Coalesced += resp.Coalesced
	s.tally.Retries += resp.Retries
	s.tally.Hedges += resp.Hedges
	o.reps = make([]*mtvec.Report, len(resp.Points))
	for i, pt := range resp.Points {
		o.reps[i] = pt.Report
		if pt.Report == nil {
			continue
		}
		// A coalesced point carries its leader's "sim" tag, so count
		// each simulated point once.
		if key := pointKey(t.prog, t.pts[i]); pt.Cache == "sim" && !s.simSeen[key] {
			s.simSeen[key] = true
			o.sims++
			o.insts += pt.Report.Insts
		}
		s.seen++
		sp := servedPoint{t.prog, t.pts[i], pt.Report}
		if len(s.kept) < serveKeep {
			s.kept = append(s.kept, sp)
		} else if j := s.pick.Intn(s.seen); j < serveKeep {
			s.kept[j] = sp
		}
	}
	o.verify = func() int {
		failed := 0
		for i, pt := range resp.Points {
			want := t.pts[i]
			if pt.Error != "" || pt.Report == nil || pt.Contexts != want.Contexts || pt.Latency != want.Latency || pt.Policy != want.Policy {
				failed++
			}
		}
		if resp.Failed != 0 {
			failed = len(t.pts)
		}
		return failed
	}
	return o
}

// post sends one ticket to the coordinator and decodes the answer.
func (s *serveInst) post(ctx context.Context, t ticket) (*cluster.SweepResponse, error) {
	body, err := json.Marshal(cluster.SweepRequest{Base: cluster.RunRequest{Mode: "solo", Programs: []string{t.prog}}, Points: t.pts})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/api/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	tr := s.e.tr
	if tr.on() {
		id, start := tr.begin()
		keys := make([]string, len(t.pts))
		for i, a := range t.pts {
			keys[i] = pointKey(t.prog, a)
		}
		s.tracker.add(id, keys)
		setSpanHeaders(req.Header, id, id)
		defer func() {
			tr.finish(id, 0, id, "client.sweep", start)
			s.tracker.remove(id)
		}()
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("sweep: %s", resp.Status)
	}
	var sr cluster.SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, err
	}
	return &sr, nil
}

// check re-runs the sampled points on a standalone session without
// memo or batching and requires identical reports.
func (s *serveInst) check() (int, int) {
	env := mtvec.NewEnv(s.e.scale)
	ref := session.New(session.WithoutMemo(), session.WithoutBatching(), session.WithJobs(s.e.jobs))
	failed := 0
	for _, k := range s.kept {
		spec, err := cluster.ResolveSpec(env, solo(k.prog, k.axes))
		if err != nil {
			failed++
			continue
		}
		rep, err := ref.Run(context.Background(), spec)
		if err != nil || !sameJSON(rep, k.rep) {
			failed++
		}
	}
	return len(s.kept), failed
}

func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}

func (s *serveInst) workerSims() int64 {
	var n int64
	for _, w := range s.workers {
		n += w.Session().Simulations()
	}
	return n
}

func (s *serveInst) traffic() map[string]float64 {
	s.plan.mu.Lock()
	newPts := s.plan.newPts
	s.plan.mu.Unlock()
	points := float64(s.seen)
	return map[string]float64{
		"preloaded_points":   float64(len(s.preload)),
		"new_points_issued":  float64(newPts),
		"worker_simulations": float64(s.workerSims()),
		"fresh_share":        float64(newPts) / points,
		"sim_share":          float64(s.workerSims()) / points,
		"responses":          float64(s.responses),
		"tagged_sim":         float64(s.tally.Simulated),
		"memo_hits":          float64(s.tally.MemoHits),
		"store_hits":         float64(s.tally.StoreHits),
		"coalesced":          float64(s.tally.Coalesced),
		"retries":            float64(s.tally.Retries),
		"hedges":             float64(s.tally.Hedges),
	}
}

func (s *serveInst) busy() (time.Duration, int) {
	var b time.Duration
	for _, w := range s.workers {
		b += w.Session().Busy()
	}
	return b, len(s.workers)
}

// memoProbe replays preloaded points on the first worker's session.
func (s *serveInst) memoProbe() (*session.Session, []session.RunSpec, error) {
	w := s.workers[0]
	var specs []session.RunSpec
	for _, p := range s.preload {
		spec, err := cluster.ResolveSpec(w.Env(), solo(p.prog, p.axes))
		if err != nil {
			return nil, nil, err
		}
		specs = append(specs, spec)
	}
	return w.Session(), specs, nil
}

func (s *serveInst) layers(m metricSet, ix spanIndex) {
	points := float64(max(s.seen, 1))
	m.set("session.sim_points", float64(s.workerSims()), "count")
	m.set("session.store_hits", float64(s.tally.StoreHits), "count")
	m.set("session.memo_hits", float64(s.tally.MemoHits), "count")
	m.set("cluster.coalesced_frac", float64(s.tally.Coalesced)/points, "fraction")
	m.set("cluster.retries", float64(s.tally.Retries), "count")
	m.set("cluster.hedges", float64(s.tally.Hedges), "count")
	m.set("cluster.hit_frac", float64(s.tally.MemoHits+s.tally.StoreHits+s.tally.PeerHits)/points, "fraction")
	if len(ix.byName["cluster.coord"]) > 0 {
		m.set("cluster.coord_self_ms", ix.meanSelf("cluster.coord", "cluster.worker")/1e6, "ms")
	}
	if ns, n := ix.meanDur("cluster.worker"); n > 0 {
		m.set("cluster.worker_ms_per_subsweep", ns/1e6, "ms")
	}
	if len(ix.byName["client.sweep"]) > 0 {
		m.set("cluster.http_ms", ix.meanSelf("client.sweep", "cluster.coord")/1e6, "ms")
	}
	storeLayers(m, ix, s.stores, s.dirs)
}

func (s *serveInst) close() {
	if s.coord != nil {
		s.coord.Close()
	}
	// The coordinator's server closes first: it holds the only clients
	// of the workers.
	for i := len(s.servers) - 1; i >= 0; i-- {
		s.servers[i].Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}
