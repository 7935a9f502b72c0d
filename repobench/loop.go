package main

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mtvec/internal/session"
	"mtvec/internal/stats"
)

// benchWorkload is one traffic mix the benchmark can run.
type benchWorkload struct {
	name    string
	scale   float64
	clients int
	setup   func(setupEnv) (instance, error)
}

var workloads = []benchWorkload{
	{name: "sweep-cold", scale: sweepScale, clients: 1, setup: setupSweep},
	{name: "suite-warm", scale: suiteScale, clients: 1, setup: setupSuite},
	{name: "serve-mixed", scale: serveScale, clients: 2, setup: setupServe},
}

// setupEnv is what a workload's set-up receives.
type setupEnv struct {
	seed  int64
	scale float64
	jobs  int    // simulation threads the workload may use
	dir   string // fresh scratch directory, removed after the run
	tr    *tracer
}

// instance is a workload that has been set up and can take requests.
type instance interface {
	// request issues request k (numbered across all clients in issue
	// order) from client c and waits for its reply.
	request(ctx context.Context, c int, k int64) outcome
	// check verifies outputs outside the timed region and returns how
	// many points it checked and how many of them failed.
	check() (checked, failed int)
	// traffic reports what answered the workload's points.
	traffic() map[string]float64
	// busy returns the session gates' cumulative busy time and their
	// total slot count.
	busy() (time.Duration, int)
	// memoProbe returns a session and specs it has already answered,
	// for timing memo hits.
	memoProbe() (*session.Session, []session.RunSpec, error)
	// layers adds the per-layer metrics of the traced traffic.
	layers(m metricSet, ix spanIndex)
	close()
}

// outcome is one request's answer.
type outcome struct {
	points, failed, sims int
	insts                int64 // Report.Insts summed over simulated points
	// reps are the answered reports in request order.
	reps []*stats.Report
	// verify, when set, checks the answer after the request's time is
	// taken and returns how many of its points failed.
	verify func() int
}

func (o *outcome) add(p outcome) {
	o.points += p.points
	o.failed += p.failed
	o.sims += p.sims
	o.insts += p.insts
}

type sample struct {
	start, dur time.Duration
	traced     bool
	outcome
}

type loopResult struct {
	samples    []sample
	total      outcome
	wall       time.Duration
	allocBytes uint64
	busyBefore time.Duration
}

// drive runs a closed loop: each client issues its next request as soon
// as the previous one returns, until d has passed. In a traced run the
// tracer records during the middle half only (untraced, traced, traced,
// untraced quarters), so drift over the run cancels out of the
// overhead estimate.
func drive(inst instance, clients int, d time.Duration, tr *tracer) loopResult {
	var res loopResult
	res.busyBefore, _ = inst.busy()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	if tr != nil {
		on := time.AfterFunc(d/4, func() { tr.enabled.Store(true) })
		off := time.AfterFunc(3*d/4, func() { tr.enabled.Store(false) })
		defer func() {
			on.Stop()
			off.Stop()
			tr.enabled.Store(false)
		}()
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	ctx := context.Background()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t0 := time.Since(start)
				if t0 >= d {
					return
				}
				traced := tr.on()
				o := inst.request(ctx, c, next.Add(1)-1)
				s := sample{start: t0, dur: time.Since(start) - t0, traced: traced, outcome: o}
				if o.verify != nil {
					s.failed = min(s.points, s.failed+o.verify())
				}
				s.reps, s.verify = nil, nil
				mu.Lock()
				res.samples = append(res.samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	runtime.ReadMemStats(&ms)
	res.allocBytes = ms.TotalAlloc - alloc0
	slices.SortFunc(res.samples, func(a, b sample) int { return cmp.Compare(a.start, b.start) })
	for _, s := range res.samples {
		res.total.add(s.outcome)
	}
	return res
}

// phases compares the traced and untraced requests of a traced run by
// points answered per second of request time.
func (l loopResult) phases() map[string]float64 {
	var n, pts [2]int
	var busy [2]time.Duration
	for _, s := range l.samples {
		i := 0
		if s.traced {
			i = 1
		}
		n[i]++
		pts[i] += s.points
		busy[i] += s.dur
	}
	rate := func(i int) float64 {
		if busy[i] == 0 {
			return 0
		}
		return float64(pts[i]) / busy[i].Seconds()
	}
	return map[string]float64{
		"untraced_requests":          float64(n[0]),
		"traced_requests":            float64(n[1]),
		"untraced_points_per_busy_s": rate(0),
		"traced_points_per_busy_s":   rate(1),
	}
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
