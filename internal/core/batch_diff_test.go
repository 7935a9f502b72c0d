package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mtvec/internal/arch"
	"mtvec/internal/prog"
	"mtvec/internal/sched"
)

// batch_diff_test.go is the differential gate for pausing and resuming
// a run: across seeded-random machine shapes, policies, context counts,
// latencies, stop rules and thread-supply modes, a Batch lane — paused
// every window while the other lanes run — must produce byte-identical
// Reports and observer event streams to the same configuration run
// solo, uninterrupted, on its own Machine.

// diffPoint is one randomized configuration. attach is deterministic
// and re-invokable: calling it on two machines installs byte-identical
// instruction supplies, so the solo and batched runs see the same
// input.
type diffPoint struct {
	name   string
	cfg    Config
	stop   Stop
	attach func(m *Machine) error
}

// randPoint derives a configuration from seed. The space covers the
// three machine-shape presets with mutated latencies, vector lengths
// and bank ports, all four switch policies, 1–4 contexts, dual-scalar
// mode, issue widths, both engine modes (fast-forward and
// cycle-stepped), the three thread-supply modes, and every stop rule.
// A few points are deliberately out of shape (VLen below the streamed
// vector lengths) so the error path diverges lanes early.
func randPoint(seed int64) diffPoint {
	r := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	archName := "c3400"
	switch r.Intn(4) {
	case 1:
		cfg.Spec = arch.VP2000()
		archName = "vp2000"
	case 2:
		cfg.Spec = arch.CrayLikePorts()
		archName = "cray"
	}
	maxCtx := cfg.Spec.MaxContexts
	if maxCtx > 4 {
		maxCtx = 4
	}
	cfg.Contexts = 1 + r.Intn(maxCtx)
	policy := sched.Names()[r.Intn(len(sched.Names()))]
	cfg.Policy = sched.ByName(policy)
	cfg.Mem.Latency = []int{1, 10, 30, 50, 70, 100}[r.Intn(6)]
	cfg.Mem.ScalarLatency = []int{0, 4, 8}[r.Intn(3)]
	xbar := 1 + r.Intn(3)
	cfg.Lat.ReadXbar, cfg.Lat.WriteXbar = xbar, xbar
	if r.Intn(4) == 0 {
		cfg.RegFile = cfg.RegFile.Normalize()
		cfg.BankReadPorts = 1 + r.Intn(2)
	}
	if r.Intn(20) == 0 {
		// Out of shape: the streams carry 128-element vectors, so a
		// 64-element register file errors the run (in batch and solo
		// alike, identically).
		cfg.RegFile = cfg.RegFile.Normalize()
		cfg.VLen = 64
	}
	if cfg.Contexts == 2 && r.Intn(4) == 0 {
		cfg.DualScalar = true
	}
	if cfg.Contexts > 1 && r.Intn(5) == 0 {
		cfg.IssueWidth = 2
	}
	cfg.DisableFastForward = r.Intn(5) == 0
	_ = r.Intn(3) // unused, but drawn so the later draws keep their seeds
	cfg.ProgressStride = []Cycle{256, 1024, 4096}[r.Intn(3)]

	// Per-context supply parameters, captured as values so attach can
	// rebuild identical fresh streams for each machine it is called on.
	variants := make([]int, cfg.Contexts)
	reps := make([]int, cfg.Contexts)
	for i := range variants {
		variants[i] = r.Intn(3)
		reps[i] = 2 + r.Intn(6)
	}

	var stop Stop
	mode := r.Intn(3)
	if cfg.Contexts == 1 && mode == 1 {
		mode = 0
	}
	var attach func(m *Machine) error
	switch mode {
	case 0: // dedicated stream per context
		attach = func(m *Machine) error {
			for i := 0; i < cfg.Contexts; i++ {
				if err := m.SetThreadStream(i, fmt.Sprintf("mix%d", i), mixedStream(variants[i], reps[i])); err != nil {
					return err
				}
			}
			return nil
		}
	case 1: // primary + restarting companions (Section 4.1 shape)
		stop.Thread0Complete = true
		attach = func(m *Machine) error {
			if err := m.SetThreadStream(0, "primary", mixedStream(variants[0], reps[0])); err != nil {
				return err
			}
			for i := 1; i < cfg.Contexts; i++ {
				i := i
				err := m.SetThread(i, Repeat("comp", func() *prog.Stream {
					return mixedStream(variants[i], reps[i])
				}))
				if err != nil {
					return err
				}
			}
			return nil
		}
	default: // shared job queue (Section 7 shape)
		attach = func(m *Machine) error {
			q := NewJobQueue()
			for i := 0; i < cfg.Contexts+1; i++ {
				i := i
				q.Add(fmt.Sprintf("job%d", i), func() *prog.Stream {
					return mixedStream(variants[i%len(variants)], reps[i%len(reps)])
				})
			}
			src := q.Source()
			for i := 0; i < cfg.Contexts; i++ {
				if err := m.SetThread(i, src); err != nil {
					return err
				}
			}
			return nil
		}
	}
	switch r.Intn(6) {
	case 0:
		stop.MaxCycles = Cycle(500 + r.Intn(4000))
	case 1:
		if !stop.Thread0Complete {
			stop.MaxThread0Insts = int64(10 + r.Intn(40))
		}
	}
	name := fmt.Sprintf("seed%d/%s/ctx%d/%s/lat%d", seed, archName, cfg.Contexts, policy, cfg.Mem.Latency)
	return diffPoint{name: name, cfg: cfg, stop: stop, attach: attach}
}

// soloResult is everything a run observably produces.
type soloResult struct {
	rendered string // fmt-rendered Report (byte-identity witness)
	log      *eventLog
	err      error
}

func runSolo(t *testing.T, pt diffPoint) soloResult {
	t.Helper()
	log := &eventLog{}
	cfg := pt.cfg
	cfg.Observers = []Observer{log}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: New: %v", pt.name, err)
	}
	if err := pt.attach(m); err != nil {
		t.Fatalf("%s: attach: %v", pt.name, err)
	}
	rep, err := m.Run(pt.stop)
	if err != nil {
		return soloResult{err: err, log: log}
	}
	return soloResult{rendered: fmt.Sprintf("%#v", *rep), log: log}
}

// TestBatchDifferential proves per-lane == solo across 208 randomized
// configurations, batched 8 lanes at a time, comparing rendered Reports
// byte for byte and observer event streams value for value: a run
// paused every window and resumed later is indistinguishable from an
// uninterrupted one.
func TestBatchDifferential(t *testing.T) {
	const (
		numConfigs = 208
		laneWidth  = 8
	)
	for base := 0; base < numConfigs; base += laneWidth {
		points := make([]diffPoint, laneWidth)
		solo := make([]soloResult, laneWidth)
		cfgs := make([]Config, laneWidth)
		stops := make([]Stop, laneWidth)
		logs := make([]*eventLog, laneWidth)
		for i := range points {
			points[i] = randPoint(int64(base + i))
			solo[i] = runSolo(t, points[i])
			cfgs[i] = points[i].cfg
			logs[i] = &eventLog{}
			cfgs[i].Observers = []Observer{logs[i]}
			stops[i] = points[i].stop
		}
		b, err := NewBatch(cfgs)
		if err != nil {
			t.Fatalf("batch %d: NewBatch: %v", base, err)
		}
		for i := range points {
			if err := points[i].attach(b.Machine(i)); err != nil {
				t.Fatalf("%s: batch attach: %v", points[i].name, err)
			}
		}
		reps, errs := b.Run(stops)
		for i := range points {
			pt := points[i]
			if (errs[i] == nil) != (solo[i].err == nil) {
				t.Fatalf("%s: lane err = %v, solo err = %v", pt.name, errs[i], solo[i].err)
			}
			if errs[i] != nil {
				if errs[i].Error() != solo[i].err.Error() {
					t.Errorf("%s: lane err %q != solo err %q", pt.name, errs[i], solo[i].err)
				}
				continue
			}
			if got := fmt.Sprintf("%#v", *reps[i]); got != solo[i].rendered {
				t.Errorf("%s: lane report differs from solo:\nlane: %s\nsolo: %s", pt.name, got, solo[i].rendered)
			}
			if !reflect.DeepEqual(logs[i], solo[i].log) {
				t.Errorf("%s: lane event stream differs from solo:\nlane: %+v\nsolo: %+v", pt.name, logs[i], solo[i].log)
			}
		}
	}
}

// TestBatchMisuse pins the batch engine's error contract: lane/stop
// count mismatches and reuse fail every lane with a diagnostic instead
// of panicking or running.
func TestBatchMisuse(t *testing.T) {
	if _, err := NewBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	bad := testConfig(1)
	bad.Contexts = 99
	if _, err := NewBatch([]Config{testConfig(1), bad}); err == nil {
		t.Error("invalid lane config accepted")
	}

	b, err := NewBatch([]Config{testConfig(1)})
	if err != nil {
		t.Fatal(err)
	}
	if reps, errs := b.Run(nil); reps[0] != nil || errs[0] == nil {
		t.Error("stop-count mismatch not diagnosed")
	}
	b2, err := NewBatch([]Config{testConfig(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Machine(0).SetThreadStream(0, "m", mixedStream(0, 2)); err != nil {
		t.Fatal(err)
	}
	if _, errs := b2.Run([]Stop{{}}); errs[0] != nil {
		t.Fatalf("first run failed: %v", errs[0])
	}
	if _, errs := b2.Run([]Stop{{}}); errs[0] == nil {
		t.Error("batch reuse accepted")
	}
}
