package cluster

// The wire schema shared by every mtvserve role: request/response
// shapes for runs and sweeps, plus the helpers that resolve them into
// engine RunSpecs. The coordinator speaks the same /api/v1/sweep shape
// to workers that clients speak to it — a sub-sweep is just a sweep
// whose points are listed explicitly instead of spanned by axes.

import (
	"errors"
	"fmt"

	"mtvec"
)

// MaxSweepPoints bounds one sweep request's point count (explicit or
// cross-product).
const MaxSweepPoints = 4096

// RunRequest declares one simulation point over the paper's main axes.
// Zero values keep the session defaults (the reference machine at
// 50-cycle latency).
type RunRequest struct {
	// Mode is solo (default), group, or queue — the paper's three run
	// methodologies.
	Mode string `json:"mode,omitempty"`
	// Programs are catalog tags or names (tf, swm256, ...). Solo takes
	// exactly one; group runs the first as primary with the rest as
	// restarting companions; queue drains them all.
	Programs   []string `json:"programs"`
	Contexts   int      `json:"contexts,omitempty"`
	Latency    int      `json:"latency,omitempty"`
	Xbar       int      `json:"xbar,omitempty"`
	Policy     string   `json:"policy,omitempty"`
	DualScalar bool     `json:"dual_scalar,omitempty"`
	IssueWidth int      `json:"issue_width,omitempty"`
	LoadPorts  int      `json:"load_ports,omitempty"`
	StorePorts int      `json:"store_ports,omitempty"`
	Banks      int      `json:"banks,omitempty"`
	BankBusy   int      `json:"bank_busy,omitempty"`
	Spans      bool     `json:"spans,omitempty"`
	MaxCycles  int64    `json:"max_cycles,omitempty"`
	// ProgressStride sets the simulated-cycle interval between progress
	// events on the stream endpoint (0 = the engine default, 65536).
	ProgressStride int64 `json:"progress_stride,omitempty"`
}

// options translates the request's machine axes into run options.
func (rq RunRequest) options() []mtvec.RunOption {
	var opts []mtvec.RunOption
	if rq.Contexts > 0 {
		opts = append(opts, mtvec.WithContexts(rq.Contexts))
	}
	if rq.Latency > 0 {
		opts = append(opts, mtvec.WithMemLatency(rq.Latency))
	}
	if rq.Xbar > 0 {
		opts = append(opts, mtvec.WithXbar(rq.Xbar))
	}
	if rq.Policy != "" {
		opts = append(opts, mtvec.WithPolicy(rq.Policy))
	}
	if rq.DualScalar {
		opts = append(opts, mtvec.WithDualScalar(true))
	}
	if rq.IssueWidth > 0 {
		opts = append(opts, mtvec.WithIssueWidth(rq.IssueWidth))
	}
	if rq.LoadPorts > 0 || rq.StorePorts > 0 {
		opts = append(opts, mtvec.WithMemPorts(rq.LoadPorts, rq.StorePorts))
	}
	if rq.Banks > 0 || rq.BankBusy > 0 {
		opts = append(opts, mtvec.WithMemBanks(rq.Banks, rq.BankBusy))
	}
	if rq.Spans {
		opts = append(opts, mtvec.WithSpans())
	}
	if rq.MaxCycles > 0 {
		opts = append(opts, mtvec.WithMaxCycles(rq.MaxCycles))
	}
	if rq.ProgressStride > 0 {
		opts = append(opts, mtvec.WithProgressStride(rq.ProgressStride))
	}
	return opts
}

// at returns a copy of the request with the point's axes applied (zero
// axis values keep the base).
func (rq RunRequest) at(pt PointAxes) RunRequest {
	if pt.Contexts > 0 {
		rq.Contexts = pt.Contexts
	}
	if pt.Latency > 0 {
		rq.Latency = pt.Latency
	}
	if pt.Policy != "" {
		rq.Policy = pt.Policy
	}
	return rq
}

// ResolveSpec resolves the request into a validated RunSpec, building
// (or reusing) the named workloads through the Env's memoized cache.
func ResolveSpec(env *mtvec.Env, rq RunRequest, extra ...mtvec.RunOption) (mtvec.RunSpec, error) {
	var zero mtvec.RunSpec
	if len(rq.Programs) == 0 {
		return zero, errors.New("programs: need at least one catalog tag or name")
	}
	ws := make([]*mtvec.Workload, len(rq.Programs))
	for i, tag := range rq.Programs {
		wspec := mtvec.WorkloadByShort(tag)
		if wspec == nil {
			wspec = mtvec.WorkloadByName(tag)
		}
		if wspec == nil {
			return zero, fmt.Errorf("unknown program %q", tag)
		}
		w, err := env.W(wspec.Short)
		if err != nil {
			return zero, err
		}
		ws[i] = w
	}
	opts := append(rq.options(), extra...)
	var spec mtvec.RunSpec
	switch rq.Mode {
	case "", "solo":
		if len(ws) != 1 {
			return zero, fmt.Errorf("solo mode takes exactly one program, have %d", len(ws))
		}
		spec = mtvec.Solo(ws[0], opts...)
	case "group":
		spec = mtvec.Group(ws[0], ws[1:], opts...)
	case "queue":
		spec = mtvec.Queue(ws, opts...)
	default:
		return zero, fmt.Errorf("unknown mode %q (solo | group | queue)", rq.Mode)
	}
	if err := spec.Validate(); err != nil {
		return zero, err
	}
	return spec, nil
}

// RunResponse is one answered simulation point.
type RunResponse struct {
	// Cache names the tier that answered: sim | memo | store.
	Cache     string        `json:"cache"`
	ElapsedMS float64       `json:"elapsed_ms"`
	Report    *mtvec.Report `json:"report"`
}

// PointAxes identifies one sweep point by its axis values; a zero axis
// keeps the base request's value.
type PointAxes struct {
	Contexts int    `json:"contexts,omitempty"`
	Latency  int    `json:"latency,omitempty"`
	Policy   string `json:"policy,omitempty"`
}

// SweepRequest fans one base request out over points: either the cross
// product of the non-empty axis lists, or — for sub-sweeps the
// coordinator sends its workers — an explicit point list. An empty axis
// keeps the base value; Points and axes are mutually exclusive.
type SweepRequest struct {
	Base      RunRequest `json:"base"`
	Contexts  []int      `json:"contexts,omitempty"`
	Latencies []int      `json:"latencies,omitempty"`
	Policies  []string   `json:"policies,omitempty"`
	// Points lists the sweep's points explicitly. Arbitrary coordinator
	// shards are not expressible as a cross product, so sub-sweeps
	// always use this form; clients may too.
	Points []PointAxes `json:"points,omitempty"`
}

// Expand returns the sweep's points in request order.
func (rq SweepRequest) Expand() ([]PointAxes, error) {
	if len(rq.Points) > 0 {
		if len(rq.Contexts) > 0 || len(rq.Latencies) > 0 || len(rq.Policies) > 0 {
			return nil, errors.New("sweep: points and axis lists are mutually exclusive")
		}
		if len(rq.Points) > MaxSweepPoints {
			return nil, fmt.Errorf("sweep of %d points exceeds the %d-point limit", len(rq.Points), MaxSweepPoints)
		}
		return rq.Points, nil
	}
	ctxs, lats, pols := rq.Contexts, rq.Latencies, rq.Policies
	if len(ctxs) == 0 {
		ctxs = []int{0}
	}
	if len(lats) == 0 {
		lats = []int{0}
	}
	if len(pols) == 0 {
		pols = []string{""}
	}
	n := len(ctxs) * len(lats) * len(pols)
	if n > MaxSweepPoints {
		return nil, fmt.Errorf("sweep of %d points exceeds the %d-point limit", n, MaxSweepPoints)
	}
	points := make([]PointAxes, 0, n)
	for _, c := range ctxs {
		for _, l := range lats {
			for _, p := range pols {
				points = append(points, PointAxes{Contexts: c, Latency: l, Policy: p})
			}
		}
	}
	return points, nil
}

// SweepPoint is one point of a sweep response, tagged with the axis
// values that produced it.
type SweepPoint struct {
	Contexts  int           `json:"contexts,omitempty"`
	Latency   int           `json:"latency,omitempty"`
	Policy    string        `json:"policy,omitempty"`
	Cache     string        `json:"cache,omitempty"`
	ElapsedMS float64       `json:"elapsed_ms"`
	Report    *mtvec.Report `json:"report,omitempty"`
	Error     string        `json:"error,omitempty"`
	// Worker is the base URL of the worker that answered the point
	// (coordinator responses only).
	Worker string `json:"worker,omitempty"`
}

// SweepResponse is an answered sweep.
type SweepResponse struct {
	Points []SweepPoint `json:"points"`
	// Simulated / MemoHits / StoreHits partition the answered points by
	// tier; Failed counts points whose run errored.
	Simulated int     `json:"simulated"`
	MemoHits  int     `json:"memo_hits"`
	StoreHits int     `json:"store_hits"`
	Failed    int     `json:"failed"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Retries counts points re-routed to their next owner after a
	// worker failed (coordinator responses only).
	Retries int `json:"retries,omitempty"`

	// Deprecated: PeerHits is always zero, since peer warm-start was
	// removed. It stays only because the repobench serve workload reads
	// it; ROADMAP's benchmark note schedules its removal.
	PeerHits int `json:"peer_hits,omitempty"`
	// Deprecated: Coalesced is always zero, since the coordinator no
	// longer coalesces points. It stays only because the repobench serve
	// workload reads it; ROADMAP's benchmark note schedules its removal.
	Coalesced int `json:"coalesced,omitempty"`
	// Deprecated: Hedges is always zero, since the coordinator no longer
	// hedges. It stays only because the repobench serve workload reads
	// it; ROADMAP's benchmark note schedules its removal.
	Hedges int `json:"hedges,omitempty"`
}

// tally folds the points' cache tags into the response counters.
func (resp *SweepResponse) tally() {
	resp.Simulated, resp.MemoHits, resp.StoreHits, resp.Failed = 0, 0, 0, 0
	for i := range resp.Points {
		switch {
		case resp.Points[i].Error != "":
			resp.Failed++
		case resp.Points[i].Cache == mtvec.RunFromSim.String():
			resp.Simulated++
		case resp.Points[i].Cache == mtvec.RunFromMemo.String():
			resp.MemoHits++
		case resp.Points[i].Cache == mtvec.RunFromStore.String():
			resp.StoreHits++
		}
	}
}

// errorResponse is every non-2xx JSON body.
type errorResponse struct {
	Error string `json:"error"`
}
