package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mtvec_runs_total", "Total runs.")
	c.Inc()
	c.Add(2)
	g := r.GaugeVec("mtvec_gate_active", "Gate occupancy.").With()
	g.Set(3)
	g.Add(-1)
	r.GaugeFunc("mtvec_gate_limit", "Gate limit.", func() float64 { return 8 })

	out := r.Render()
	for _, want := range []string{
		"# HELP mtvec_runs_total Total runs.\n# TYPE mtvec_runs_total counter\nmtvec_runs_total 3\n",
		"# TYPE mtvec_gate_active gauge\nmtvec_gate_active 2\n",
		"mtvec_gate_limit 8\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if c.Value() != 3 {
		t.Errorf("counter value = %d", c.Value())
	}
}

func TestLabelledSeriesSortDeterministically(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("mtvec_runs_by_source_total", "Runs by cache tier.", "source")
	v.With("store").Add(5)
	v.With("sim").Inc()
	v.With("memo").Add(2)

	out := r.Render()
	want := `# HELP mtvec_runs_by_source_total Runs by cache tier.
# TYPE mtvec_runs_by_source_total counter
mtvec_runs_by_source_total{source="memo"} 2
mtvec_runs_by_source_total{source="sim"} 1
mtvec_runs_by_source_total{source="store"} 5
`
	if out != want {
		t.Errorf("render:\n%s\nwant:\n%s", out, want)
	}
	if r.Render() != out {
		t.Error("repeated render not byte-identical")
	}
	// Same family handle again: identity, not a new family.
	if got := r.CounterVec("mtvec_runs_by_source_total", "Runs by cache tier.", "source").With("sim").Value(); got != 1 {
		t.Errorf("re-registered vec lost state: %d", got)
	}
}

// TestRenderOrderIndependentOfInsertion locks the full-scrape ordering
// contract mtvlint's determinism analyzer polices mechanically: two
// registries populated with the same families and series in opposite
// orders must render byte-identically, and the text must follow sorted
// family names with sorted label sets inside each family.
func TestRenderOrderIndependentOfInsertion(t *testing.T) {
	forward := func() *Registry {
		r := NewRegistry()
		r.Counter("mtvec_a_total", "A.").Inc()
		v := r.CounterVec("mtvec_b_total", "B.", "worker", "tier")
		v.With("w1", "memo").Inc()
		v.With("w1", "sim").Add(2)
		v.With("w0", "sim").Add(3)
		r.GaugeVec("mtvec_c", "C.").With().Set(7)
		return r
	}
	backward := func() *Registry {
		r := NewRegistry()
		r.GaugeVec("mtvec_c", "C.").With().Set(7)
		v := r.CounterVec("mtvec_b_total", "B.", "worker", "tier")
		v.With("w0", "sim").Add(3)
		v.With("w1", "sim").Add(2)
		v.With("w1", "memo").Inc()
		r.Counter("mtvec_a_total", "A.").Inc()
		return r
	}
	want := `# HELP mtvec_a_total A.
# TYPE mtvec_a_total counter
mtvec_a_total 1
# HELP mtvec_b_total B.
# TYPE mtvec_b_total counter
mtvec_b_total{worker="w0",tier="sim"} 3
mtvec_b_total{worker="w1",tier="memo"} 1
mtvec_b_total{worker="w1",tier="sim"} 2
# HELP mtvec_c C.
# TYPE mtvec_c gauge
mtvec_c 7
`
	f, b := forward().Render(), backward().Render()
	if f != want {
		t.Errorf("forward render:\n%s\nwant:\n%s", f, want)
	}
	if f != b {
		t.Errorf("insertion order leaked into the scrape:\nforward:\n%s\nbackward:\n%s", f, b)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mtvec_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := r.Render()
	want := `# HELP mtvec_latency_seconds Latency.
# TYPE mtvec_latency_seconds histogram
mtvec_latency_seconds_bucket{le="0.1"} 1
mtvec_latency_seconds_bucket{le="1"} 3
mtvec_latency_seconds_bucket{le="10"} 4
mtvec_latency_seconds_bucket{le="+Inf"} 5
mtvec_latency_seconds_sum 56.05
mtvec_latency_seconds_count 5
`
	if out != want {
		t.Errorf("render:\n%s\nwant:\n%s", out, want)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
}

func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("mtvec_shard_seconds", "Per-shard latency.", []float64{1}, "worker")
	v.With("w0").Observe(0.5)
	v.With("w0").Observe(2)
	out := r.Render()
	for _, want := range []string{
		`mtvec_shard_seconds_bucket{worker="w0",le="1"} 1`,
		`mtvec_shard_seconds_bucket{worker="w0",le="+Inf"} 2`,
		`mtvec_shard_seconds_count{worker="w0"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("mtvec_esc_total", "", "v").With("a\"b\\c\nd").Inc()
	out := r.Render()
	want := `mtvec_esc_total{v="a\"b\\c\nd"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("render missing %q:\n%s", want, out)
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad metric name", func() { r.Counter("9bad", "") })
	mustPanic("bad label name", func() { r.CounterVec("ok_total", "", "le-gal") })
	mustPanic("reserved label", func() { r.CounterVec("ok2_total", "", "__name") })
	r.Counter("twice", "")
	mustPanic("kind conflict", func() { r.GaugeVec("twice", "") })
	mustPanic("label conflict", func() { r.CounterVec("twice", "", "x") })
	mustPanic("negative counter", func() { r.Counter("neg_total", "").Add(-1) })
	mustPanic("unsorted buckets", func() { r.Histogram("h", "", []float64{2, 1}) })
	v := r.CounterVec("vec_total", "", "a", "b")
	mustPanic("label arity", func() { v.With("only-one") })
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	g := r.GaugeVec("conc_gauge", "").With()
	h := r.Histogram("conc_hist", "", []float64{0.5})
	v := r.CounterVec("conc_vec_total", "", "i")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.25)
				v.With("x").Inc()
				_ = r.Render()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 || h.Sum() != 2000 {
		t.Errorf("hist count/sum = %d/%v", h.Count(), h.Sum())
	}
	if v.With("x").Value() != 8000 {
		t.Errorf("vec = %d", v.With("x").Value())
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "help").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	buf := make([]byte, 1<<12)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "h_total 1") {
		t.Errorf("body = %q", buf[:n])
	}

	post, err := srv.Client().Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Errorf("POST status = %d, want 405", post.StatusCode)
	}
}
