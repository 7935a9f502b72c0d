package main

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"mtvec/internal/cluster"
)

// Headers that carry a caller's span across an HTTP hop.
const (
	hdrParent = "X-Repobench-Parent"
	hdrReq    = "X-Repobench-Req"
)

func setSpanHeaders(h http.Header, parent, req int64) {
	h.Set(hdrParent, strconv.FormatInt(parent, 10))
	h.Set(hdrReq, strconv.FormatInt(req, 10))
}

// traceHandler records a span around every sweep h serves while
// tracing is on, under the caller's span from the request headers.
// started, when set, learns each new span's id and request.
func traceHandler(name string, tr *tracer, h http.Handler, started func(req, id int64)) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on() || r.URL.Path != "/api/v1/sweep" {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		id, start := tr.begin()
		if started != nil {
			started(req, id)
		}
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id, req)))
		tr.finish(id, parent, req, name, start)
	})
}

// sweepTracker links the coordinator's sub-sweeps to the client request
// that caused them. The coordinator sends sub-sweeps under its own
// lifetime, not the client's context, so the link is made by content:
// a sub-sweep belongs to the earliest in-flight client request whose
// points include all of the sub-sweep's.
type sweepTracker struct {
	mu   sync.Mutex
	reqs map[int64]*trackedReq
}

type trackedReq struct {
	coord  int64 // the coordinator span serving the request
	points map[string]bool
}

func newSweepTracker() *sweepTracker { return &sweepTracker{reqs: map[int64]*trackedReq{}} }

func (t *sweepTracker) add(req int64, keys []string) {
	pts := make(map[string]bool, len(keys))
	for _, k := range keys {
		pts[k] = true
	}
	t.mu.Lock()
	t.reqs[req] = &trackedReq{points: pts}
	t.mu.Unlock()
}

func (t *sweepTracker) setCoord(req, id int64) {
	t.mu.Lock()
	if r, ok := t.reqs[req]; ok {
		r.coord = id
	}
	t.mu.Unlock()
}

func (t *sweepTracker) remove(req int64) {
	t.mu.Lock()
	delete(t.reqs, req)
	t.mu.Unlock()
}

// owner returns the coordinator span and request a sub-sweep of the
// given points belongs to, or zeros when none matches.
func (t *sweepTracker) owner(keys []string) (coord, req int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, r := range t.reqs {
		if r.coord == 0 || (req != 0 && id > req) {
			continue
		}
		all := true
		for _, k := range keys {
			if !r.points[k] {
				all = false
				break
			}
		}
		if all {
			coord, req = r.coord, id
		}
	}
	return coord, req
}

// subSweepTransport is the coordinator's HTTP client transport. While
// tracing is on it tags each sub-sweep with the coordinator span that
// caused it, so worker spans nest under the right client request.
type subSweepTransport struct {
	base http.RoundTripper
	tr   *tracer
	tk   *sweepTracker
}

func (t *subSweepTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !t.tr.on() || r.GetBody == nil || r.URL.Path != "/api/v1/sweep" {
		return t.base.RoundTrip(r)
	}
	body, err := r.GetBody()
	if err != nil {
		return t.base.RoundTrip(r)
	}
	var sr cluster.SweepRequest
	err = json.NewDecoder(body).Decode(&sr)
	body.Close()
	if err != nil || len(sr.Base.Programs) != 1 {
		return t.base.RoundTrip(r)
	}
	keys := make([]string, len(sr.Points))
	for i, a := range sr.Points {
		keys[i] = pointKey(sr.Base.Programs[0], a)
	}
	coord, req := t.tk.owner(keys)
	if coord == 0 {
		return t.base.RoundTrip(r)
	}
	tagged := r.Clone(r.Context())
	setSpanHeaders(tagged.Header, coord, req)
	return t.base.RoundTrip(tagged)
}
