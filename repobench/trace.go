package main

import (
	"context"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer's origin. Parent is the span that caused
// it (0 for a root) and Req the client request it belongs to (0 when
// the call site cannot know, such as a worker's store read).
type span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Recording is
// switched on and off as a whole, so a traced run can alternate traced
// and untraced phases over the same wrappers. A nil *tracer never
// records: the untraced benchmark installs no wrappers at all.
type tracer struct {
	origin  time.Time
	enabled atomic.Bool
	ids     atomic.Int64
	// current is the span of the request in flight, for workloads with
	// a single client whose inner calls carry no context.
	current atomic.Pointer[spanRef]

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin allocates a span id and stamps its start.
func (t *tracer) begin() (id, start int64) { return t.ids.Add(1), t.now() }

// finish records a span that began at start.
func (t *tracer) finish(id, parent, req int64, name string, start int64) {
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

type spanKey struct{}

// spanRef is the span a context was derived under.
type spanRef struct{ id, req int64 }

func withSpan(ctx context.Context, id, req int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, req})
}

// parentOf returns the span a call should hang under: the one its
// context carries, else the single client's current request span.
func (t *tracer) parentOf(ctx context.Context) spanRef {
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
		return ref
	}
	return t.currentRef()
}

// currentRef is the single client's current request span, for calls
// that carry no context.
func (t *tracer) currentRef() spanRef {
	if cur := t.current.Load(); cur != nil {
		return *cur
	}
	return spanRef{}
}

// setCurrent makes id (of request req) the parent of context-free calls.
func (t *tracer) setCurrent(id, req int64) { t.current.Store(&spanRef{id, req}) }

// covered returns the length of the union of the intervals, each
// clipped to [lo, hi]. Children of one span overlap whenever they run
// concurrently (parallel lanes, two clients, a fan-out to workers), so
// summing their durations would count shared time twice.
func covered(lo, hi int64, ivs []span) int64 {
	type iv struct{ a, b int64 }
	cl := make([]iv, 0, len(ivs))
	for _, s := range ivs {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			cl = append(cl, iv{a, b})
		}
	}
	slices.SortFunc(cl, func(x, y iv) int {
		switch {
		case x.a < y.a:
			return -1
		case x.a > y.a:
			return 1
		}
		return 0
	})
	var total int64
	var curA, curB int64
	for i, v := range cl {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(cl) > 0 {
		total += curB - curA
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, children []span) int64 {
	return s.dur() - covered(s.Start, s.End, children)
}

// spanIndex groups spans by name and by parent.
type spanIndex struct {
	byName   map[string][]span
	children map[int64][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// childrenNamed returns s's children whose names start with prefix.
func (ix spanIndex) childrenNamed(s span, prefix string) []span {
	var out []span
	for _, c := range ix.children[s.ID] {
		if strings.HasPrefix(c.Name, prefix) {
			out = append(out, c)
		}
	}
	return out
}

// meanDur is the mean duration of the named spans in nanoseconds, and
// how many there were.
func (ix spanIndex) meanDur(name string) (float64, int) {
	ss := ix.byName[name]
	if len(ss) == 0 {
		return 0, 0
	}
	var total int64
	for _, s := range ss {
		total += s.dur()
	}
	return float64(total) / float64(len(ss)), len(ss)
}

// meanSelf is the mean self time of the named spans, where only their
// children whose names start with child count against them.
func (ix spanIndex) meanSelf(name, child string) float64 {
	ss := ix.byName[name]
	if len(ss) == 0 {
		return 0
	}
	var total int64
	for _, s := range ss {
		total += selfTime(s, ix.childrenNamed(s, child))
	}
	return float64(total) / float64(len(ss))
}
