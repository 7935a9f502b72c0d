package core

import (
	"mtvec/internal/stats"
)

// DefaultProgressStride is the simulated-cycle interval between Progress
// events when Config.ProgressStride is zero. It is coarse enough that
// observation never measurably slows a run.
const DefaultProgressStride Cycle = 1 << 16

// Observer receives streaming events from one run. Observers are called
// synchronously from the simulation loop, in Config.Observers order, and
// must not retain the machine or block; an observer instance belongs to
// one run at a time unless it synchronizes internally.
//
// Event timing is deterministic in simulated cycles: the same Config and
// input streams produce the same event sequence, with or without the
// all-threads-blocked fast-forward.
type Observer interface {
	// Progress fires once per ProgressStride simulated cycles, with the
	// stride boundary and the instructions dispatched so far.
	Progress(now Cycle, dispatched int64)

	// ThreadSwitch fires when the primary decode slot dispatches from a
	// different context than its previous primary dispatch (from is -1
	// on the first dispatch). Examinations that fail to dispatch are
	// not switches — they are visible as lost decode cycles instead —
	// which keeps the event stream identical with and without the
	// all-threads-blocked fast-forward. Extra simultaneous-issue slots
	// (IssueWidth > 1) neither emit nor affect switch events, and the
	// dual-scalar machine has per-context decode units and emits none.
	ThreadSwitch(now Cycle, from, to int)

	// Span fires when a program segment closes on a context — the
	// Figure 9 execution-profile event.
	Span(s stats.Span)
}

// SpanRecorder is the built-in Figure 9 observer: it collects every
// program span of a run. The machine never fills Report.Spans itself;
// a session run with WithSpans attaches one and copies its spans there.
type SpanRecorder struct {
	Spans []stats.Span
}

func (r *SpanRecorder) Progress(Cycle, int64)        {}
func (r *SpanRecorder) ThreadSwitch(Cycle, int, int) {}
func (r *SpanRecorder) Span(s stats.Span)            { r.Spans = append(r.Spans, s) }

// ProgressFunc adapts a function to an Observer that only handles
// Progress events — the typical shape of a CLI progress meter.
type ProgressFunc func(now Cycle, dispatched int64)

func (f ProgressFunc) Progress(now Cycle, dispatched int64) { f(now, dispatched) }
func (f ProgressFunc) ThreadSwitch(Cycle, int, int)         {}
func (f ProgressFunc) Span(stats.Span)                      {}

// SwitchCounter counts decode thread switches — a cheap instrument for
// policy studies.
type SwitchCounter struct {
	Switches int64
}

func (c *SwitchCounter) Progress(Cycle, int64) {}
func (c *SwitchCounter) ThreadSwitch(now Cycle, from, to int) {
	if from >= 0 {
		c.Switches++
	}
}
func (c *SwitchCounter) Span(stats.Span) {}

// notifyProgress emits Progress events for every stride boundary the
// clock has reached. Boundaries are emitted with the boundary cycle, not
// the current one, so a fast-forwarded run reports the same sequence as
// a cycle-stepped one (no dispatch happens inside a skipped window).
func (m *Machine) notifyProgress() {
	for m.nextProgress <= m.now {
		at := m.nextProgress
		for _, o := range m.obs {
			o.Progress(at, m.dispatched)
		}
		m.nextProgress += m.progressStride
	}
}

// notifySwitch emits a ThreadSwitch event.
func (m *Machine) notifySwitch(from, to int) {
	for _, o := range m.obs {
		o.ThreadSwitch(m.now, from, to)
	}
}
