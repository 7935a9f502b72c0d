// Package sched provides the thread-selection policies of the
// multithreaded decode unit. The paper's baseline (Section 3) runs a
// thread until it blocks, then switches to the lowest-numbered non-blocked
// thread (the "unfair" scheme, biased so thread 0 sees little slowdown and
// chaining windows stay long). The alternatives answer the paper's
// "studies of other policies are currently underway".
//
// The decode unit consults a policy only when it has a choice: while two
// or more threads have work. Once a single thread is left, the machine
// dispatches it directly. That is exact for every policy that keeps the
// Pick contract, because with one thread left Pick could return nothing
// else, and no later Pick can read the state the skipped calls would
// have updated (TestPickLoneThread checks the built-in policies).
//
// A Policy may carry per-run state (LRU does), so a policy instance
// belongs to exactly one machine. Machines take ownership by calling
// Clone at construction, so reusing one policy value — or one
// core.Config — across concurrent runs is safe by construction.
// Policies are deterministic; given the same sequence of machine states
// they make the same picks.
package sched

// MachineView is what a policy may inspect: per-thread work availability
// and whether a thread's next instruction could dispatch this cycle.
type MachineView interface {
	NumThreads() int
	HasWork(thread int) bool
	Dispatchable(thread int) bool
}

// Policy selects the thread the decode unit examines each cycle.
//
// current is the thread examined last cycle (-1 at start); blocked
// reports whether that examination failed to dispatch. Pick returns a
// thread that has work, and -1 only when no thread has work. The decode
// unit calls Pick only while two or more threads have work; with one
// thread left, that thread is the only answer the contract allows, so
// the machine dispatches it without asking.
//
// Clone returns an instance safe to hand to a new machine: stateless
// policies return themselves, stateful ones return a fresh value with
// no per-run state. core.New clones its configured policy, so one
// Policy (and therefore one core.Config) can be shared across
// concurrent runs.
type Policy interface {
	Name() string
	Pick(m MachineView, current int, blocked bool) int
	Clone() Policy
}

// Unfair is the paper's baseline policy.
type Unfair struct{}

func (Unfair) Name() string    { return "unfair" }
func (p Unfair) Clone() Policy { return p }

func (Unfair) Pick(m MachineView, current int, blocked bool) int {
	if current >= 0 && !blocked && m.HasWork(current) {
		return current
	}
	// Switch: lowest-numbered thread known not to be blocked.
	first := -1
	for t := 0; t < m.NumThreads(); t++ {
		if !m.HasWork(t) {
			continue
		}
		if first < 0 {
			first = t
		}
		if m.Dispatchable(t) {
			return t
		}
	}
	return first // everyone blocked (or no work): attempt the lowest
}

// RoundRobin switches to the next thread in circular order on a block,
// starting the search after the current thread.
type RoundRobin struct{}

func (RoundRobin) Name() string    { return "roundrobin" }
func (p RoundRobin) Clone() Policy { return p }

func (RoundRobin) Pick(m MachineView, current int, blocked bool) int {
	n := m.NumThreads()
	if current >= 0 && !blocked && m.HasWork(current) {
		return current
	}
	start := 0
	if current >= 0 {
		start = (current + 1) % n
	}
	first := -1
	for i := 0; i < n; i++ {
		t := (start + i) % n
		if !m.HasWork(t) {
			continue
		}
		if first < 0 {
			first = t
		}
		if m.Dispatchable(t) {
			return t
		}
	}
	return first
}

// EveryCycle rotates threads each cycle regardless of blocking — the
// fine-grain interleaving the paper argues against because it breaks
// chaining opportunities.
type EveryCycle struct{}

func (EveryCycle) Name() string    { return "everycycle" }
func (p EveryCycle) Clone() Policy { return p }

func (EveryCycle) Pick(m MachineView, current int, blocked bool) int {
	n := m.NumThreads()
	start := 0
	if current >= 0 {
		start = (current + 1) % n
	}
	first := -1
	for i := 0; i < n; i++ {
		t := (start + i) % n
		if !m.HasWork(t) {
			continue
		}
		if first < 0 {
			first = t
		}
		if m.Dispatchable(t) {
			return t
		}
	}
	return first
}

// LRU picks, on a block, the dispatchable thread that ran least recently,
// equalizing progress across threads (a fair counterpoint to Unfair).
type LRU struct {
	lastRun []int64
	tick    int64
}

func (*LRU) Name() string { return "lru" }

// Clone returns a fresh LRU with no recency state, so a shared Config
// never leaks one run's history into another.
func (*LRU) Clone() Policy { return &LRU{} }

func (p *LRU) Pick(m MachineView, current int, blocked bool) int {
	n := m.NumThreads()
	if p.lastRun == nil {
		p.lastRun = make([]int64, n)
	}
	p.tick++
	if current >= 0 && !blocked && m.HasWork(current) {
		p.lastRun[current] = p.tick
		return current
	}
	best, bestTime := -1, int64(0)
	first := -1
	for t := 0; t < n; t++ {
		if !m.HasWork(t) {
			continue
		}
		if first < 0 {
			first = t
		}
		if m.Dispatchable(t) && (best < 0 || p.lastRun[t] < bestTime) {
			best, bestTime = t, p.lastRun[t]
		}
	}
	if best < 0 {
		best = first
	}
	if best >= 0 {
		p.lastRun[best] = p.tick
	}
	return best
}

// ByName returns a fresh policy instance by name, or nil.
func ByName(name string) Policy {
	switch name {
	case "unfair":
		return Unfair{}
	case "roundrobin":
		return RoundRobin{}
	case "everycycle":
		return EveryCycle{}
	case "lru":
		return &LRU{}
	}
	return nil
}

// Names lists the available policies.
func Names() []string { return []string{"unfair", "roundrobin", "everycycle", "lru"} }
