// Package memsys models the main-memory subsystem of Section 3.1: a
// single address bus shared by all memory transactions (scalar/vector,
// load/store) with physically separate data buses for sending and
// receiving, and a configurable main-memory latency — the paper's central
// experimental parameter.
//
// A vector load (or gather) issues one request per cycle over the address
// bus, pays the latency once, and then receives one datum per cycle.
// Vector stores occupy the bus the same way but complete without waiting.
//
// Two extensions beyond the paper are provided as ablations: multiple
// address ports (the Cray-like 2-load/1-store future work of Section 10)
// and a banked memory with bank-conflict stalls (the paper assumes a
// conflict-free memory).
package memsys

import (
	"errors"
	"fmt"
)

// Cycle counts processor cycles.
type Cycle = int64

// Config selects the memory system's shape.
type Config struct {
	// Latency is the main-memory access time in cycles (the paper
	// varies it from 1 to 100; 50 is the default elsewhere).
	Latency int

	// ScalarLatency is the completion latency of scalar accesses. The
	// Convex C34 series gave the scalar unit a small data cache, and the
	// paper's own numbers require scalar loops to run near one
	// instruction per cycle (Section 6.2), so scalar accesses complete
	// quickly while still spending an address-bus cycle. Zero means
	// "same as Latency" (no scalar cache).
	ScalarLatency int

	// GeneralPorts is the number of address ports usable by any
	// transaction. The paper's machine has exactly one.
	GeneralPorts int

	// LoadPorts and StorePorts are dedicated ports (the Cray-like
	// extension: 2 load + 1 store). Zero for the paper's machine.
	LoadPorts  int
	StorePorts int

	// Banks > 0 enables the banked-conflict model: strided streams
	// whose addresses revisit a bank within BankBusy cycles stall the
	// request stream. Banks == 0 is the paper's conflict-free memory.
	// A banked configuration requires BankBusy >= 1 — with a zero
	// recovery time no stream can ever conflict, which would silently
	// disable the model rather than configure it. (BankBusy == 1 is the
	// explicit "banked but conflict-free" spelling: a bank that recovers
	// by the next cycle never collides.)
	Banks    int
	BankBusy int
}

// DefaultConfig is the paper's memory system at 50-cycle latency with a
// 4-cycle scalar cache.
func DefaultConfig() Config {
	return Config{Latency: 50, ScalarLatency: 4, GeneralPorts: 1}
}

// Validate reports every problem with the configuration, joined.
func (c Config) Validate() error {
	var errs []error
	ef := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if c.Latency < 1 {
		ef("memsys: latency %d < 1", c.Latency)
	}
	if c.ScalarLatency < 0 {
		ef("memsys: negative scalar latency %d", c.ScalarLatency)
	}
	if c.GeneralPorts+c.LoadPorts < 1 || c.GeneralPorts+c.StorePorts < 1 {
		ef("memsys: no port can serve loads or stores")
	}
	if c.Banks < 0 || c.BankBusy < 0 {
		ef("memsys: negative bank parameters")
	}
	if c.Banks > 0 {
		if c.Banks&(c.Banks-1) != 0 {
			ef("memsys: banks must be a power of two, have %d", c.Banks)
		}
		if c.BankBusy == 0 {
			ef("memsys: %d banks with bank busy time 0 silently disables the conflict model; set BankBusy >= 1, or Banks = 0 for conflict-free memory", c.Banks)
		}
	}
	return errors.Join(errs...)
}

// System is the memory subsystem state during one simulation.
type System struct {
	cfg Config

	// portFree[i] is the cycle port i next accepts a request. Ports are
	// ordered: general, load-only, store-only.
	portFree []Cycle

	// single short-circuits port selection for the paper's machine (one
	// general port, no dedicated ports) — the overwhelmingly common
	// configuration on the dispatch hot path.
	single bool
	// noBanks caches cfg.Banks == 0 (the paper's conflict-free memory).
	noBanks bool
	// lat / scalarLat are the widened latencies, resolved once.
	lat       int64
	scalarLat int64

	busy         int64 // address-port busy cycles (occupation numerator)
	requests     int64 // memory requests sent
	loadElems    int64
	storeElems   int64
	scalarLoads  int64
	scalarStores int64
}

// New creates a memory system. The configuration must validate.
func New(cfg Config) (*System, error) {
	s := new(System)
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset makes s the memory system New(cfg) would build, with every port
// free and every counter zero, keeping the port table's backing array
// when it is large enough. The configuration must validate; on an error
// s is unchanged.
func (s *System) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	n := cfg.GeneralPorts + cfg.LoadPorts + cfg.StorePorts
	ports := s.portFree[:0]
	if cap(ports) < n {
		ports = make([]Cycle, n)
	} else {
		ports = ports[:n]
		clear(ports)
	}
	*s = System{
		cfg:      cfg,
		portFree: ports,
		single:   n == 1 && cfg.GeneralPorts == 1,
		noBanks:  cfg.Banks == 0,
		lat:      int64(cfg.Latency),
	}
	s.scalarLat = s.lat
	if cfg.ScalarLatency > 0 {
		s.scalarLat = int64(cfg.ScalarLatency)
	}
	return nil
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Ports returns the number of address ports.
func (s *System) Ports() int { return len(s.portFree) }

// eligible reports whether port i can carry a load/store.
func (s *System) eligible(i int, load bool) bool {
	switch {
	case i < s.cfg.GeneralPorts:
		return true
	case i < s.cfg.GeneralPorts+s.cfg.LoadPorts:
		return load
	default:
		return !load
	}
}

// pickPort returns the eligible port that frees earliest.
func (s *System) pickPort(load bool) int {
	if s.single {
		return 0
	}
	best := -1
	for i := range s.portFree {
		if !s.eligible(i, load) {
			continue
		}
		if best < 0 || s.portFree[i] < s.portFree[best] {
			best = i
		}
	}
	return best
}

// PortFreeAt returns the earliest cycle any port eligible for the access
// kind accepts a new transaction (dispatch logic uses it to decide
// whether a thread blocks).
func (s *System) PortFreeAt(load bool) Cycle {
	if s.single {
		return s.portFree[0]
	}
	return s.portFree[s.pickPort(load)]
}

// conflictFactor returns the cycles per element a strided stream
// sustains: 1 when conflict-free, more when the stride revisits banks
// within the bank busy time. Gathers (stride 0 by convention here) are
// assumed spread well enough to run at full rate.
func (s *System) conflictFactor(strideBytes int64) int64 {
	if s.noBanks {
		return 1
	}
	se := strideBytes / 8
	if se < 0 {
		se = -se
	}
	if se == 0 {
		return 1
	}
	g := gcd(se, int64(s.cfg.Banks))
	distinct := int64(s.cfg.Banks) / g
	if distinct >= int64(s.cfg.BankBusy) {
		return 1
	}
	f := (int64(s.cfg.BankBusy) + distinct - 1) / distinct
	return f
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// ProbeVector computes, without booking anything, the schedule
// ScheduleVector would produce for the same request now.
func (s *System) ProbeVector(earliest Cycle, n int, strideBytes int64, load bool) (start, firstData, busyFor Cycle) {
	p := s.pickPort(load)
	start = max64(earliest, s.portFree[p])
	busyFor = int64(n) * s.conflictFactor(strideBytes)
	if load {
		firstData = start + s.lat
	}
	return start, firstData, busyFor
}

// ScheduleVector books an address port for an n-element vector access
// starting no earlier than `earliest`. It returns the start cycle, the
// cycle the first datum is available (loads; meaningless for stores) and
// the number of cycles the port stays busy.
func (s *System) ScheduleVector(earliest Cycle, n int, strideBytes int64, load bool) (start, firstData, busyFor Cycle) {
	p := s.pickPort(load)
	start = max64(earliest, s.portFree[p])
	factor := s.conflictFactor(strideBytes)
	busyFor = int64(n) * factor
	s.portFree[p] = start + busyFor
	s.busy += busyFor
	s.requests += int64(n)
	if load {
		s.loadElems += int64(n)
		firstData = start + s.lat
	} else {
		s.storeElems += int64(n)
	}
	return start, firstData, busyFor
}

// ScheduleScalar books one request; for loads, data returns at
// start+ScalarLatency (start+Latency without a scalar cache).
func (s *System) ScheduleScalar(earliest Cycle, load bool) (start, data Cycle) {
	p := s.pickPort(load)
	start = max64(earliest, s.portFree[p])
	s.portFree[p] = start + 1
	s.busy++
	s.requests++
	if load {
		s.scalarLoads++
		data = start + s.scalarLat
	} else {
		s.scalarStores++
	}
	return start, data
}

// BusyCycles returns total address-port busy cycles.
func (s *System) BusyCycles() int64 { return s.busy }

// Requests returns the total memory requests sent over the address bus.
func (s *System) Requests() int64 { return s.requests }

// Traffic summarizes the element counts moved.
type Traffic struct {
	LoadElems    int64
	StoreElems   int64
	ScalarLoads  int64
	ScalarStores int64
}

// Traffic returns the access counters.
func (s *System) Traffic() Traffic {
	return Traffic{s.loadElems, s.storeElems, s.scalarLoads, s.scalarStores}
}

func max64(a, b Cycle) Cycle {
	if a > b {
		return a
	}
	return b
}
