package memsys

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Latency: 0, GeneralPorts: 1},
		{Latency: 10},                             // no ports at all
		{Latency: 10, LoadPorts: 2},               // stores unservable
		{Latency: 10, StorePorts: 1},              // loads unservable
		{Latency: 10, GeneralPorts: 1, Banks: 3},  // non-power-of-two
		{Latency: 10, GeneralPorts: 1, Banks: -4}, // negative
		{Latency: 10, GeneralPorts: 1, Banks: 8, BankBusy: -1},
		{Latency: 10, GeneralPorts: 1, Banks: 8}, // BankBusy 0: silent no-op
		{Latency: 10, GeneralPorts: 1, Banks: 1}, // even one bank needs a busy time
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	// Dedicated-port-only config is fine if both kinds are covered.
	ok := Config{Latency: 10, LoadPorts: 2, StorePorts: 1}
	if err := ok.Validate(); err != nil {
		t.Errorf("cray-like config rejected: %v", err)
	}
	// Banked with a real recovery time is fine, including the explicit
	// "banked but conflict-free" spelling BankBusy == 1.
	for _, busy := range []int{1, 8} {
		c := Config{Latency: 10, GeneralPorts: 1, Banks: 16, BankBusy: busy}
		if err := c.Validate(); err != nil {
			t.Errorf("banked config (busy %d) rejected: %v", busy, err)
		}
	}
}

func TestValidateJoinsAllDiagnostics(t *testing.T) {
	// Every problem must surface at once, not just the first.
	c := Config{Latency: 0, ScalarLatency: -1, Banks: 8}
	err := c.Validate()
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	for _, want := range []string{"latency 0", "scalar latency", "port", "bank busy time 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined diagnostic missing %q: %v", want, err)
		}
	}
}

func TestBankModelNeverSilentlyDisabled(t *testing.T) {
	// The hole this guards: Banks > 0 with BankBusy == 0 used to
	// validate, and conflictFactor's distinct >= BankBusy test was then
	// vacuously true for every stride — a banked machine that could
	// never conflict. Such a system must now be unconstructible.
	if _, err := New(Config{Latency: 10, GeneralPorts: 1, Banks: 64}); err == nil {
		t.Fatal("New accepted Banks=64 BankBusy=0")
	}
}

func TestBankConflictEdgeCases(t *testing.T) {
	// Banks=1: every element of any strided stream revisits the single
	// bank, so the stream sustains exactly BankBusy cycles per element.
	s := mustNew(t, Config{Latency: 10, GeneralPorts: 1, Banks: 1, BankBusy: 8})
	if _, _, busy := s.ScheduleVector(0, 64, 8, true); busy != 64*8 {
		t.Errorf("single-bank unit stride busy = %d, want %d", busy, 64*8)
	}
	// Gathers are still assumed spread across... the one bank — by the
	// model's convention they run at full rate regardless.
	if _, _, busy := s.ScheduleVector(0, 64, 0, true); busy != 64 {
		t.Errorf("single-bank gather busy = %d, want 64", busy)
	}

	// BankBusy=1: a bank recovers by the next cycle, so even the worst
	// stride (every element on one bank) runs at one element per cycle —
	// the explicit banked-but-conflict-free configuration.
	s1 := mustNew(t, Config{Latency: 10, GeneralPorts: 1, Banks: 16, BankBusy: 1})
	for _, strideBytes := range []int64{8, 16 * 8, 7 * 8, 0} {
		if _, _, busy := s1.ScheduleVector(0, 64, strideBytes, true); busy != 64 {
			t.Errorf("busy-1 stride %d busy = %d, want 64", strideBytes, busy)
		}
	}

	// Stride hitting exactly one of many banks: stride == Banks elements
	// lands every element on the same bank, the worst case.
	sb := mustNew(t, Config{Latency: 10, GeneralPorts: 1, Banks: 8, BankBusy: 4})
	if _, _, busy := sb.ScheduleVector(0, 32, 8*8, true); busy != 32*4 {
		t.Errorf("one-bank stride busy = %d, want %d", busy, 32*4)
	}
	// And the conflict factor never exceeds BankBusy nor drops below 1.
	for se := int64(1); se <= 64; se++ {
		f := sb.conflictFactor(se * 8)
		if f < 1 || f > 4 {
			t.Fatalf("stride %d elements: factor %d out of range [1,4]", se, f)
		}
	}
}

// TestGatherShortRowShapes pins the access shapes sparse kernels
// produce — indexed gathers (stride 0 by the model's convention) and
// short rows (tiny n, the CSR row-by-row pattern) — under every memory
// model: flat, banked, and worst-case banked.
func TestGatherShortRowShapes(t *testing.T) {
	systems := map[string]*System{
		"flat":         mustNew(t, Config{Latency: 40, GeneralPorts: 1}),
		"banked":       mustNew(t, Config{Latency: 40, GeneralPorts: 1, Banks: 16, BankBusy: 4}),
		"banked-worst": mustNew(t, Config{Latency: 40, GeneralPorts: 1, Banks: 2, BankBusy: 8}),
	}
	for name, s := range systems {
		// Gathers run at one element per cycle regardless of banking:
		// the model assumes indexed streams spread across banks.
		if _, _, busy := s.ScheduleVector(0, 128, 0, true); busy != 128 {
			t.Errorf("%s: gather busy = %d, want 128", name, busy)
		}
		// A negative-stride access (backwards row walk) conflicts
		// exactly like its positive mirror.
		_, _, fwd := s.ScheduleVector(0, 32, 16, true)
		_, _, bwd := s.ScheduleVector(0, 32, -16, true)
		if fwd != bwd {
			t.Errorf("%s: stride sign changes busy: +16 -> %d, -16 -> %d", name, fwd, bwd)
		}
	}

	// Short rows: port occupancy is exactly n*factor even at n=1, and
	// back-to-back rows queue with no gaps and no overlap — the port
	// timeline of a CSR sweep is the sum of its rows.
	s := mustNew(t, Config{Latency: 40, GeneralPorts: 1, Banks: 8, BankBusy: 4})
	var prevEnd Cycle
	for i, n := range []int{1, 2, 3, 1, 5, 1} {
		start, first, busy := s.ScheduleVector(0, n, 0, true)
		if busy != int64(n) {
			t.Fatalf("row %d: busy = %d, want %d", i, busy, n)
		}
		if start != prevEnd {
			t.Fatalf("row %d: start = %d, want previous end %d", i, start, prevEnd)
		}
		if first != start+40 {
			t.Fatalf("row %d: first datum = %d, want %d", i, first, start+40)
		}
		prevEnd = start + busy
	}
	if s.BusyCycles() != prevEnd {
		t.Errorf("busy cycles = %d, want %d (gapless short rows)", s.BusyCycles(), prevEnd)
	}

	// A zero-length row (empty CSR row) books nothing: the port frees
	// instantly and the next access is unaffected.
	empty := mustNew(t, Config{Latency: 40, GeneralPorts: 1})
	if _, _, busy := empty.ScheduleVector(0, 0, 8, true); busy != 0 {
		t.Errorf("empty row busy = %d, want 0", busy)
	}
	if start, _, _ := empty.ScheduleVector(0, 4, 8, true); start != 0 {
		t.Errorf("access after empty row starts at %d, want 0", start)
	}

	// Probe/Schedule agreement on the gather shape: probing must not
	// book, and the probed schedule must be what booking then returns.
	pr := mustNew(t, Config{Latency: 40, GeneralPorts: 1, Banks: 16, BankBusy: 4})
	ps, pf, pb := pr.ProbeVector(5, 7, 0, true)
	gs, gf, gb := pr.ScheduleVector(5, 7, 0, true)
	if ps != gs || pf != gf || pb != gb {
		t.Errorf("probe (%d,%d,%d) != schedule (%d,%d,%d)", ps, pf, pb, gs, gf, gb)
	}
}

func TestVectorLoadTiming(t *testing.T) {
	s := mustNew(t, Config{Latency: 50, GeneralPorts: 1})
	start, first, busy := s.ScheduleVector(10, 64, 8, true)
	if start != 10 {
		t.Errorf("start = %d, want 10", start)
	}
	if first != 60 {
		t.Errorf("first datum = %d, want start+latency = 60", first)
	}
	if busy != 64 {
		t.Errorf("busy = %d, want 64", busy)
	}
	// Port is held for 64 cycles: the next access queues behind it.
	start2, _, _ := s.ScheduleVector(0, 10, 8, false)
	if start2 != 74 {
		t.Errorf("second access start = %d, want 74", start2)
	}
	if s.BusyCycles() != 74 {
		t.Errorf("busy cycles = %d, want 74", s.BusyCycles())
	}
	if s.Requests() != 74 {
		t.Errorf("requests = %d, want 74", s.Requests())
	}
}

func TestScalarTiming(t *testing.T) {
	s := mustNew(t, Config{Latency: 20, GeneralPorts: 1})
	start, data := s.ScheduleScalar(5, true)
	if start != 5 || data != 25 {
		t.Errorf("scalar load start=%d data=%d", start, data)
	}
	start2, _ := s.ScheduleScalar(5, false)
	if start2 != 6 {
		t.Errorf("scalar store start = %d, want 6", start2)
	}
	tr := s.Traffic()
	if tr.ScalarLoads != 1 || tr.ScalarStores != 1 {
		t.Errorf("traffic %+v", tr)
	}
}

// TestOccupation: a 50-element load busies the one port for 50 cycles,
// the numerator of the occupation metric (stats.Report.MemOccupation).
func TestOccupation(t *testing.T) {
	s := mustNew(t, Config{Latency: 1, GeneralPorts: 1})
	s.ScheduleVector(0, 50, 8, true)
	if got := s.BusyCycles(); got != 50 {
		t.Errorf("busy cycles = %d, want 50", got)
	}
}

func TestDedicatedPortsOverlap(t *testing.T) {
	// Cray-like: loads and stores proceed in parallel on separate ports.
	s := mustNew(t, Config{Latency: 10, LoadPorts: 2, StorePorts: 1})
	l1, _, _ := s.ScheduleVector(0, 100, 8, true)
	l2, _, _ := s.ScheduleVector(0, 100, 8, true)
	st, _, _ := s.ScheduleVector(0, 100, 8, false)
	if l1 != 0 || l2 != 0 || st != 0 {
		t.Fatalf("starts %d %d %d, want all 0 (three ports)", l1, l2, st)
	}
	// Third load queues behind one of the two load ports.
	l3, _, _ := s.ScheduleVector(0, 10, 8, true)
	if l3 != 100 {
		t.Errorf("third load start = %d, want 100", l3)
	}
	// Stores must not use load-only ports.
	st2, _, _ := s.ScheduleVector(0, 10, 8, false)
	if st2 != 100 {
		t.Errorf("second store start = %d, want 100", st2)
	}
}

func TestPortFreeAt(t *testing.T) {
	s := mustNew(t, Config{Latency: 10, GeneralPorts: 1})
	if s.PortFreeAt(true) != 0 {
		t.Error("fresh system should be free at 0")
	}
	s.ScheduleVector(0, 42, 8, true)
	if s.PortFreeAt(false) != 42 {
		t.Errorf("PortFreeAt = %d, want 42", s.PortFreeAt(false))
	}
}

func TestBankConflicts(t *testing.T) {
	// 16 banks, 8-cycle bank busy: unit stride touches 16 distinct banks
	// (conflict-free); stride 16 elements revisits a bank every cycle
	// cycle (16/gcd(16,16) = 1 distinct bank -> 8 cycles/element).
	s := mustNew(t, Config{Latency: 10, GeneralPorts: 1, Banks: 16, BankBusy: 8})
	_, _, busyUnit := s.ScheduleVector(0, 64, 8, true)
	if busyUnit != 64 {
		t.Errorf("unit stride busy = %d, want 64", busyUnit)
	}
	_, _, busyBad := s.ScheduleVector(0, 64, 16*8, true)
	if busyBad != 64*8 {
		t.Errorf("stride-16 busy = %d, want %d", busyBad, 64*8)
	}
	// Stride 2: 8 distinct banks >= busy 8 -> still full rate.
	_, _, busy2 := s.ScheduleVector(0, 64, 16, true)
	if busy2 != 64 {
		t.Errorf("stride-2 busy = %d, want 64", busy2)
	}
	// Stride 4: 4 distinct banks < 8 -> 2 cycles per element.
	_, _, busy4 := s.ScheduleVector(0, 64, 32, true)
	if busy4 != 128 {
		t.Errorf("stride-4 busy = %d, want 128", busy4)
	}
	// Gathers (stride 0) assumed conflict-free.
	_, _, busyG := s.ScheduleVector(0, 64, 0, true)
	if busyG != 64 {
		t.Errorf("gather busy = %d, want 64", busyG)
	}
	// Negative strides behave like their magnitude.
	_, _, busyN := s.ScheduleVector(0, 64, -32, true)
	if busyN != 128 {
		t.Errorf("negative stride busy = %d, want 128", busyN)
	}
}

func TestSchedulingInvariants(t *testing.T) {
	// Property: starts never precede `earliest`, port times are
	// monotonic, busy cycles equal the sum of busyFor.
	f := func(ops []struct {
		N      uint8
		Stride int8
		Load   bool
		Gap    uint8
	}) bool {
		s, err := New(Config{Latency: 30, GeneralPorts: 1, Banks: 16, BankBusy: 4})
		if err != nil {
			return false
		}
		var now Cycle
		var sum int64
		for _, op := range ops {
			n := int(op.N%64) + 1
			now += Cycle(op.Gap)
			start, _, busy := s.ScheduleVector(now, n, int64(op.Stride)*8, op.Load)
			if start < now || busy < int64(n) {
				return false
			}
			sum += busy
		}
		return s.BusyCycles() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
