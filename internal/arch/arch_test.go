package arch

import (
	"strings"
	"testing"

	"mtvec/internal/isa"
)

func TestPresetsValidate(t *testing.T) {
	for _, s := range Presets() {
		s := s
		if err := s.Validate(); err != nil {
			t.Errorf("preset %s does not validate: %v", s.Name, err)
		}
		if _, err := s.Derive(1); err != nil {
			t.Errorf("preset %s does not derive at 1 context: %v", s.Name, err)
		}
	}
}

func TestConvexC3400MatchesISAConstants(t *testing.T) {
	s := ConvexC3400()
	if s.VRegs != isa.NumV || s.VLen != isa.MaxVL || s.VRegsPerBank != isa.VRegsPerBank ||
		s.BankReadPorts != isa.BankReadPorts || s.BankWritePorts != isa.BankWritePorts {
		t.Fatalf("reference preset drifted from the isa constants: %+v", s.RegFile)
	}
	if s.NumBanks() != isa.NumVBanks {
		t.Fatalf("banks = %d, want %d", s.NumBanks(), isa.NumVBanks)
	}
	if s.RestrictedFUs != 1 || s.GeneralFUs != 1 || s.IssueWidth != 1 || s.MaxContexts != 8 {
		t.Fatalf("reference preset lost the paper's machine parameters: %+v", s)
	}
	for v := uint8(0); v < isa.NumV; v++ {
		if s.Bank(v) != isa.VBank(v) {
			t.Fatalf("bank mapping of v%d = %d, want %d", v, s.Bank(v), isa.VBank(v))
		}
	}
}

func TestByName(t *testing.T) {
	for _, p := range Presets() {
		s, ok := ByName(p.Name)
		if !ok || s.Name != p.Name {
			t.Errorf("ByName(%q) = %+v, %v", p.Name, s.Name, ok)
		}
	}
	if _, ok := ByName("pdp-11"); ok {
		t.Error("unknown preset resolved")
	}
}

// TestValidateJoinsAllDiagnostics mirrors the session option layer: a
// spec with several independent problems reports every one at once.
func TestValidateJoinsAllDiagnostics(t *testing.T) {
	s := ConvexC3400()
	s.VLen = 0          // out of range
	s.BankReadPorts = 0 // out of range
	s.GeneralFUs = 0    // mul/div/sqrt need a general lane
	s.IssueWidth = 0    // out of range
	err := s.Validate()
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	for _, want := range []string{"vector length", "read ports", "general FU", "issue width"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
}

func TestRegFileValidation(t *testing.T) {
	bad := []RegFile{
		{VRegs: 0, VLen: 128, VRegsPerBank: 2, BankReadPorts: 2, BankWritePorts: 1},
		{VRegs: MaxVRegs + 1, VLen: 128, VRegsPerBank: 1, BankReadPorts: 2, BankWritePorts: 1},
		{VRegs: 8, VLen: MaxVLen + 1, VRegsPerBank: 2, BankReadPorts: 2, BankWritePorts: 1},
		{VRegs: 8, VLen: 128, VRegsPerBank: 3, BankReadPorts: 2, BankWritePorts: 1}, // 3 does not divide 8
		{VRegs: 8, VLen: 128, VRegsPerBank: 2, BankReadPorts: 0, BankWritePorts: 1},
		{VRegs: 8, VLen: 128, VRegsPerBank: 2, BankReadPorts: 2, BankWritePorts: 0},
	}
	for i, rf := range bad {
		if rf.Validate() == nil {
			t.Errorf("case %d: invalid organization accepted: %+v", i, rf)
		}
	}
	if err := DefaultRegFile().Validate(); err != nil {
		t.Fatalf("default organization rejected: %v", err)
	}
}

func TestRegFileBuildKeyCanonicalizesMachineSideFields(t *testing.T) {
	a := DefaultRegFile()
	a.BankReadPorts, a.BankWritePorts, a.PartitionPerContext = 1, 1, true
	b := DefaultRegFile()
	if a.BuildKey() != b.BuildKey() {
		t.Fatal("port/partition variants should share compiled code")
	}
	if err := a.BuildKey().Validate(); err != nil {
		t.Fatalf("build key is not itself a valid organization: %v", err)
	}
	c := DefaultRegFile()
	c.VLen = 64
	if c.BuildKey() == b.BuildKey() {
		t.Fatal("different strip lengths must not share compiled code")
	}
	if (RegFile{}).BuildKey() != b.BuildKey() {
		t.Fatal("zero organization should build as the default")
	}
}

func TestDeriveTables(t *testing.T) {
	s := ConvexC3400()
	d, err := s.Derive(4)
	if err != nil {
		t.Fatal(err)
	}
	if d.CtxVRegs != 8 || d.NumBanks != 4 || d.BankReadPorts != 2 || d.BankWritePorts != 1 {
		t.Fatalf("derived tables wrong: %+v", d)
	}
	if d.VLMax != isa.MaxVL || d.RestrictedFUs != 1 || d.TotalFUs != 2 {
		t.Fatalf("derived tables wrong: %+v", d)
	}
	for v := 0; v < 8; v++ {
		if int(d.BankOf[v]) != v/2 {
			t.Fatalf("bankOf[%d] = %d", v, d.BankOf[v])
		}
	}
}

func TestDerivePartitioned(t *testing.T) {
	s := ConvexC3400()
	s.PartitionPerContext = true
	d, err := s.Derive(2)
	if err != nil {
		t.Fatal(err)
	}
	if d.CtxVRegs != 4 || d.NumBanks != 2 {
		t.Fatalf("partitioned 2-context derive: %+v", d)
	}
	// 3 contexts do not divide 8 registers.
	if _, err := s.Derive(3); err == nil {
		t.Fatal("uneven partition accepted")
	}
	// A split cutting through a physical bank would give two contexts
	// private copies of one bank's ports.
	s.VRegsPerBank = 8
	if _, err := s.Derive(2); err == nil {
		t.Fatal("bank-splitting partition accepted")
	}
}

func TestValidateContexts(t *testing.T) {
	s := ConvexC3400()
	if err := s.ValidateContexts(8); err != nil {
		t.Fatalf("8 contexts rejected on an 8-context shape: %v", err)
	}
	err := s.ValidateContexts(9)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("9 contexts: err = %v", err)
	}
	if s.ValidateContexts(0) == nil {
		t.Fatal("0 contexts accepted")
	}
}

// TestSpecIsPlainValue pins the reuse contract: specs copy by
// assignment, compare with ==, and mutating a copy never affects the
// original — what makes sharing one Spec across Sessions safe.
func TestSpecIsPlainValue(t *testing.T) {
	a := ConvexC3400()
	b := a.Clone()
	if a != b {
		t.Fatal("clone differs from original")
	}
	b.VLen = 64
	b.Lat.ReadXbar = 3
	b.Mem.Latency = 100
	if a.VLen != isa.MaxVL || a.Lat.ReadXbar != 2 || a.Mem.Latency != 50 {
		t.Fatal("mutating a clone leaked into the original")
	}
}
