package core

import "testing"

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
