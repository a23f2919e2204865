package systemr

// White-box tests for the execution-knob policy on the plan-cache key: the
// batch size is execution-only (the same plan runs at any batch size), so it
// must not salt the key.

import "testing"

func TestPlanKeyKnobPolicy(t *testing.T) {
	const norm = "SELECT A FROM T WHERE B < ?"
	serial := Open(Config{})
	batched := Open(Config{ExecBatchSize: 16})

	if serial.planKey(norm, "sig") != batched.planKey(norm, "sig") {
		t.Fatal("ExecBatchSize changed the plan-cache key: batch size is execution-only and must not fragment the cache")
	}
}

// TestConfigKnobValidation pins the zero-value behavior: the batch size
// defaults rather than rejects, so the zero Config keeps working.
func TestConfigKnobValidation(t *testing.T) {
	for _, cfg := range []Config{{}, {ExecBatchSize: -5}} {
		db := Open(cfg)
		if db.cfg.ExecBatchSize <= 0 {
			t.Fatalf("ExecBatchSize not defaulted: %d", db.cfg.ExecBatchSize)
		}
	}
}
