package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/verify"
)

// goalOptions is DefaultOptions with the goal-oriented engine selected.
func goalOptions() core.Options {
	o := core.DefaultOptions()
	o.Engine = core.EngineGoal
	return o
}

// TestGoalEngineDeterministic: the goal engine inherits the classic
// engine's determinism contract — two fresh runs of the same problem
// produce bit-identical boards. The heap tie-break is the load-bearing
// part: f-cost ties (which the admissible heuristic makes far more
// common than raw-cost ties) must pop in insertion (seq) order, pinned
// by the leeHeap fuzz in heap_test.go; this test pins the end-to-end
// consequence.
func TestGoalEngineDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		b1, r1, res1 := buildSmall(t, seed, goalOptions())
		b2, r2, res2 := buildSmall(t, seed, goalOptions())
		if !res1.Complete() {
			t.Errorf("seed %d: goal engine failed %d connections: %v", seed, len(res1.FailedConns), res1.FailedConns)
		}
		if err := verify.Routed(b1, r1); err != nil {
			t.Errorf("seed %d: verification failed: %v", seed, err)
		}
		if res1.String() != res2.String() {
			t.Errorf("seed %d: results differ:\n%s\n%s", seed, res1, res2)
		}
		if f1, f2 := b1.Fingerprint(), b2.Fingerprint(); f1 != f2 {
			t.Errorf("seed %d: fingerprints differ: %016x vs %016x", seed, f1, f2)
		}
		for i := range r1.Conns {
			if m1, m2 := r1.RouteOf(i).Method, r2.RouteOf(i).Method; m1 != m2 {
				t.Fatalf("seed %d conn %d: methods differ: %v vs %v", seed, i, m1, m2)
			}
		}
	}
}

// TestClassicEngineUntouchedByGoalCode: selecting the classic engine is
// bit-identical to the pre-engine default — the Engine knob's zero
// value IS classic, so merely building the goal machinery must not
// perturb a classic run. (The cross-revision guarantee is carried by
// the fingerprints in testdata-free form: two in-process runs with the
// zero options value and an explicit EngineClassic.)
func TestClassicEngineUntouchedByGoalCode(t *testing.T) {
	explicit := core.DefaultOptions()
	explicit.Engine = core.EngineClassic
	b1, _, res1 := buildSmall(t, 7, core.DefaultOptions())
	b2, _, res2 := buildSmall(t, 7, explicit)
	if b1.Fingerprint() != b2.Fingerprint() || res1.String() != res2.String() {
		t.Errorf("explicit EngineClassic differs from the default:\n%s\n%s", res1, res2)
	}
}
