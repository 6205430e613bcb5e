package experiments

import (
	"bytes"
	"testing"
)

// driftScale fixes the family's seed and budget: the acceptance bounds
// below are asserted against this exact deterministic run.
func driftScale() Scale {
	sc := tinyScale()
	sc.Steps = 12
	sc.BO = boKnobs(120, 2, 4)
	return sc
}

func TestDriftFamilyShapes(t *testing.T) {
	skipSlow(t)
	d := GetDrift(driftScale())
	if len(d.Outcomes) != len(d.Scenarios)*len(d.Policies) {
		t.Fatalf("outcomes = %d, want %d", len(d.Outcomes), len(d.Scenarios)*len(d.Policies))
	}
	for key, o := range d.Outcomes {
		if o.Recovery < 0 {
			t.Fatalf("%s: watch errored", key)
		}
		if o.Policy == "never" && o.Episodes != 0 {
			t.Fatalf("%s: never policy retuned %d times", key, o.Episodes)
		}
	}
	r := Drift(d)
	if len(r.Rows) != len(d.Scenarios)*len(d.Policies) {
		t.Fatalf("report rows = %d", len(r.Rows))
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
	// Cache hit returns the same pointer.
	if GetDrift(driftScale()) != d {
		t.Fatal("drift cache miss for identical scale")
	}
}

// The PR's acceptance criterion: under the flash-crowd scenario the
// conservative watch recovers at least half of the degradation a
// no-retune run suffers, and no retune trial regresses past the
// trust-region bound — expressed here as the deepest retune transient
// staying above half of what the degraded incumbent still delivered
// (a full-cube threshold restart has no such floor). Deterministic:
// fixed seed, noiseless simulator, simulated clock.
func TestDriftConservativeRecovery(t *testing.T) {
	skipSlow(t)
	d := GetDrift(driftScale())

	cons := d.Outcomes["flash-x2/conservative"]
	never := d.Outcomes["flash-x2/never"]
	if cons.Episodes < 1 {
		t.Fatal("conservative policy never retuned under the flash crowd")
	}
	if never.Loss <= 0 {
		t.Fatalf("never policy lost nothing under the flash crowd: %+v", never)
	}
	if cons.Recovery < 0.5 {
		t.Fatalf("conservative recovery = %.2f, want >= 0.5 (loss %.0f vs never %.0f)",
			cons.Recovery, cons.Loss, never.Loss)
	}
	if cons.WorstTransient < 0.5 {
		t.Fatalf("conservative retune dipped to %.2f of the degraded incumbent; trust region should bound the transient above 0.5",
			cons.WorstTransient)
	}
	if cons.FinalDelivered <= never.FinalDelivered {
		t.Fatalf("conservative final delivery %.1f does not beat never's %.1f",
			cons.FinalDelivered, never.FinalDelivered)
	}
}

// The ramp scenario is gentler; the conservative policy must still
// strictly beat doing nothing.
func TestDriftRampConservativeBeatsNever(t *testing.T) {
	skipSlow(t)
	d := GetDrift(driftScale())
	cons := d.Outcomes["ramp-x1.5/conservative"]
	never := d.Outcomes["ramp-x1.5/never"]
	if never.Loss > 0 && cons.Loss >= never.Loss {
		t.Fatalf("conservative loss %.0f >= never loss %.0f under the ramp", cons.Loss, never.Loss)
	}
}
