package defense

import (
	"testing"

	"antidope/internal/cluster"
	"antidope/internal/power"
	"antidope/internal/workload"
)

// fakeReader is a telemetry plane under test control.
type fakeReader struct{ w float64 }

func (f *fakeReader) MeasuredPowerW() float64 { return f.w }

// TestEnvReadsClusterWithoutTelemetry pins the compatibility contract: with
// no sensor installed the Env helpers must reproduce the cluster's own
// arithmetic bit-for-bit, so existing goldens cannot move.
func TestEnvReadsClusterWithoutTelemetry(t *testing.T) {
	env := testEnv(t, cluster.LowPB, workload.CollaFilt)
	//lint:allow floateq -- both sides must be the same float op on the same inputs
	if env.Overshoot() != overshoot(env.Cluster) {
		t.Fatalf("Env.Overshoot %g != cluster overshoot %g", env.Overshoot(), overshoot(env.Cluster))
	}
	//lint:allow floateq -- same contract for headroom
	if head := max(0, env.Cluster.BudgetW-env.Cluster.PowerNow()); env.Headroom() != head {
		t.Fatalf("Env.Headroom %g != cluster headroom %g", env.Headroom(), head)
	}
	//lint:allow floateq -- direct passthrough
	if env.MeasuredPowerW() != env.Cluster.PowerNow() {
		t.Fatal("MeasuredPowerW diverged from PowerNow without a sensor")
	}
}

// TestSchemesTrustStaleTelemetry is the blind-spot half of graceful
// degradation: a sensor frozen at an under-budget reading means the schemes
// see no emergency and must not throttle, even though the cluster is
// physically over budget. The defense is blind; the physics (breaker,
// thermal) stay real — that split is the whole point of the fault model.
func TestSchemesTrustStaleTelemetry(t *testing.T) {
	ladder := power.DefaultLadder()
	schemes := []Scheme{NewCapping(ladder), NewShaving(ladder), NewOracle(ladder)}
	for _, sch := range schemes {
		t.Run(sch.Name(), func(t *testing.T) {
			env := testEnv(t, cluster.LowPB, workload.CollaFilt)
			if overshoot(env.Cluster) <= 0 {
				t.Fatal("test premise: cluster must physically overshoot")
			}
			// Frozen at a comfortable reading just under budget: no overshoot
			// and no headroom beyond hysteresis, so the slot is a no-op.
			env.Telemetry = &fakeReader{w: env.Cluster.BudgetW}
			sch.Setup(env)
			before := env.Cluster.MeanVFReduction()
			for slot := 1; slot <= 5; slot++ {
				sch.ControlSlot(float64(slot), env)
			}
			//lint:allow floateq -- unchanged means not touched at all
			if got := env.Cluster.MeanVFReduction(); got != before {
				t.Fatalf("scheme throttled on stale telemetry: V/F reduction %g -> %g", before, got)
			}
		})
	}
}

// TestSchemesRecoverWhenTelemetryReturns: once the sensor delivers fresh
// readings again, control converges under budget as usual.
func TestSchemesRecoverWhenTelemetryReturns(t *testing.T) {
	env := testEnv(t, cluster.LowPB, workload.CollaFilt)
	c := NewCapping(power.DefaultLadder())
	c.Setup(env)
	sensor := &fakeReader{w: env.Cluster.BudgetW} // dropout: frozen reading
	env.Telemetry = sensor
	for slot := 1; slot <= 3; slot++ {
		c.ControlSlot(float64(slot), env)
	}
	if overshoot(env.Cluster) <= 0 {
		t.Fatal("blind scheme should have left the cluster over budget")
	}
	// Telemetry heals: track the true draw from now on.
	for slot := 4; slot <= 15; slot++ {
		sensor.w = env.Cluster.PowerNow()
		c.ControlSlot(float64(slot), env)
	}
	if over := overshoot(env.Cluster); over > 1e-6 {
		t.Fatalf("still %g W over budget after telemetry recovered", over)
	}
}

// TestAntiDopeDegradesWithoutPanicOnZeroTelemetry: a cold-start dropout
// reports 0 W. The scheme sees maximal headroom, releases throttles, and
// recharges — wrong but safe, and crucially panic-free.
func TestAntiDopeDegradesWithoutPanicOnZeroTelemetry(t *testing.T) {
	env := testEnv(t, cluster.MediumPB, workload.CollaFilt)
	a := NewAntiDope(power.DefaultLadder())
	a.Setup(env)
	env.Telemetry = &fakeReader{w: 0}
	chargedW := 0.0
	for slot := 1; slot <= 5; slot++ {
		chargedW += a.ControlSlot(float64(slot), env).ChargeW
	}
	if env.Cluster.UPS.SoC() < 1-1e-9 && chargedW == 0 {
		t.Fatal("zero telemetry should have driven the recharge path")
	}
}

// TestShavingSpendsBatteryOnMeasuredOvershoot: the scheme discharges
// against the measured overshoot, not the physical one — an inflated noisy
// reading drains the battery harder than reality warrants.
func TestShavingSpendsBatteryOnMeasuredOvershoot(t *testing.T) {
	env := testEnv(t, cluster.LowPB, workload.CollaFilt)
	s := NewShaving(power.DefaultLadder())
	s.Setup(env)
	truth := env.Cluster.PowerNow()
	env.Telemetry = &fakeReader{w: truth * 1.5} // +50% noise spike
	rep := s.ControlSlot(1, env)
	wantOver := truth*1.5 - env.Cluster.BudgetW
	if rep.BatteryW <= 0 {
		t.Fatal("shaving ignored the measured overshoot")
	}
	if rep.BatteryW > wantOver+1e-9 {
		t.Fatalf("discharged %g W, more than the measured overshoot %g", rep.BatteryW, wantOver)
	}
}
