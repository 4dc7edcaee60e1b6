package defense

import (
	"math"
	"testing"

	"antidope/internal/battery"
	"antidope/internal/cluster"
	"antidope/internal/netlb"
	"antidope/internal/power"
	"antidope/internal/workload"
)

// must unwraps a constructor that cannot fail on the fixed test configs.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// overshoot is the cluster's physical draw above budget (0 if under),
// whatever the telemetry plane reports.
func overshoot(c *cluster.Cluster) float64 {
	over := c.PowerNow() - c.BudgetW
	if over < 0 {
		return 0
	}
	return over
}

// drainTo discharges a full UPS down to the given state of charge.
func drainTo(u *battery.UPS, soc float64) {
	u.Discharge(u.MaxDischargeW, (1-soc)*u.CapacityJ/u.MaxDischargeW)
}

// testEnv builds a 4-server Medium-PB cluster saturated with the given
// class so its overshoot is positive.
func testEnv(t *testing.T, budget cluster.BudgetLevel, saturate workload.Class) *Env {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Budget = budget
	cl := must(cluster.New(cfg))
	if saturate.Valid() {
		id := uint64(0)
		for _, s := range cl.Servers {
			s.Advance(0)
			for i := 0; i < 8; i++ {
				id++
				s.Admit(0, &workload.Request{ID: id, Class: saturate, Demand: 1e6, Remaining: 1e6})
			}
		}
	}
	bal := must(netlb.New(cl.Servers))
	return &Env{Cluster: cl, Balancer: bal, Model: power.DefaultModel()}
}

func req(class workload.Class) *workload.Request {
	p := workload.Lookup(class)
	return &workload.Request{Class: class, URL: p.URL, Demand: p.MeanDemand, Remaining: p.MeanDemand}
}

func TestRegistry(t *testing.T) {
	ladder := power.DefaultLadder()
	for _, name := range []string{"none", "Capping", "shaving", "TOKEN", "Anti-DOPE", "antidope"} {
		if _, err := ByName(name, ladder); err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("magic", ladder); err == nil {
		t.Fatal("unknown scheme resolved")
	}
}

func TestNoneDoesNothing(t *testing.T) {
	env := testEnv(t, cluster.LowPB, workload.CollaFilt)
	n := NewNone()
	n.Setup(env)
	if !n.Admit(0, req(workload.CollaFilt)) {
		t.Fatal("None refused a request")
	}
	before := env.Cluster.PowerNow()
	n.ControlSlot(1, env)
	if env.Cluster.PowerNow() != before {
		t.Fatal("None changed the operating point")
	}
	if env.Cluster.UPS.SoC() != 1 {
		t.Fatal("None touched the battery")
	}
}

func TestCappingBringsPowerUnderBudget(t *testing.T) {
	env := testEnv(t, cluster.LowPB, workload.CollaFilt)
	c := NewCapping(power.DefaultLadder())
	c.Setup(env)
	if overshoot(env.Cluster) <= 0 {
		t.Fatal("test premise: cluster must overshoot")
	}
	// A few slots of control converge under the budget.
	for slot := 1; slot <= 10; slot++ {
		c.ControlSlot(float64(slot), env)
	}
	if over := overshoot(env.Cluster); over > 1e-6 {
		t.Fatalf("still %g W over budget after capping", over)
	}
	if env.Cluster.UPS.SoC() != 1 {
		t.Fatal("Capping used the battery")
	}
	if env.Cluster.MeanVFReduction() <= 0 {
		t.Fatal("capping did not reduce V/F")
	}
}

func TestCappingReleasesWhenLoadGone(t *testing.T) {
	env := testEnv(t, cluster.LowPB, workload.CollaFilt)
	c := NewCapping(power.DefaultLadder())
	c.Setup(env)
	for slot := 1; slot <= 10; slot++ {
		c.ControlSlot(float64(slot), env)
	}
	// Drain the cluster: advance far enough that everything completes.
	for _, s := range env.Cluster.Servers {
		for {
			at, ok := s.NextCompletion()
			if !ok {
				break
			}
			s.Advance(at)
		}
	}
	for slot := 11; slot <= 60; slot++ {
		c.ControlSlot(float64(slot), env)
	}
	if got := env.Cluster.MeanFreq(); float64(got) < 2.3 {
		t.Fatalf("frequencies not released after load drained: %v", got)
	}
}

func TestKMeansNeedsDeeperCut(t *testing.T) {
	// The Fig. 6-b mechanism end-to-end: capping a K-means-saturated
	// cluster requires more V/F reduction than a Colla-Filt-saturated one,
	// because K-means power barely falls with frequency.
	reduction := func(class workload.Class) float64 {
		env := testEnv(t, cluster.MediumPB, class)
		c := NewCapping(power.DefaultLadder())
		c.Setup(env)
		for slot := 1; slot <= 15; slot++ {
			c.ControlSlot(float64(slot), env)
		}
		return env.Cluster.MeanVFReduction()
	}
	km := reduction(workload.KMeans)
	cf := reduction(workload.CollaFilt)
	if km <= cf {
		t.Fatalf("K-means V/F reduction %g <= Colla-Filt %g", km, cf)
	}
}

func TestShavingUsesBatteryFirst(t *testing.T) {
	env := testEnv(t, cluster.LowPB, workload.CollaFilt)
	s := NewShaving(power.DefaultLadder())
	s.Setup(env)
	rep := s.ControlSlot(1, env)
	if rep.BatteryW <= 0 {
		t.Fatal("Shaving did not discharge the battery")
	}
	if env.Cluster.MeanVFReduction() > 0 {
		t.Fatal("Shaving throttled while the battery could still shave")
	}
	if env.Cluster.UPS.SoC() >= 1 {
		t.Fatal("battery level unchanged")
	}
}

func TestShavingFallsBackToDVFSWhenEmpty(t *testing.T) {
	env := testEnv(t, cluster.LowPB, workload.CollaFilt)
	drainTo(env.Cluster.UPS, 0)
	s := NewShaving(power.DefaultLadder())
	s.Setup(env)
	for slot := 1; slot <= 10; slot++ {
		s.ControlSlot(float64(slot), env)
	}
	if env.Cluster.MeanVFReduction() <= 0 {
		t.Fatal("empty battery but no DVFS fallback")
	}
	if over := overshoot(env.Cluster); over > 1e-6 {
		t.Fatalf("still over budget: %g", over)
	}
}

func TestShavingRechargesUnderHeadroom(t *testing.T) {
	env := testEnv(t, cluster.NormalPB, workload.Class(-1)) // idle cluster
	drainTo(env.Cluster.UPS, 0.5)
	s := NewShaving(power.DefaultLadder())
	s.Setup(env)
	rep := s.ControlSlot(1, env)
	if rep.ChargeW <= 0 {
		t.Fatal("no recharge despite headroom")
	}
	if env.Cluster.UPS.SoC() <= 0.5 {
		t.Fatal("battery level did not rise")
	}
}

func TestTokenSizedToBudgetAndDrops(t *testing.T) {
	env := testEnv(t, cluster.LowPB, workload.Class(-1))
	tok := NewToken()
	tok.Setup(env)
	// Flood admissions at time 0: the burst drains and refusals start.
	admitted, refused := 0, 0
	for i := 0; i < 10000; i++ {
		r := req(workload.CollaFilt)
		if tok.Admit(0, r) {
			admitted++
		} else {
			refused++
			if !r.Dropped || r.DropReason != "token-bucket" {
				t.Fatal("refusal not marked")
			}
		}
	}
	if admitted == 0 || refused == 0 {
		t.Fatalf("admitted %d refused %d", admitted, refused)
	}
	if tok.DropFraction() <= 0 {
		t.Fatal("drop fraction not reported")
	}
	// Control slot is a no-op.
	rep := tok.ControlSlot(1, env)
	if rep.BatteryW != 0 || rep.ChargeW != 0 {
		t.Fatal("Token touched the battery")
	}
}

func TestTokenDropFractionZeroBeforeSetup(t *testing.T) {
	if NewToken().DropFraction() != 0 {
		t.Fatal("unsized token bucket reports drops")
	}
}

func TestAntiDopeSetupPartitions(t *testing.T) {
	env := testEnv(t, cluster.MediumPB, workload.Class(-1))
	a := NewAntiDope(power.DefaultLadder())
	a.Setup(env)
	sus, inn := env.Cluster.SuspectServers()
	if len(sus) != 1 || len(inn) != 3 {
		t.Fatalf("suspect pool %d/%d, want 1/3 of 4 servers", len(sus), len(inn))
	}
	if !env.Balancer.SplitActive() {
		t.Fatal("PDF split not active after setup")
	}
	// The offline list puts the heaviest endpoint on the suspect side.
	if sv := env.Balancer.Route(req(workload.CollaFilt)); sv == nil || !sv.Suspect {
		t.Fatal("Colla-Filt request not routed to the suspect pool")
	}
}

func TestAntiDopeThrottlesSuspectsOnly(t *testing.T) {
	env := testEnv(t, cluster.MediumPB, workload.Class(-1))
	a := NewAntiDope(power.DefaultLadder())
	a.Setup(env)
	// Saturate only the suspect server with Colla-Filt (as PDF would).
	sus, inn := env.Cluster.SuspectServers()
	id := uint64(0)
	for _, s := range env.Cluster.Servers {
		s.Advance(0)
		n := 2
		if s.Suspect {
			n = 12
		}
		for i := 0; i < n; i++ {
			id++
			s.Admit(0, &workload.Request{ID: id, Class: workload.CollaFilt, Demand: 1e6, Remaining: 1e6})
		}
	}
	// Force an overshoot by shrinking the budget to just below the draw.
	env.Cluster.BudgetW = env.Cluster.PowerNow() - 20
	drainTo(env.Cluster.UPS, 0.1)
	for slot := 1; slot <= 10; slot++ {
		a.ControlSlot(float64(slot), env)
	}
	for _, s := range inn {
		if s.Freq() < 2.4 {
			t.Fatalf("innocent server %d throttled to %v", s.ID, s.Freq())
		}
	}
	throttled := false
	for _, s := range sus {
		if s.Freq() < 2.4 {
			throttled = true
		}
	}
	if !throttled {
		t.Fatal("no suspect server throttled")
	}
	if over := overshoot(env.Cluster); over > 1e-6 {
		t.Fatalf("still over budget: %g", over)
	}
	if a.CollateralSlots() != 0 {
		t.Fatalf("collateral slots %d, want 0", a.CollateralSlots())
	}
}

func TestAntiDopeBatteryBridgesTransition(t *testing.T) {
	env := testEnv(t, cluster.LowPB, workload.CollaFilt)
	a := NewAntiDope(power.DefaultLadder())
	a.Setup(env)
	rep := a.ControlSlot(1, env)
	if rep.BatteryW <= 0 {
		t.Fatal("battery did not bridge the first over-budget slot")
	}
}

func TestAntiDopeSpillsToInnocentWhenSuspectPoolInsufficient(t *testing.T) {
	env := testEnv(t, cluster.LowPB, workload.CollaFilt) // every server saturated
	a := NewAntiDope(power.DefaultLadder())
	a.Setup(env)
	drainTo(env.Cluster.UPS, 0)
	for slot := 1; slot <= 10; slot++ {
		a.ControlSlot(float64(slot), env)
	}
	if a.CollateralSlots() == 0 {
		t.Fatal("cluster-wide saturation must spill to innocent servers")
	}
	if over := overshoot(env.Cluster); over > 1e-6 {
		t.Fatalf("still over budget: %g", over)
	}
}

func TestAntiDopeRecoversInnocentFirst(t *testing.T) {
	env := testEnv(t, cluster.NormalPB, workload.Class(-1))
	a := NewAntiDope(power.DefaultLadder())
	a.Setup(env)
	// Everyone throttled to the floor; cluster idle with full headroom.
	for _, s := range env.Cluster.Servers {
		s.CapFreq(1.2)
	}
	a.ControlSlot(1, env)
	_, inn := env.Cluster.SuspectServers()
	for _, s := range inn {
		if s.Freq() <= 1.2 {
			t.Fatalf("innocent server %d not released first", s.ID)
		}
	}
}

func TestAntiDopeRechargesAfterReconfigure(t *testing.T) {
	env := testEnv(t, cluster.NormalPB, workload.Class(-1))
	a := NewAntiDope(power.DefaultLadder())
	a.Setup(env)
	drainTo(env.Cluster.UPS, 0.3)
	rep := a.ControlSlot(1, env)
	if rep.ChargeW <= 0 {
		t.Fatal("no immediate recharge with headroom available")
	}
}

func TestAntiDopeAdmitsEverything(t *testing.T) {
	a := NewAntiDope(power.DefaultLadder())
	if !a.Admit(0, req(workload.CollaFilt)) {
		t.Fatal("Anti-DOPE refused a request at the door")
	}
}

func TestSchemeNames(t *testing.T) {
	cases := map[string]Scheme{
		"None":      NewNone(),
		"Capping":   NewCapping(power.DefaultLadder()),
		"Shaving":   NewShaving(power.DefaultLadder()),
		"Token":     NewToken(),
		"Anti-DOPE": NewAntiDope(power.DefaultLadder()),
	}
	for want, s := range cases {
		if s.Name() != want {
			t.Fatalf("name %q, want %q", s.Name(), want)
		}
	}
}

func TestVictimOrderingHelpers(t *testing.T) {
	env := testEnv(t, cluster.NormalPB, workload.Class(-1))
	ss := env.Cluster.Servers
	ss[2].Advance(0)
	for i := 0; i < 8; i++ {
		ss[2].Admit(0, &workload.Request{ID: uint64(i + 1), Class: workload.CollaFilt, Demand: 1e6, Remaining: 1e6})
	}
	byPower := serversByPowerDesc(ss)
	if byPower[0].(interface{ PowerNow() float64 }).PowerNow() < byPower[1].(interface{ PowerNow() float64 }).PowerNow() {
		t.Fatal("power ordering")
	}
	ss[1].CapFreq(1.2)
	byFreq := serversByFreqAsc(ss)
	if byFreq[0].Freq() != 1.2 {
		t.Fatal("frequency ordering")
	}
	if math.Abs(float64(byFreq[len(byFreq)-1].Freq())-2.4) > 1e-9 {
		t.Fatal("frequency ordering tail")
	}
}

func TestOracleDropsOnlyAttackTraffic(t *testing.T) {
	o := NewOracle(power.DefaultLadder())
	legit := req(workload.CollaFilt)
	legit.Origin = workload.Legit
	if !o.Admit(0, legit) {
		t.Fatal("oracle dropped a legitimate request")
	}
	atk := req(workload.CollaFilt)
	atk.Origin = workload.Attack
	if o.Admit(0, atk) {
		t.Fatal("oracle admitted an attack request")
	}
	if !atk.Dropped || atk.DropReason != "oracle" {
		t.Fatal("oracle drop not marked")
	}
}

func TestOracleCapsResidualPeaks(t *testing.T) {
	env := testEnv(t, cluster.LowPB, workload.CollaFilt)
	o := NewOracle(power.DefaultLadder())
	o.Setup(env)
	for slot := 1; slot <= 10; slot++ {
		o.ControlSlot(float64(slot), env)
	}
	if over := overshoot(env.Cluster); over > 1e-6 {
		t.Fatalf("oracle left %g W over budget", over)
	}
}

func TestOracleInRegistry(t *testing.T) {
	s, err := ByName("oracle", power.DefaultLadder())
	if err != nil || s.Name() != "Oracle" {
		t.Fatalf("oracle registry: %v %v", s, err)
	}
}

func TestHybridShedsOnlySuspectTraffic(t *testing.T) {
	env := testEnv(t, cluster.MediumPB, workload.Class(-1))
	h := NewHybrid(power.DefaultLadder())
	h.Setup(env)
	if h.Name() != "Hybrid" {
		t.Fatal("name")
	}
	// Innocent-endpoint traffic is never shed, no matter the volume.
	for i := 0; i < 5000; i++ {
		if !h.Admit(0, req(workload.AliNormal)) {
			t.Fatal("hybrid shed innocent traffic")
		}
	}
	// Suspect-listed traffic drains the bucket and starts shedding.
	shed := false
	for i := 0; i < 5000; i++ {
		if !h.Admit(0, req(workload.CollaFilt)) {
			shed = true
			break
		}
	}
	if !shed {
		t.Fatal("hybrid never shed suspect traffic at time zero")
	}
}

func TestHybridBeforeSetupAdmitsAll(t *testing.T) {
	h := NewHybrid(power.DefaultLadder())
	if !h.Admit(0, req(workload.CollaFilt)) {
		t.Fatal("unset bucket refused traffic")
	}
}

func TestHybridInRegistry(t *testing.T) {
	s, err := ByName("hybrid", power.DefaultLadder())
	if err != nil || s.Name() != "Hybrid" {
		t.Fatalf("hybrid registry: %v %v", s, err)
	}
}
