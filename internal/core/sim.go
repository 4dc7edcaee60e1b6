package core

import (
	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/defense"
	"antidope/internal/firewall"
	"antidope/internal/netlb"
	"antidope/internal/obs"
	"antidope/internal/power"
	"antidope/internal/rng"
	"antidope/internal/server"
	"antidope/internal/simtime"
	"antidope/internal/stats"
	"antidope/internal/thermal"
	"antidope/internal/workload"
)

// Source-ID blocks keep traffic populations disjoint for the firewall.
const (
	legitSourceBase  workload.SourceID = 0
	attackSourceBase workload.SourceID = 1 << 20
	dopeSourceBase   workload.SourceID = 1 << 21
)

// Simulation is one assembled run. Build with New, execute with Run.
type Simulation struct {
	cfg    Config
	eng    *simtime.Engine
	cl     *cluster.Cluster
	bal    *netlb.Balancer
	fw     *firewall.Firewall
	scheme defense.Scheme
	env    *defense.Env

	factory *workload.Factory
	mix     *workload.Mix
	rnd     *rng.Stream

	// Adaptive attacker state.
	dope        *attack.DopeAttacker
	dopePlan    attack.Plan
	dopeRnd     *rng.Stream
	epochBanned map[workload.SourceID]bool
	epochSlow   stats.Summary

	breaker     *cluster.Breaker
	outageUntil float64
	plant       *thermal.Plant
	thermalHot  int // slots with any server thermally throttled
	flt         *faultRuntime
	// net is the network-condition delivery layer, built only when the
	// fault schedule carries NetDelay/NetLoss/NetPartition windows; nil
	// keeps every arrival on the historical synchronous path.
	net *netRuntime

	// obs is the run's observer (nil = unobserved fast path); obsFreq is
	// the pre-ControlSlot frequency snapshot used to diff what the scheme
	// issued, allocated once when an observer is attached.
	obs     obs.Observer
	obsFreq []power.GHz

	// Pre-bound callbacks for the recurring event chains, created once so
	// the per-arrival/per-completion path schedules without allocating a
	// fresh closure (see DESIGN.md "Performance model").
	mixFn   func(now float64)
	mixNext *workload.Request
	dopeFn  func(now float64)
	// compFns[i]/compEvs[i] belong to cl.Servers[i] (server ID == index):
	// the bound completion callback and the handle of the one queued
	// completion event, re-keyed in place as the next completion moves.
	compFns  []func(now float64)
	compEvs  []simtime.Event
	drawsBuf []float64

	res         *Result
	prevRep     defense.SlotReport
	lastEnergyJ float64
	lastTick    float64
	slots       int
	slotsOver   int
}

// New validates the configuration and assembles a simulation.
func New(cfg Config) (*Simulation, error) {
	s := &Simulation{}
	if err := s.init(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rebuilds the simulation in place for a fresh run of cfg, recycling
// the two warm arenas a run accumulates — the engine's event pool and the
// factory's request pool — instead of reallocating them. A reset simulation
// is result-identical to New(cfg): pop order depends only on (at, seq) and
// the arenas affect only where structs live, never what they contain.
// Everything else (cluster, balancer, schemes, RNG streams) is rebuilt from
// cfg exactly as New would. The previous run may be finished or paused
// between RunTo calls: Reset discards a paused run's pending events, and
// its in-flight requests are left to the garbage collector.
func (s *Simulation) Reset(cfg Config) error {
	eng, factory := s.eng, s.factory
	if eng != nil {
		eng.Reset()
	}
	*s = Simulation{eng: eng, factory: factory}
	return s.init(cfg)
}

// init assembles the simulation from cfg into s. It is New's body, shared
// with Reset: a nil s.eng / s.factory is created fresh, a surviving one is
// recycled with its warm pool intact.
func (s *Simulation) init(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg.Breaker = cfg.Breaker.Defaults()
	cl, err := cluster.New(cfg.Cluster)
	if err != nil {
		return err
	}
	bal, err := netlb.New(cl.Servers)
	if err != nil {
		return err
	}
	scheme := cfg.Scheme
	if scheme == nil {
		scheme = defense.NewNone()
	}
	s.cfg = cfg
	if s.eng == nil {
		s.eng = simtime.NewEngine()
	}
	s.cl = cl
	s.bal = bal
	s.fw = firewall.New(cfg.Firewall)
	s.scheme = scheme
	s.rnd = rng.New(cfg.Seed)
	s.env = &defense.Env{
		Cluster:  cl,
		Balancer: bal,
		Model:    cfg.Cluster.Model,
	}
	if cfg.Breaker.Enabled {
		rating := cl.BudgetW * cfg.Breaker.RatingFrac
		overload := cl.Nameplate() - rating
		if overload <= 0 {
			overload = 0.1 * cl.Nameplate()
		}
		br, err := cluster.NewBreaker(rating, overload, cfg.Breaker.ToleranceSec)
		if err != nil {
			return err
		}
		s.breaker = br
	}
	if cfg.Thermal.Enabled {
		tcfg := cfg.Thermal.Defaults()
		//lint:allow floateq -- exact zero marks an unset config field
		if tcfg.CRACCapacityW == 0 {
			tcfg.CRACCapacityW = cl.BudgetW
		}
		plant, err := thermal.NewPlant(tcfg, len(cl.Servers))
		if err != nil {
			return err
		}
		s.plant = plant
	}
	if sched := cfg.Faults.Build(); !sched.Empty() {
		s.flt = newFaultRuntime(sched, len(cl.Servers), s.rnd.Split("faults/sensor"))
		s.env.Telemetry = s.flt.sensor
		if sched.HasNet() {
			s.net = newNetRuntime(sched, len(cl.Servers), s.rnd)
			// Telemetry reads ride the same degraded network: the defense's
			// power readings lag, drop, and blind with the link faults.
			s.flt.sensor.AttachNet(sched, s.rnd.Split("faults/net/telemetry"))
		}
	}
	if cfg.Observer != nil {
		s.obs = cfg.Observer
		s.obsFreq = make([]power.GHz, len(cl.Servers))
		for _, sv := range cl.Servers {
			sv.SetObserver(s.obs)
		}
		bal.SetObserver(s.obs)
		s.fw.SetObserver(s.obs)
		cl.UPS.SetObserver(s.obs, s.eng.Now)
		s.env.Obs = s.obs
		if s.flt != nil {
			s.flt.sensor.SetObserver(s.obs)
		}
	}
	if s.factory == nil {
		s.factory = workload.NewFactory(s.rnd.Split("factory"))
	} else {
		s.factory.Reset(s.rnd.Split("factory"))
	}
	s.res = &Result{
		SchemeName:           scheme.Name(),
		BudgetW:              cl.BudgetW,
		NameplateW:           cl.Nameplate(),
		Horizon:              cfg.Horizon,
		LatencyLegit:         &stats.Sample{},
		DroppedByReason:      make(map[string]uint64),
		LegitDroppedByReason: make(map[string]uint64),
	}

	s.buildTraffic()
	if cfg.Dope != nil {
		s.dope = attack.NewDopeAttacker(*cfg.Dope)
		s.dopePlan = s.dope.Current()
		s.dopeRnd = s.rnd.Split("dope")
		s.epochBanned = make(map[workload.SourceID]bool)
	}
	s.bindCallbacks()
	return nil
}

// bindCallbacks builds the reusable event callbacks once per run. Every
// recurring chain (merged arrivals, adaptive attacker, per-server
// completions) re-arms itself with the same bound function, so the hot
// path's Schedule calls allocate no closures.
func (s *Simulation) bindCallbacks() {
	s.mixFn = func(now float64) {
		req := s.mixNext
		s.mixNext = nil
		s.handleArrival(now, req)
		s.pumpMix()
	}
	s.dopeFn = func(now float64) {
		agents := s.dopePlan.Agents
		src := dopeSourceBase + workload.SourceID(s.dopeRnd.Intn(agents))
		req := s.factory.New(now, s.dopePlan.Class, workload.Attack, src)
		s.handleArrival(now, req)
		s.scheduleDopeArrival(now)
	}
	s.compFns = make([]func(now float64), len(s.cl.Servers))
	s.compEvs = make([]simtime.Event, len(s.cl.Servers))
	for i, sv := range s.cl.Servers {
		sv := sv
		s.compFns[i] = func(now float64) {
			for _, done := range sv.Advance(now) {
				s.recordCompletion(done)
			}
			s.scheduleCompletion(sv)
		}
	}
	// A partitioned server is invisible to the balancer while its physics
	// keep running.
	if s.net != nil {
		s.bal.SetReachable(func(id int) bool {
			return !s.net.links[id].Partitioned(s.eng.Now())
		})
	}
}

// buildTraffic assembles the merged legit + static-attack arrival stream.
func (s *Simulation) buildTraffic() {
	var sources []workload.Source
	var caps []float64
	if s.cfg.NormalRPS > 0 {
		sources = append(sources, workload.Source{
			Class:       workload.AliNormal,
			Origin:      workload.Legit,
			Rate:        workload.ConstRate(s.cfg.NormalRPS),
			Sources:     normalSources,
			FirstSource: legitSourceBase,
		})
		caps = append(caps, s.cfg.NormalRPS)
	}
	for _, es := range s.cfg.ExtraSources {
		sources = append(sources, es.Source)
		caps = append(caps, es.RateCap)
	}
	base := attackSourceBase
	for _, spec := range s.cfg.Attacks {
		sources = append(sources, spec.Source(base))
		caps = append(caps, spec.RateRPS)
		base += workload.SourceID(spec.Agents)
	}
	if len(sources) > 0 {
		s.mix = workload.NewMix(sources, caps, s.factory, s.rnd.Split("mix"))
	}
}

// Run executes the simulation to the horizon and returns the measurements.
// A Simulation is single-use between resets; Run must be called exactly once
// per New or Reset. Run is Start + RunTo(horizon) + Finish; callers that
// want to pause mid-run call the three phases themselves.
func (s *Simulation) Run() *Result {
	s.Start()
	s.RunTo(s.cfg.Horizon)
	return s.Finish()
}

// Start arms every event chain — faults, arrivals, the adaptive attacker,
// the control loop — and takes the t=0 sample. Call once, before RunTo.
func (s *Simulation) Start() {
	// A resettable observer (obs.Bus) starts the run clean, so one
	// observer can capture successive runs.
	if br, ok := s.obs.(interface{ BeginRun() }); ok {
		br.BeginRun()
	}
	s.scheme.Setup(s.env)

	// Fault plan: arm crash/recover and battery events on the engine.
	if s.flt != nil {
		s.flt.arm(s)
	}
	// Ground-truth attack markers for trace analytics; emit-only, scheduled
	// solely when an observer is installed (same contract as fault markers).
	s.armAttackObserver()
	// Arrival pump for the merged static stream.
	if s.mix != nil {
		s.pumpMix()
	}
	// Adaptive attacker: arrival chain plus feedback epochs.
	if s.dope != nil {
		s.scheduleDopeArrival(s.cfg.DopeStart)
		s.eng.Tick(s.cfg.DopeStart+dopeEpochSec, dopeEpochSec, s.dopeEpoch)
	}
	// Power-control loop.
	s.eng.Tick(defense.SlotSec, defense.SlotSec, s.controlTick)
	// Initial sample at t=0 so series start at the origin.
	s.sample(0)
}

// armAttackObserver schedules emit-only attack-on/attack-off markers
// bracketing every static flood window, plus an open marker at the adaptive
// attacker's start, so analyzers can measure detection lag against the
// ground truth of when the attack began. Like the fault markers, the
// closures mutate nothing and exist only under an observer, so the
// unobserved event sequence (and the goldens) is untouched.
func (s *Simulation) armAttackObserver() {
	if s.obs == nil {
		return
	}
	h := s.cfg.Horizon
	for i := range s.cfg.Attacks {
		spec := s.cfg.Attacks[i]
		if spec.Start >= h {
			continue
		}
		end := spec.Start + spec.Duration
		s.eng.Schedule(spec.Start, func(now float64) {
			if s.obs == nil {
				return
			}
			s.obs.Emit(obs.Event{
				T: now, Kind: obs.KindAttackOn, Server: -1,
				Class: int32(spec.Class), A: end, B: spec.RateRPS,
				Label: spec.Name,
			})
		})
		if end >= h {
			continue
		}
		s.eng.Schedule(end, func(now float64) {
			if s.obs == nil {
				return
			}
			s.obs.Emit(obs.Event{
				T: now, Kind: obs.KindAttackOff, Server: -1,
				Class: int32(spec.Class), A: spec.Start, Label: spec.Name,
			})
		})
	}
	if s.dope != nil && s.cfg.DopeStart < h {
		s.eng.Schedule(s.cfg.DopeStart, func(now float64) {
			if s.obs == nil {
				return
			}
			s.obs.Emit(obs.Event{
				T: now, Kind: obs.KindAttackOn, Server: -1, Class: -1,
				A: h, Label: "dope",
			})
		})
	}
}

// RunTo drains events batch-by-batch until the clock reaches t. Events
// sharing one bit-identical timestamp are handed to the engine's DrainAt in
// a single call; the firing order is exactly what a Step loop would produce.
// RunTo may be called repeatedly with increasing t.
func (s *Simulation) RunTo(t float64) {
	for {
		n, _ := s.eng.DrainAt(t)
		if n == 0 {
			break
		}
	}
}

// Finish closes the books at the horizon and returns the measurements.
func (s *Simulation) Finish() *Result {
	s.finish()
	return s.res
}

// PlannedLegit returns the OfferedLegit the run will finish with: the
// legitimate arrivals in [WarmupSec, Horizon). Only the merged mix carries
// legitimate traffic, and its generators decide every arrival from their
// own streams and rate functions, never from the simulation's state, so the
// count is known before the run ends. It is exact at any pause: the
// arrivals already offered, the one scheduled and not yet fired, and what
// the mix will still return (workload.Mix.CountOrigin, which replays the
// generators on copies of their streams and so costs about one pass of the
// legitimate generators). Nothing computes it unless asked.
func (s *Simulation) PlannedLegit() uint64 {
	n := s.res.OfferedLegit
	if s.mix == nil {
		return n
	}
	if r := s.mixNext; r != nil && r.Origin == workload.Legit && r.ArriveAt >= s.cfg.WarmupSec {
		n++
	}
	return n + s.mix.CountOrigin(workload.Legit, s.cfg.WarmupSec, s.cfg.Horizon)
}

// DroppedLegit returns how many measured legitimate requests the run has
// dropped so far; it only grows, and ends as the result's DroppedLegit.
func (s *Simulation) DroppedLegit() uint64 { return s.res.DroppedLegit }

// pumpMix schedules the next arrival from the merged stream; each arrival
// event re-arms the pump. At most one mix arrival is outstanding, so the
// pending request rides in s.mixNext and the bound s.mixFn callback is
// reused for every arrival.
func (s *Simulation) pumpMix() {
	a, ok := s.mix.Next(s.cfg.Horizon)
	if !ok {
		return
	}
	s.mixNext = a.Req
	s.eng.Schedule(a.At, s.mixFn)
}

// scheduleDopeArrival arms the adaptive attacker's next request using the
// current plan's rate; rate changes apply from the next arrival on. Like
// the mix pump, the chain has one outstanding event and reuses s.dopeFn.
func (s *Simulation) scheduleDopeArrival(after float64) {
	rate := s.dopePlan.RPS
	if rate <= 0 {
		return
	}
	at := after + s.dopeRnd.Exp(1/rate)
	if at >= s.cfg.Horizon {
		return
	}
	s.eng.Schedule(at, s.dopeFn)
}

// dopeEpoch closes one probe epoch: build the attacker's feedback from what
// it could externally observe and step the plan.
func (s *Simulation) dopeEpoch(now float64) {
	fb := attack.Feedback{
		BannedAgents: len(s.epochBanned),
		Effective:    s.epochSlow.Count() > 0 && s.epochSlow.Mean() > dopeEffectiveSlowdown,
	}
	s.dopePlan = s.dope.Step(fb)
	s.res.DopeTrace = append(s.res.DopeTrace, DopeEpoch{
		At:        now,
		Class:     s.dopePlan.Class,
		RPS:       s.dopePlan.RPS,
		Agents:    s.dopePlan.Agents,
		Banned:    fb.BannedAgents,
		Effective: fb.Effective,
	})
	s.epochBanned = make(map[workload.SourceID]bool)
	s.epochSlow = stats.Summary{}
}

// handleArrival runs one request through firewall → scheme admission →
// balancer → server.
func (s *Simulation) handleArrival(now float64, req *workload.Request) {
	if s.obs != nil {
		s.obs.Emit(obs.Event{
			T: now, Kind: obs.KindReqArrive, Server: -1,
			Class: int32(req.Class), ID: req.ID, A: float64(req.Origin),
			Label: req.Class.String(),
		})
	}
	measured := req.ArriveAt >= s.cfg.WarmupSec
	if measured {
		if req.Origin == workload.Legit {
			s.res.OfferedLegit++
		} else {
			s.res.OfferedAttack++
		}
	}

	if now < s.outageUntil {
		req.Dropped = true
		req.DropReason = "outage"
		s.recordDrop(req, measured)
		return
	}
	// A firewall outage fails open: every source passes unexamined.
	if s.flt == nil || !s.flt.firewallDown(now) {
		if verdict := s.fw.Observe(now, req); verdict != firewall.Allowed {
			// Rate-limit drops are silent shaping; only bans are the signal the
			// adaptive attacker reacts to. Book the ban before the drop funnel
			// retires the request to the arena.
			if verdict == firewall.Banned && s.dope != nil && req.Source >= dopeSourceBase {
				s.epochBanned[req.Source] = true
			}
			s.recordDrop(req, measured)
			return
		}
	}
	if !s.scheme.Admit(now, req) {
		s.recordDrop(req, measured)
		return
	}
	s.deliver(now, req, 0)
}

// scheduleCompletion re-arms the server's next completion event. Each
// server has at most one queued completion event, re-keyed in place by
// Reschedule. The re-key happens even when the instant is unchanged: it
// takes a fresh sequence number, exactly as cancel-then-schedule would, so
// same-instant ties keep their order. A handle that already fired (the
// callback re-arming its own server) makes Reschedule schedule anew. When
// no completion is due by the horizon the event is cancelled; the finish()
// drain handles the rest.
func (s *Simulation) scheduleCompletion(sv *server.Server) {
	at, ok := sv.NextCompletion()
	if !ok || at > s.cfg.Horizon {
		s.compEvs[sv.ID].Cancel()
		return
	}
	s.compEvs[sv.ID] = s.eng.Reschedule(s.compEvs[sv.ID], at, s.compFns[sv.ID])
}

// controlTick is the per-slot power-management loop.
func (s *Simulation) controlTick(now float64) {
	// Bring every server to the decision instant (may surface completions).
	for _, sv := range s.cl.Servers {
		for _, done := range sv.Advance(now) {
			s.recordCompletion(done)
		}
	}
	// Close the books on the slot that just ended.
	s.accountSlot(now)

	// Telemetry plane: deliver this instant's (possibly faulted) power
	// reading before the scheme looks, and snapshot pre-decision state for
	// the DVFS actuation faults.
	if s.flt != nil {
		s.flt.preControl(now, s)
	}
	if s.obs != nil {
		for i, sv := range s.cl.Servers {
			s.obsFreq[i] = sv.Freq()
		}
	}
	rep := s.scheme.ControlSlot(now, s.env)
	s.prevRep = rep
	// Diff the scheme's issued frequency commands before the actuation
	// faults intercept them: dvfs-command is what was ordered, the servers'
	// freq-change events are what actually landed.
	if s.obs != nil {
		for i, sv := range s.cl.Servers {
			//lint:allow floateq -- both sides come from the same discrete DVFS ladder
			if f := sv.Freq(); f != s.obsFreq[i] {
				s.obs.Emit(obs.Event{
					T: now, Kind: obs.KindDVFSCommand, Server: int32(i),
					A: float64(s.obsFreq[i]), B: float64(f),
				})
			}
		}
	}
	// DVFS actuation faults intercept what the scheme just decided.
	if s.flt != nil {
		s.flt.postControl(now, s)
	}

	// Frequencies may have moved: re-arm completion events.
	for _, sv := range s.cl.Servers {
		s.scheduleCompletion(sv)
	}
	s.sample(now)

	s.slots++
	if s.cl.PowerNow()-rep.BatteryW > s.cl.BudgetW+1e-9 {
		s.slotsOver++
	}

	if s.breaker != nil && now >= s.outageUntil {
		net := s.cl.PowerNow() - rep.BatteryW
		if s.breaker.Step(defense.SlotSec, net) {
			s.trip(now)
		}
	}

	if s.plant != nil {
		s.thermalTick(now)
	}
}

// thermalTick advances the cooling plane and applies the hardware's
// emergency thermal throttle: a hot server is forced down two ladder steps
// per slot, overriding whatever the scheme decided. Temperatures follow the
// servers' instantaneous draw, so the throttle's own power reduction feeds
// back into the next step.
func (s *Simulation) thermalTick(now float64) {
	if s.drawsBuf == nil {
		s.drawsBuf = make([]float64, len(s.cl.Servers))
	}
	draws := s.drawsBuf
	for i, sv := range s.cl.Servers {
		draws[i] = sv.PowerNow()
	}
	hot := s.plant.Step(defense.SlotSec, draws)
	anyHot := false
	for i, h := range hot {
		if !h {
			continue
		}
		anyHot = true
		sv := s.cl.Servers[i]
		sv.CapFreq(sv.Model.Ladder.StepDown(sv.Freq(), 2))
		s.scheduleCompletion(sv)
		if s.obs != nil {
			s.obs.Emit(obs.Event{
				T: now, Kind: obs.KindThermalThrottle, Server: int32(i),
				A: float64(sv.Freq()), B: s.plant.MaxTempC(),
			})
		}
	}
	if anyHot {
		s.thermalHot++
	}
	s.res.MaxTempC.Add(now, s.plant.MaxTempC())
	s.res.InletTempC.Add(now, s.plant.InletC())
}

// trip opens the breaker: every in-flight request is lost, arrivals are
// refused until power returns, and the breaker is reset at repair time.
func (s *Simulation) trip(now float64) {
	repair := s.cfg.Breaker.RepairSec // defaulted by New
	s.res.Outages++
	until := now + repair
	if until > s.cfg.Horizon {
		until = s.cfg.Horizon
	}
	s.res.OutageSeconds += until - now
	s.outageUntil = until
	if s.obs != nil {
		s.obs.Emit(obs.Event{T: now, Kind: obs.KindBreakerTrip, Server: -1, A: until})
		s.obs.Emit(obs.Event{T: now, Kind: obs.KindOutageStart, Server: -1, A: until})
	}
	for _, sv := range s.cl.Servers {
		for _, r := range sv.FailAll(now) {
			s.recordDrop(r, r.ArriveAt >= s.cfg.WarmupSec)
		}
	}
	if until < s.cfg.Horizon {
		s.eng.Schedule(until, func(t float64) {
			s.breaker.Reset()
			if s.obs != nil {
				s.obs.Emit(obs.Event{T: t, Kind: obs.KindBreakerReset, Server: -1})
				s.obs.Emit(obs.Event{T: t, Kind: obs.KindOutageEnd, Server: -1})
			}
		})
	}
}

// accountSlot integrates the energy ledger over [lastTick, now) using the
// plan the scheme made at the previous tick.
func (s *Simulation) accountSlot(now float64) {
	dt := now - s.lastTick
	if dt <= 0 {
		return
	}
	total := s.cl.TotalEnergyJ()
	draw := (total - s.lastEnergyJ) / dt
	s.lastEnergyJ = total
	s.lastTick = now
	s.cl.AccountSlot(dt, draw, s.prevRep.BatteryW, s.prevRep.ChargeW)
}

func (s *Simulation) sample(now float64) {
	if s.obs != nil {
		s.obs.Emit(obs.Event{
			T: now, Kind: obs.KindSample, Server: -1,
			A: s.cl.PowerNow(), B: s.cl.UPS.SoC(),
		})
	}
	s.res.Power.Add(now, s.cl.PowerNow())
	s.res.Battery.Add(now, s.cl.UPS.SoC())
	s.res.VFRed.Add(now, s.cl.MeanVFReduction())
	s.res.Freq.Add(now, float64(s.cl.MeanFreq()))
}

// recordCompletion is the funnel every finished request leaves through. A
// measured completion counts by origin, adds its response time to its
// class's tally, and, when legitimate, appends it to LatencyLegit; an
// attack completion keeps no sample, only the adaptive attacker's epoch
// slowdown. Either way the request returns to the factory arena.
func (s *Simulation) recordCompletion(req *workload.Request) {
	rt := req.ResponseTime()
	if req.ArriveAt < s.cfg.WarmupSec {
		// Pre-warmup completions are unmeasured but still retire the struct:
		// the funnels are the request's last readers, so it goes back to the
		// factory arena for reuse either way.
		s.factory.Free(req)
		return
	}
	if req.Origin == workload.Legit {
		s.res.CompletedLegit++
		s.res.LatencyLegit.Add(rt)
	} else {
		s.res.CompletedAtk++
		if s.dope != nil && req.Source >= dopeSourceBase && req.Demand > 0 {
			s.epochSlow.Add(rt / req.Demand)
		}
	}
	s.res.classDone[req.Class]++
	s.res.classRTSum[req.Class] += rt
	s.factory.Free(req)
}

// recordDrop is the funnel every refused request leaves through. Every drop
// reaches the observer; a measured drop counts by origin and bumps its
// reason's tally, which finish folds into the drop maps. The request
// returns to the factory arena.
func (s *Simulation) recordDrop(req *workload.Request, measured bool) {
	reason := req.DropReason
	if reason == "" {
		reason = "unknown"
	}
	// The trace sees every drop, including pre-warmup ones the measured
	// ledger ignores: recordDrop is the single funnel all refusals flow
	// through (firewall, scheme, balancer, server, outage, crash).
	if s.obs != nil {
		s.obs.Emit(obs.Event{
			T: s.eng.Now(), Kind: obs.KindReqDrop, Server: -1,
			Class: int32(req.Class), ID: req.ID, A: float64(req.Origin),
			Label: reason,
		})
	}
	if !measured {
		s.factory.Free(req)
		return
	}
	legit := req.Origin == workload.Legit
	s.res.countDrop(reason, legit)
	if legit {
		s.res.DroppedLegit++
	} else {
		s.res.DroppedAttack++
	}
	s.factory.Free(req)
}

// finish advances everything to the horizon and assembles the result.
func (s *Simulation) finish() {
	for _, sv := range s.cl.Servers {
		for _, done := range sv.Advance(s.cfg.Horizon) {
			s.recordCompletion(done)
		}
	}
	s.accountSlot(s.cfg.Horizon)
	s.sample(s.cfg.Horizon)

	s.res.UtilityEnergyJ = s.cl.UtilityJ()
	s.res.BatteryEnergyJ = s.cl.BatteryJ()
	s.res.TotalEnergyJ = s.cl.TotalEnergyJ()
	s.res.OverBudgetJ = s.cl.OverBudgetJ()
	s.res.BatteryCycles = s.cl.UPS.Cycles()
	s.res.SuspectRouted = s.bal.RoutedSuspect()
	s.res.foldDrops()
	if s.slots > 0 {
		s.res.FracSlotsOverBudget = float64(s.slotsOver) / float64(s.slots)
	}
	if tok, ok := s.scheme.(*defense.Token); ok {
		s.res.TokenDropFrac = tok.DropFraction()
	}
	if s.plant != nil {
		s.res.ThermalThrottleEvents = s.plant.ThrottleEvents()
		if s.slots > 0 {
			s.res.FracSlotsThermal = float64(s.thermalHot) / float64(s.slots)
		}
	}
}

// RunOnce is the package-level convenience: assemble and run in one call.
//
// RunOnce is safe to call from multiple goroutines at once as long as the
// configurations do not share mutable state: the simulation holds no
// package-level mutable variables, copies the source and attack specs by
// value during assembly, and seeds its RNG from cfg.Seed alone. The two
// sharing hazards are the caller's: cfg.Scheme instances are stateful and
// must be fresh per call, and spec slices must not be mutated while a run is
// in flight. internal/harness builds on this guarantee.
func RunOnce(cfg Config) (*Result, error) {
	sim, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run(), nil
}
