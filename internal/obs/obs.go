// Package obs is the simulator's deterministic observability layer: a
// structured event trace and its sim-time timeline fold, both driven
// purely by simulated time. Every subsystem that can emit events holds one
// nil-able Observer; a nil observer is the fast path and costs a single
// predictable branch, so an unobserved run is bit-identical to (and as
// fast as) a build without the package.
//
// Determinism contract: events carry sim-time stamps only, emission order
// is the simulation's own event order, and every exporter iterates in a
// sorted or insertion order — never raw map order. Two runs of the same
// config with fresh observers produce byte-identical trace, event CSV and
// timeline files.
package obs

// Observer receives structured simulation events. Implementations must not
// mutate simulation state from Emit and must be deterministic functions of
// the event stream. Emit is called from the simulation goroutine only;
// implementations need no locking unless shared across concurrent runs
// (don't do that — attach one observer per run).
type Observer interface {
	Emit(ev Event)
}

// Kind enumerates the event taxonomy. The numeric order groups kinds by
// subsystem; String returns the stable kebab-case name used by exporters.
type Kind uint8

const (
	// Request lifecycle (core + server).
	KindReqArrive Kind = iota
	KindReqStart
	KindReqComplete
	KindReqDrop
	KindReqRequeue

	// Defense actuations.
	KindDVFSCommand // issued by the scheme in a control slot (core diffs)
	KindFreqChange  // landed on the server (after fault interception)
	KindTokenGrant
	KindTokenDeny
	KindDefenseBridge
	KindDefenseCollateral

	// Battery.
	KindBatteryDischarge
	KindBatteryCharge
	KindBatteryFail
	KindBatteryRepair

	// Breaker / thermal.
	KindBreakerTrip
	KindBreakerReset
	KindOutageStart
	KindOutageEnd
	KindThermalThrottle

	// Firewall.
	KindFirewallBan
	KindFirewallDown
	KindFirewallUp

	// Infrastructure faults and sensing.
	KindServerCrash
	KindServerRecover
	KindFaultOpen
	KindFaultClose
	KindTelemetry

	// Network conditions (per-link loss/latency/partition windows and the
	// delivery layer's timeout/retry machinery).
	KindNetDelay
	KindNetDrop
	KindNetRetry
	KindNetTimeout
	KindNetPartition
	KindNetHeal

	// Periodic sampling (power + battery SoC).
	KindSample

	// Ground-truth attack-window markers (flood open/close, DOPE start).
	// Emit-only engine events scheduled by core.Start solely when an
	// observer is installed, so trace analyzers can measure detection lag
	// against the moment the attack actually began.
	KindAttackOn
	KindAttackOff

	numKinds int = iota
)

var kindNames = [...]string{
	"req-arrive", "req-start", "req-complete", "req-drop", "req-requeue",
	"dvfs-command", "freq-change", "token-grant", "token-deny",
	"defense-bridge", "defense-collateral",
	"battery-discharge", "battery-charge", "battery-fail",
	"battery-repair",
	"breaker-trip", "breaker-reset", "outage-start", "outage-end",
	"thermal-throttle",
	"firewall-ban", "firewall-down", "firewall-up",
	"server-crash", "server-recover", "fault-open", "fault-close",
	"telemetry",
	"net-delay", "net-drop", "net-retry", "net-timeout",
	"net-partition", "net-heal",
	"sample",
	"attack-on", "attack-off",
}

// String returns the stable kebab-case event name.
func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// Event is one structured trace record. It is a plain value — emitting one
// never allocates — with a fixed field set reused across kinds:
//
//	T      sim-time of the event, seconds
//	Server server index, or -1 when not server-scoped
//	Class  workload class index, or -1 when not request-scoped
//	ID     request ID, or source ID for firewall kinds
//	A, B   kind-specific payload (see the emitting subsystem)
//	Label  a static string: class name, drop reason, or fault kind —
//	       always a reference to an existing constant, never built per event
//
// Payload conventions (A, B) by kind:
//
//	req-complete       A=start time, B=sojourn (complete − arrive)
//	req-drop           Label=reason
//	req-requeue        Server=destination of the rescued request
//	dvfs-command       A=freq before the control slot, B=after (GHz)
//	freq-change        A=old freq, B=new freq (GHz)
//	token-grant/deny   A=cost (J), B=bucket level after (J)
//	defense-bridge     A=bridged power (W), B=overshoot (W)
//	defense-collateral A=residual overshoot after suspect throttling (W)
//	battery-discharge  A=delivered power (W), B=state of charge [0,1]
//	battery-charge     A=absorbed power (W), B=state of charge [0,1]
//	breaker-trip       A=reset time
//	outage-start       A=reset time
//	thermal-throttle   A=capped freq (GHz), B=hottest node temp (°C)
//	firewall-ban       ID=source, A=ban expiry time
//	fault-open/close   Label=fault kind, A=window end/start, B=param
//	telemetry          A=true power (W), B=delivered reading (W)
//	net-delay          Server=link, A=added latency (s), B=attempt
//	net-drop           Server=link, ID=request, B=attempt
//	net-retry          Server=link of the failed attempt (-1 when no route
//	                   existed), ID=request, A=retry time, B=attempt,
//	                   Label=reason
//	net-timeout        Server=link, ID=request, A=timeout (s), B=attempt
//	net-partition      Server=link, A=window end
//	net-heal           Server=link, A=window start
//	sample             A=cluster power (W), B=battery state of charge
//	attack-on          A=scheduled window end, B=rate (req/s, 0 for DOPE),
//	                   Label=attack name
//	attack-off         A=window start, Label=attack name
type Event struct {
	T      float64
	Kind   Kind
	Server int32
	Class  int32
	ID     uint64
	A, B   float64
	Label  string
}
