package scenario

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"antidope/internal/cluster"
	"antidope/internal/workload"
)

// Parse decodes one scenario document (YAML subset or JSON). Every
// diagnostic is a *Error carrying the file, the position and the dotted
// field path; unknown keys, malformed values, non-finite numbers, unknown
// enum spellings and overlapping fault windows are all rejected here, so
// a parsed Scenario is always semantically sound. Parse never panics,
// whatever the input bytes contain.
func Parse(file string, data []byte) (*Scenario, error) {
	root, err := parseDoc(file, data)
	if err != nil {
		return nil, err
	}
	d := &dec{file: file}
	return d.scenario(root)
}

// dec is the document decoder; it carries the file name for diagnostics.
type dec struct{ file string }

func (d *dec) errAt(p pos, path, format string, args ...any) *Error {
	return errAt(d.file, p, path, fmt.Sprintf(format, args...))
}

// mapReader consumes the entries of a mapping node and reports the first
// unconsumed key as unknown.
type mapReader struct {
	d    *dec
	n    *node
	path string
	used map[string]bool
}

func (d *dec) mapping(n *node, path string) (*mapReader, error) {
	if n.kind != mapNode {
		return nil, d.errAt(n.pos, path, "expected a mapping")
	}
	return &mapReader{d: d, n: n, path: path, used: map[string]bool{}}, nil
}

// get marks a key consumed and returns its value node (nil if absent).
func (m *mapReader) get(key string) *node {
	m.used[key] = true
	return m.n.get(key)
}

// finish rejects the first key the decoder never asked for.
func (m *mapReader) finish() error {
	for _, e := range m.n.entries {
		if !m.used[e.key] {
			return m.d.errAt(e.kpos, joinPath(m.path, e.key), "unknown key %q", e.key)
		}
	}
	return nil
}

func (m *mapReader) child(key string) string { return joinPath(m.path, key) }

// --- typed scalar readers -------------------------------------------------

func (d *dec) str(n *node, path string) (string, error) {
	if n.kind != scalarNode {
		return "", d.errAt(n.pos, path, "expected a string")
	}
	return n.val, nil
}

func (d *dec) f64(n *node, path string) (float64, error) {
	if n.kind != scalarNode || n.quoted {
		return 0, d.errAt(n.pos, path, "expected a number")
	}
	v, err := strconv.ParseFloat(n.val, 64)
	if err != nil {
		return 0, d.errAt(n.pos, path, "invalid number %q", n.val)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, d.errAt(n.pos, path, "non-finite value %q", n.val)
	}
	return v, nil
}

func (d *dec) nonNeg(n *node, path string) (float64, error) {
	v, err := d.f64(n, path)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return 0, d.errAt(n.pos, path, "must not be negative (got %s)", n.val)
	}
	return v, nil
}

func (d *dec) int(n *node, path string) (int, error) {
	if n.kind != scalarNode || n.quoted {
		return 0, d.errAt(n.pos, path, "expected an integer")
	}
	v, err := strconv.Atoi(n.val)
	if err != nil {
		return 0, d.errAt(n.pos, path, "invalid integer %q", n.val)
	}
	return v, nil
}

func (d *dec) boolean(n *node, path string) (bool, error) {
	if n.kind != scalarNode || n.quoted {
		return false, d.errAt(n.pos, path, "expected true or false")
	}
	switch n.val {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, d.errAt(n.pos, path, "expected true or false, got %q", n.val)
}

// strings reads a sequence of scalar strings.
func (d *dec) strings(n *node, path string) ([]string, error) {
	if n.kind != seqNode {
		return nil, d.errAt(n.pos, path, "expected a list")
	}
	out := make([]string, 0, len(n.items))
	for i, it := range n.items {
		s, err := d.str(it, fmt.Sprintf("%s[%d]", path, i))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// --- enum canonicalization ------------------------------------------------

// squash lower-cases a spelling and removes separators, so "Anti-DOPE",
// "anti_dope" and "antidope" all land on the same key.
func squash(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '-', '_', ' ':
			return -1
		}
		return r
	}, strings.ToLower(s))
}

// canonOf resolves a spelling against a canonical-name list.
func canonOf(s string, canon []string, alias map[string]string) (string, bool) {
	key := squash(s)
	for _, c := range canon {
		if squash(c) == key {
			return c, true
		}
	}
	if alias != nil {
		if c, ok := alias[key]; ok {
			return c, true
		}
	}
	return "", false
}

// enum resolves a spelling against a canonical-name list.
func (d *dec) enum(n *node, path, what string, canon []string, alias map[string]string) (string, error) {
	s, err := d.str(n, path)
	if err != nil {
		return "", err
	}
	if c, ok := canonOf(s, canon, alias); ok {
		return c, nil
	}
	return "", d.errAt(n.pos, path, "unknown %s %q (want %s)", what, s, strings.Join(canon, ", "))
}

// budgetSpellings returns the budget levels as cluster prints them, in the
// paper's order, and maps each one's lower-cased short name (without
// "-PB") to it.
func budgetSpellings() (canon []string, alias map[string]string) {
	alias = make(map[string]string)
	for _, b := range cluster.AllBudgetLevels() {
		name := b.String()
		canon = append(canon, name)
		alias[strings.ToLower(strings.TrimSuffix(name, "-PB"))] = name
	}
	return canon, alias
}

// classSpellings returns the request classes as workload prints them, in
// declaration order.
func classSpellings() []string {
	canon := make([]string, workload.NumClasses)
	for c := range canon {
		canon[c] = workload.Class(c).String()
	}
	return canon
}

// The budget and class spellings are the names cluster and workload print.
var (
	budgetCanon, budgetAlias = budgetSpellings()
	classCanon               = classSpellings()
	classAlias               = map[string]string{"alinormal": workload.AliNormal.String()}
)

var (
	schemeCanon   = []string{"none", "capping", "shaving", "token", "anti-dope", "oracle", "hybrid"}
	layerCanon    = []string{"application", "transport", "network"}
	firewallCanon = []string{"off", "on", "limit"}
	policyCanon   = []string{"least-loaded", "round-robin"}
	mixCanon      = []string{"none", "eval", "fig18"}
	kindCanon     = []string{"server-crash", "battery-failure", "battery-fade",
		"telemetry-dropout", "telemetry-noise", "telemetry-stale",
		"dvfs-delay", "dvfs-stuck", "firewall-down",
		"net-delay", "net-loss", "net-partition"}
	metricCanon = []string{"availability", "sla", "mean-rt", "p90-rt",
		"mean-power", "p50-power", "peak-power", "over-budget", "peak-over"}
)

// --- section decoders -----------------------------------------------------

func (d *dec) scenario(root *node) (*Scenario, error) {
	m, err := d.mapping(root, "")
	if err != nil {
		return nil, err
	}
	s := &Scenario{}

	nameNode := m.get("scenario")
	if nameNode == nil {
		return nil, d.errAt(root.pos, "scenario", "missing required key")
	}
	if s.Name, err = d.str(nameNode, "scenario"); err != nil {
		return nil, err
	}
	if s.Name == "" || strings.ContainsAny(s.Name, "/ \t") {
		return nil, d.errAt(nameNode.pos, "scenario", "scenario name %q must be non-empty and free of slashes and spaces", s.Name)
	}
	if n := m.get("description"); n != nil {
		if s.Description, err = d.str(n, "description"); err != nil {
			return nil, err
		}
	}

	simNode := m.get("sim")
	if simNode == nil {
		return nil, d.errAt(root.pos, "sim", "missing required section")
	}
	if s.Sim, err = d.sim(simNode, "sim"); err != nil {
		return nil, err
	}
	if n := m.get("cluster"); n != nil {
		if s.Cluster, err = d.cluster(n, "cluster"); err != nil {
			return nil, err
		}
	}
	if n := m.get("workload"); n != nil {
		if s.Workload, err = d.workload(n, "workload"); err != nil {
			return nil, err
		}
	}
	if n := m.get("defense"); n != nil {
		if s.Defense, err = d.defense(n, "defense"); err != nil {
			return nil, err
		}
	}
	if n := m.get("attack"); n != nil {
		a, err := d.attack(n, "attack")
		if err != nil {
			return nil, err
		}
		s.Attack = *a
	}
	if n := m.get("faults"); n != nil {
		if s.Faults, err = d.faults(n, "faults"); err != nil {
			return nil, err
		}
	}
	if n := m.get("matrix"); n != nil {
		if s.Matrix, err = d.matrix(n, "matrix"); err != nil {
			return nil, err
		}
	}
	if n := m.get("runs"); n != nil {
		if s.Runs, err = d.runs(n, "runs"); err != nil {
			return nil, err
		}
		if s.Matrix != nil {
			return nil, d.errAt(n.pos, "runs", "runs and matrix are mutually exclusive")
		}
	}
	if n := m.get("assert"); n != nil {
		if s.Assert, err = d.assert(n, "assert"); err != nil {
			return nil, err
		}
	}
	return s, m.finish()
}

func (d *dec) sim(n *node, path string) (SimSpec, error) {
	var out SimSpec
	m, err := d.mapping(n, path)
	if err != nil {
		return out, err
	}
	hn := m.get("horizon")
	if hn == nil {
		return out, d.errAt(n.pos, m.child("horizon"), "missing required key")
	}
	if out.Horizon, err = d.f64(hn, m.child("horizon")); err != nil {
		return out, err
	}
	if out.Horizon <= 0 {
		return out, d.errAt(hn.pos, m.child("horizon"), "horizon must be positive (got %s)", hn.val)
	}
	for _, f := range []struct {
		key string
		dst *float64
	}{
		{"slot", &out.Slot}, {"warmup", &out.Warmup},
		{"dope_epoch", &out.DopeEpoch}, {"dope_slowdown", &out.DopeSlowdown},
	} {
		if vn := m.get(f.key); vn != nil {
			if *f.dst, err = d.nonNeg(vn, m.child(f.key)); err != nil {
				return out, err
			}
		}
	}
	return out, m.finish()
}

func (d *dec) cluster(n *node, path string) (ClusterSpec, error) {
	var out ClusterSpec
	m, err := d.mapping(n, path)
	if err != nil {
		return out, err
	}
	if vn := m.get("servers"); vn != nil {
		if out.Servers, err = d.int(vn, m.child("servers")); err != nil {
			return out, err
		}
		if out.Servers < 0 {
			return out, d.errAt(vn.pos, m.child("servers"), "must not be negative")
		}
	}
	if vn := m.get("budget"); vn != nil {
		if out.Budget, err = d.enum(vn, m.child("budget"), "budget level", budgetCanon, budgetAlias); err != nil {
			return out, err
		}
	}
	if vn := m.get("battery_autonomy_sec"); vn != nil {
		if out.BatteryAutonomySec, err = d.nonNeg(vn, m.child("battery_autonomy_sec")); err != nil {
			return out, err
		}
	}
	if vn := m.get("battery_sustain_frac"); vn != nil {
		if out.BatterySustainFrac, err = d.nonNeg(vn, m.child("battery_sustain_frac")); err != nil {
			return out, err
		}
		if out.BatterySustainFrac > 1 {
			return out, d.errAt(vn.pos, m.child("battery_sustain_frac"), "must be a fraction in [0, 1]")
		}
	}
	return out, m.finish()
}

func (d *dec) workload(n *node, path string) (WorkloadSpec, error) {
	var out WorkloadSpec
	m, err := d.mapping(n, path)
	if err != nil {
		return out, err
	}
	if vn := m.get("normal_rps"); vn != nil {
		if out.NormalRPS, err = d.nonNeg(vn, m.child("normal_rps")); err != nil {
			return out, err
		}
	}
	if vn := m.get("normal_sources"); vn != nil {
		if out.NormalSources, err = d.int(vn, m.child("normal_sources")); err != nil {
			return out, err
		}
		if out.NormalSources < 0 {
			return out, d.errAt(vn.pos, m.child("normal_sources"), "must not be negative")
		}
	}
	if vn := m.get("mix"); vn != nil {
		if out.Mix, err = d.enum(vn, m.child("mix"), "workload mix", mixCanon, nil); err != nil {
			return out, err
		}
	}
	return out, m.finish()
}

func (d *dec) defense(n *node, path string) (DefenseSpec, error) {
	var out DefenseSpec
	m, err := d.mapping(n, path)
	if err != nil {
		return out, err
	}
	if vn := m.get("scheme"); vn != nil {
		if out.Scheme, err = d.enum(vn, m.child("scheme"), "defense scheme", schemeCanon, nil); err != nil {
			return out, err
		}
	}
	if vn := m.get("firewall"); vn != nil {
		if out.Firewall, err = d.enum(vn, m.child("firewall"), "firewall mode", firewallCanon, nil); err != nil {
			return out, err
		}
	}
	if vn := m.get("policy"); vn != nil {
		if out.Policy, err = d.enum(vn, m.child("policy"), "balancer policy", policyCanon, nil); err != nil {
			return out, err
		}
	}
	if vn := m.get("suspect_pool_frac"); vn != nil {
		if out.SuspectPoolFrac, err = d.nonNeg(vn, m.child("suspect_pool_frac")); err != nil {
			return out, err
		}
		if out.SuspectPoolFrac >= 1 {
			return out, d.errAt(vn.pos, m.child("suspect_pool_frac"), "must be a fraction below 1")
		}
	}
	return out, m.finish()
}

func (d *dec) attack(n *node, path string) (*AttackSpec, error) {
	out := &AttackSpec{}
	m, err := d.mapping(n, path)
	if err != nil {
		return nil, err
	}
	if fn := m.get("floods"); fn != nil {
		if fn.kind != seqNode {
			return nil, d.errAt(fn.pos, m.child("floods"), "expected a list")
		}
		out.Floods = make([]FloodSpec, 0, len(fn.items))
		for i, it := range fn.items {
			f, err := d.flood(it, fmt.Sprintf("%s[%d]", m.child("floods"), i))
			if err != nil {
				return nil, err
			}
			out.Floods = append(out.Floods, f)
		}
	}
	if dn := m.get("dope"); dn != nil {
		if out.Dope, err = d.dope(dn, m.child("dope")); err != nil {
			return nil, err
		}
	}
	if sn := m.get("switching"); sn != nil {
		if out.Switching, err = d.switching(sn, m.child("switching")); err != nil {
			return nil, err
		}
	}
	return out, m.finish()
}

func (d *dec) flood(n *node, path string) (FloodSpec, error) {
	var out FloodSpec
	m, err := d.mapping(n, path)
	if err != nil {
		return out, err
	}
	if vn := m.get("name"); vn != nil {
		if out.Name, err = d.str(vn, m.child("name")); err != nil {
			return out, err
		}
	}
	if vn := m.get("layer"); vn != nil {
		if out.Layer, err = d.enum(vn, m.child("layer"), "attack layer", layerCanon, nil); err != nil {
			return out, err
		}
	}
	cn := m.get("class")
	if cn == nil {
		return out, d.errAt(n.pos, m.child("class"), "missing required key")
	}
	if out.Class, err = d.enum(cn, m.child("class"), "request class", classCanon, classAlias); err != nil {
		return out, err
	}
	if vn := m.get("rate"); vn != nil {
		if out.Rate, err = d.nonNeg(vn, m.child("rate")); err != nil {
			return out, err
		}
	}
	if vn := m.get("agents"); vn != nil {
		if out.Agents, err = d.int(vn, m.child("agents")); err != nil {
			return out, err
		}
		if out.Agents < 0 {
			return out, d.errAt(vn.pos, m.child("agents"), "must not be negative")
		}
	}
	if vn := m.get("start"); vn != nil {
		if out.Start, err = d.nonNeg(vn, m.child("start")); err != nil {
			return out, err
		}
	}
	if vn := m.get("duration"); vn != nil {
		if out.Duration, err = d.nonNeg(vn, m.child("duration")); err != nil {
			return out, err
		}
	}
	return out, m.finish()
}

func (d *dec) dope(n *node, path string) (*DopeSpec, error) {
	out := &DopeSpec{}
	m, err := d.mapping(n, path)
	if err != nil {
		return nil, err
	}
	for _, f := range []struct {
		key string
		dst *float64
	}{
		{"start", &out.Start}, {"initial_rps", &out.InitialRPS}, {"max_rps", &out.MaxRPS},
		{"growth", &out.Growth}, {"backoff", &out.Backoff}, {"safety_margin", &out.SafetyMargin},
	} {
		if vn := m.get(f.key); vn != nil {
			if *f.dst, err = d.nonNeg(vn, m.child(f.key)); err != nil {
				return nil, err
			}
		}
	}
	for _, f := range []struct {
		key string
		dst *int
	}{
		{"agents", &out.Agents}, {"max_agents", &out.MaxAgents}, {"targets", &out.Targets},
	} {
		if vn := m.get(f.key); vn != nil {
			if *f.dst, err = d.int(vn, m.child(f.key)); err != nil {
				return nil, err
			}
			if *f.dst < 0 {
				return nil, d.errAt(vn.pos, m.child(f.key), "must not be negative")
			}
		}
	}
	//lint:allow floateq -- exact zero marks an unset config field
	if vn := m.n.get("growth"); vn != nil && out.Growth != 0 && out.Growth <= 1 {
		return nil, d.errAt(vn.pos, m.child("growth"), "growth must exceed 1")
	}
	if vn := m.n.get("safety_margin"); vn != nil && out.SafetyMargin >= 1 {
		return nil, d.errAt(vn.pos, m.child("safety_margin"), "safety margin must be below 1")
	}
	return out, m.finish()
}

func (d *dec) switching(n *node, path string) (*SwitchingSpec, error) {
	out := &SwitchingSpec{}
	m, err := d.mapping(n, path)
	if err != nil {
		return nil, err
	}
	if vn := m.get("start"); vn != nil {
		if out.Start, err = d.nonNeg(vn, m.child("start")); err != nil {
			return nil, err
		}
	}
	if vn := m.get("period"); vn != nil {
		if out.Period, err = d.nonNeg(vn, m.child("period")); err != nil {
			return nil, err
		}
		//lint:allow floateq -- rejecting the exact literal 0
		if out.Period == 0 {
			return nil, d.errAt(vn.pos, m.child("period"), "period must be positive")
		}
	}
	return out, m.finish()
}

func (d *dec) faults(n *node, path string) (*FaultsSpec, error) {
	out := &FaultsSpec{}
	m, err := d.mapping(n, path)
	if err != nil {
		return nil, err
	}
	var positions []pos
	if en := m.get("events"); en != nil {
		if en.kind != seqNode {
			return nil, d.errAt(en.pos, m.child("events"), "expected a list")
		}
		for i, it := range en.items {
			ev, err := d.faultEvent(it, fmt.Sprintf("%s[%d]", m.child("events"), i))
			if err != nil {
				return nil, err
			}
			out.Events = append(out.Events, ev)
			positions = append(positions, it.pos)
		}
		if err := d.checkOverlaps(out.Events, positions, m.child("events")); err != nil {
			return nil, err
		}
	}
	if gn := m.get("generator"); gn != nil {
		if out.Generator, err = d.generator(gn, m.child("generator")); err != nil {
			return nil, err
		}
	}
	return out, m.finish()
}

func (d *dec) faultEvent(n *node, path string) (FaultEventSpec, error) {
	out := FaultEventSpec{Server: -1}
	m, err := d.mapping(n, path)
	if err != nil {
		return out, err
	}
	kn := m.get("kind")
	if kn == nil {
		return out, d.errAt(n.pos, m.child("kind"), "missing required key")
	}
	if out.Kind, err = d.enum(kn, m.child("kind"), "fault kind", kindCanon, nil); err != nil {
		return out, err
	}
	if vn := m.get("at"); vn != nil {
		if out.At, err = d.nonNeg(vn, m.child("at")); err != nil {
			return out, err
		}
	}
	dn := m.get("duration")
	if dn != nil {
		if out.Duration, err = d.nonNeg(dn, m.child("duration")); err != nil {
			return out, err
		}
	}
	windowed := out.Kind != "battery-fade"
	if windowed && out.Duration <= 0 {
		return out, d.errAt(n.pos, m.child("duration"), "%s needs a positive duration", out.Kind)
	}
	if !windowed && dn != nil {
		return out, d.errAt(dn.pos, m.child("duration"), "battery-fade is instantaneous and takes no duration")
	}
	if vn := m.get("server"); vn != nil {
		if out.Server, err = d.int(vn, m.child("server")); err != nil {
			return out, err
		}
		if out.Server < -1 {
			return out, d.errAt(vn.pos, m.child("server"), "server must be -1 (all) or a server index")
		}
	}
	if vn := m.get("param"); vn != nil {
		if out.Param, err = d.nonNeg(vn, m.child("param")); err != nil {
			return out, err
		}
		if out.Kind == "battery-fade" && out.Param > 1 {
			return out, d.errAt(vn.pos, m.child("param"), "battery-fade param is a capacity fraction in [0, 1]")
		}
		if out.Kind == "net-loss" && out.Param > 1 {
			return out, d.errAt(vn.pos, m.child("param"), "net-loss param is a drop probability in [0, 1]")
		}
	}
	return out, m.finish()
}

// checkOverlaps rejects overlapping windows of the same kind and target.
// The hand-written faults.Schedule silently merges such windows; the DSL
// holds authors to a stricter contract so a typo'd schedule cannot quietly
// mean something else.
func (d *dec) checkOverlaps(events []FaultEventSpec, positions []pos, path string) error {
	type idx struct {
		i  int
		ev FaultEventSpec
	}
	groups := map[string][]idx{}
	for i, ev := range events {
		if ev.Kind == "battery-fade" {
			continue
		}
		key := fmt.Sprintf("%s/%d", ev.Kind, ev.Server)
		groups[key] = append(groups[key], idx{i, ev})
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		sort.SliceStable(g, func(a, b int) bool {
			if g[a].ev.At != g[b].ev.At { //lint:allow floateq -- sort key comparison, ties fall through
				return g[a].ev.At < g[b].ev.At
			}
			return g[a].i < g[b].i
		})
		for j := 1; j < len(g); j++ {
			prev, cur := g[j-1], g[j]
			if cur.ev.At < prev.ev.At+prev.ev.Duration {
				return d.errAt(positions[cur.i], fmt.Sprintf("%s[%d]", path, cur.i),
					"%s window at t=%g overlaps the window at t=%g (events[%d])",
					cur.ev.Kind, cur.ev.At, prev.ev.At, prev.i)
			}
		}
	}
	return nil
}

func (d *dec) generator(n *node, path string) (*GeneratorSpec, error) {
	out := &GeneratorSpec{}
	m, err := d.mapping(n, path)
	if err != nil {
		return nil, err
	}
	if vn := m.get("seed_label"); vn != nil {
		if out.SeedLabel, err = d.str(vn, m.child("seed_label")); err != nil {
			return nil, err
		}
	}
	for _, f := range []struct {
		key string
		dst *float64
	}{
		{"intensity", &out.Intensity}, {"crashes", &out.Crashes},
		{"telemetry", &out.Telemetry}, {"dvfs", &out.DVFS},
		{"firewall_flaps", &out.FirewallFlaps}, {"battery", &out.Battery},
		{"net", &out.Net},
		{"fade_to", &out.FadeTo}, {"mean_fault_sec", &out.MeanFaultSec},
	} {
		if vn := m.get(f.key); vn != nil {
			if *f.dst, err = d.nonNeg(vn, m.child(f.key)); err != nil {
				return nil, err
			}
		}
	}
	if vn := m.n.get("fade_to"); vn != nil && out.FadeTo >= 1 {
		return nil, d.errAt(vn.pos, m.child("fade_to"), "fade_to must be a fraction below 1")
	}
	return out, m.finish()
}

func (d *dec) matrix(n *node, path string) (*MatrixSpec, error) {
	out := &MatrixSpec{}
	m, err := d.mapping(n, path)
	if err != nil {
		return nil, err
	}
	if vn := m.get("schemes"); vn != nil {
		raw, err := d.strings(vn, m.child("schemes"))
		if err != nil {
			return nil, err
		}
		for i, s := range raw {
			if _, err := d.enum(vn.items[i], fmt.Sprintf("%s[%d]", m.child("schemes"), i),
				"defense scheme", schemeCanon, nil); err != nil {
				return nil, err
			}
			out.Schemes = append(out.Schemes, s)
		}
	}
	if vn := m.get("budgets"); vn != nil {
		raw, err := d.strings(vn, m.child("budgets"))
		if err != nil {
			return nil, err
		}
		for i, s := range raw {
			if _, err := d.enum(vn.items[i], fmt.Sprintf("%s[%d]", m.child("budgets"), i),
				"budget level", budgetCanon, budgetAlias); err != nil {
				return nil, err
			}
			out.Budgets = append(out.Budgets, s)
		}
	}
	if len(out.Schemes) == 0 && len(out.Budgets) == 0 {
		return nil, d.errAt(n.pos, path, "matrix needs at least one axis (schemes, budgets)")
	}
	return out, m.finish()
}

func (d *dec) runs(n *node, path string) ([]RunSpec, error) {
	if n.kind != seqNode {
		return nil, d.errAt(n.pos, path, "expected a list")
	}
	out := make([]RunSpec, 0, len(n.items))
	seen := map[string]int{}
	for i, it := range n.items {
		rpath := fmt.Sprintf("%s[%d]", path, i)
		r, err := d.run(it, rpath)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[r.Name]; dup {
			return nil, d.errAt(it.pos, rpath, "duplicate run name %q (first at runs[%d])", r.Name, prev)
		}
		seen[r.Name] = i
		out = append(out, r)
	}
	return out, nil
}

func (d *dec) run(n *node, path string) (RunSpec, error) {
	var out RunSpec
	m, err := d.mapping(n, path)
	if err != nil {
		return out, err
	}
	nn := m.get("name")
	if nn == nil {
		return out, d.errAt(n.pos, m.child("name"), "missing required key")
	}
	if out.Name, err = d.str(nn, m.child("name")); err != nil {
		return out, err
	}
	if out.Name == "" || strings.ContainsAny(out.Name, " \t") {
		return out, d.errAt(nn.pos, m.child("name"), "run name must be non-empty and free of spaces")
	}
	if vn := m.get("scheme"); vn != nil {
		if out.Scheme, err = d.enum(vn, m.child("scheme"), "defense scheme", schemeCanon, nil); err != nil {
			return out, err
		}
	}
	if vn := m.get("budget"); vn != nil {
		if out.Budget, err = d.enum(vn, m.child("budget"), "budget level", budgetCanon, budgetAlias); err != nil {
			return out, err
		}
	}
	if vn := m.get("firewall"); vn != nil {
		if out.Firewall, err = d.enum(vn, m.child("firewall"), "firewall mode", firewallCanon, nil); err != nil {
			return out, err
		}
	}
	if vn := m.get("rate"); vn != nil {
		v, err := d.nonNeg(vn, m.child("rate"))
		if err != nil {
			return out, err
		}
		out.Rate = &v
	}
	if vn := m.get("attack"); vn != nil {
		if out.Attack, err = d.attack(vn, m.child("attack")); err != nil {
			return out, err
		}
	}
	if vn := m.get("faults"); vn != nil {
		if out.Faults, err = d.faults(vn, m.child("faults")); err != nil {
			return out, err
		}
	}
	return out, m.finish()
}

func (d *dec) assert(n *node, path string) (AssertSpec, error) {
	var out AssertSpec
	m, err := d.mapping(n, path)
	if err != nil {
		return out, err
	}
	if vn := m.get("sla_ms"); vn != nil {
		if out.SLAms, err = d.nonNeg(vn, m.child("sla_ms")); err != nil {
			return out, err
		}
		//lint:allow floateq -- rejecting the exact literal 0
		if out.SLAms == 0 {
			return out, d.errAt(vn.pos, m.child("sla_ms"), "sla_ms must be positive")
		}
	}
	for _, f := range []struct {
		key string
		dst **float64
	}{
		{"min_availability", &out.MinAvailability},
		{"max_mean_ms", &out.MaxMeanMs},
		{"max_peak_over_w", &out.MaxPeakOverW},
	} {
		if vn := m.get(f.key); vn != nil {
			v, err := d.nonNeg(vn, m.child(f.key))
			if err != nil {
				return out, err
			}
			*f.dst = &v
		}
	}
	if on := m.get("order"); on != nil {
		if on.kind != seqNode {
			return out, d.errAt(on.pos, m.child("order"), "expected a list")
		}
		for i, it := range on.items {
			o, err := d.order(it, fmt.Sprintf("%s[%d]", m.child("order"), i))
			if err != nil {
				return out, err
			}
			out.Orders = append(out.Orders, o)
		}
	}
	return out, m.finish()
}

func (d *dec) order(n *node, path string) (OrderSpec, error) {
	out := OrderSpec{Decreasing: true}
	m, err := d.mapping(n, path)
	if err != nil {
		return out, err
	}
	mn := m.get("metric")
	if mn == nil {
		return out, d.errAt(n.pos, m.child("metric"), "missing required key")
	}
	if out.Metric, err = d.enum(mn, m.child("metric"), "metric", metricCanon, nil); err != nil {
		return out, err
	}
	rn := m.get("runs")
	if rn == nil {
		return out, d.errAt(n.pos, m.child("runs"), "missing required key")
	}
	if out.Runs, err = d.strings(rn, m.child("runs")); err != nil {
		return out, err
	}
	if len(out.Runs) < 2 {
		return out, d.errAt(rn.pos, m.child("runs"), "an ordering needs at least two runs")
	}
	if vn := m.get("decreasing"); vn != nil {
		if out.Decreasing, err = d.boolean(vn, m.child("decreasing")); err != nil {
			return out, err
		}
	}
	return out, m.finish()
}
