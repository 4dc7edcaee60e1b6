package scenario

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"antidope/internal/attack"
	"antidope/internal/cluster"
	"antidope/internal/defense"
	"antidope/internal/faults"
	"antidope/internal/workload"
)

// Parse decodes one scenario document (the YAML subset of yaml.go) into
// typed, resolved runs. Every diagnostic is a *Error carrying the file,
// the position and the dotted field path; unknown keys, malformed values,
// non-finite numbers, unknown enum spellings, overlapping fault windows,
// empty fault blocks, duplicate matrix cells and orderings over unknown
// runs are all rejected here, so a parsed Scenario is always semantically
// sound. Parse never panics, whatever the input bytes contain.
func Parse(file string, data []byte) (*Scenario, error) {
	root, err := parseDoc(file, data)
	if err != nil {
		return nil, err
	}
	d := &dec{file: file}
	return d.scenario(root)
}

// dec is the document decoder. It carries the file name for diagnostics
// and, once decoded, the scenario name that default seed labels derive
// from.
type dec struct{ file, name string }

func (d *dec) errAt(p pos, path, format string, args ...any) *Error {
	return errAt(d.file, p, path, format, args...)
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

// --- enums ----------------------------------------------------------------

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

// enum is a closed set of values with the names their owner prints, in the
// owner's order. alias maps further squashed spellings to an index.
type enum[T any] struct {
	what   string
	names  []string
	values []T
	alias  map[string]int
}

// enumOf lists values under the names their String methods print.
func enumOf[T fmt.Stringer](what string, values []T) *enum[T] {
	e := &enum[T]{what: what, values: values}
	for _, v := range values {
		e.names = append(e.names, v.String())
	}
	return e
}

// nameEnum is an enum whose values are its names.
func nameEnum(what string, names []string) *enum[string] {
	return &enum[string]{what: what, names: names, values: names}
}

// index resolves a spelling, ignoring case and separators.
func (e *enum[T]) index(s string) (int, bool) {
	key := squash(s)
	for i, name := range e.names {
		if squash(name) == key {
			return i, true
		}
	}
	i, ok := e.alias[key]
	return i, ok
}

// decode reads a scalar and resolves it.
func (e *enum[T]) decode(d *dec, n *node, path string) (T, error) {
	var zero T
	s, err := d.str(n, path)
	if err != nil {
		return zero, err
	}
	i, ok := e.index(s)
	if !ok {
		return zero, d.errAt(n.pos, path, "unknown %s %q (want %s)", e.what, s, strings.Join(e.names, ", "))
	}
	return e.values[i], nil
}

// budgetEnum is cluster's levels, also spelled by their short names
// (normal, high, medium, low).
func budgetEnum() *enum[cluster.BudgetLevel] {
	e := enumOf("budget level", cluster.AllBudgetLevels())
	e.alias = make(map[string]int)
	for i, name := range e.names {
		e.alias[squash(strings.TrimSuffix(name, "-PB"))] = i
	}
	return e
}

// classEnum is workload's classes, AliOS also spelled "alinormal".
func classEnum() *enum[workload.Class] {
	all := make([]workload.Class, workload.NumClasses)
	for c := range all {
		all[c] = workload.Class(c)
	}
	e := enumOf("request class", all)
	e.alias = map[string]int{"alinormal": int(workload.AliNormal)}
	return e
}

// The enum spellings are the names their owners print; only the firewall
// modes and the legitimate mixes are the DSL's own.
var (
	budgets   = budgetEnum()
	classes   = classEnum()
	layers    = enumOf("attack layer", attack.AllLayers())
	kinds     = enumOf("fault kind", faults.AllKinds())
	schemes   = nameEnum("defense scheme", defense.SchemeNames())
	firewalls = nameEnum("firewall mode", []string{"off", "on"})
	mixes     = nameEnum("workload mix", []string{"none", "eval", "fig18"})
	metrics   = nameEnum("metric", metricNames())
)

// --- the document as written ----------------------------------------------

// document is a decoded document before its runs are resolved.
type document struct {
	s Scenario // everything but Runs
	// base is the scenario's scheme, budget, firewall, attack program and
	// fault block, which every run inherits.
	base RunSpec
	// runs are the runs list, or the matrix cells, as written; matrix
	// marks the latter.
	runs   []runDoc
	matrix bool
}

// runDoc is one run as written: empty or nil fields inherit the
// scenario's.
type runDoc struct {
	name, scheme, firewall string
	budget                 *cluster.BudgetLevel
	rate                   *float64
	attack                 *AttackSpec
	faults                 *FaultsSpec
}

// --- section decoders -----------------------------------------------------

func (d *dec) scenario(root *node) (*Scenario, error) {
	m, err := d.mapping(root, "")
	if err != nil {
		return nil, err
	}
	doc := &document{}
	s := &doc.s

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
	d.name = s.Name
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
		if err := d.cluster(n, "cluster", doc); err != nil {
			return nil, err
		}
	}
	if n := m.get("workload"); n != nil {
		if s.Workload, err = d.workload(n, "workload"); err != nil {
			return nil, err
		}
	}
	if n := m.get("defense"); n != nil {
		if err := d.defense(n, "defense", doc); err != nil {
			return nil, err
		}
	}
	if n := m.get("attack"); n != nil {
		a, err := d.attack(n, "attack")
		if err != nil {
			return nil, err
		}
		doc.base.Attack = *a
	}
	if n := m.get("faults"); n != nil {
		if doc.base.Faults, err = d.faults(n, "faults"); err != nil {
			return nil, err
		}
	}
	if n := m.get("matrix"); n != nil {
		if doc.runs, err = d.matrix(n, "matrix"); err != nil {
			return nil, err
		}
		doc.matrix = true
	}
	if n := m.get("runs"); n != nil {
		runs, err := d.runs(n, "runs")
		if err != nil {
			return nil, err
		}
		if doc.matrix {
			return nil, d.errAt(n.pos, "runs", "runs and matrix are mutually exclusive")
		}
		doc.runs = runs
	}
	if n := m.get("assert"); n != nil {
		if s.Assert, err = d.assert(n, "assert"); err != nil {
			return nil, err
		}
	}
	if err := m.finish(); err != nil {
		return nil, err
	}
	return d.resolve(doc)
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
	if vn := m.get("warmup"); vn != nil {
		if out.Warmup, err = d.nonNeg(vn, m.child("warmup")); err != nil {
			return out, err
		}
	}
	return out, m.finish()
}

func (d *dec) cluster(n *node, path string, doc *document) error {
	out := &doc.s.Cluster
	m, err := d.mapping(n, path)
	if err != nil {
		return err
	}
	if vn := m.get("budget"); vn != nil {
		b, err := budgets.decode(d, vn, m.child("budget"))
		if err != nil {
			return err
		}
		doc.base.Budget = &b
	}
	if vn := m.get("battery_sustain_frac"); vn != nil {
		if out.BatterySustainFrac, err = d.nonNeg(vn, m.child("battery_sustain_frac")); err != nil {
			return err
		}
		if out.BatterySustainFrac > 1 {
			return d.errAt(vn.pos, m.child("battery_sustain_frac"), "must be a fraction in [0, 1]")
		}
	}
	return m.finish()
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
	if vn := m.get("mix"); vn != nil {
		if out.Mix, err = mixes.decode(d, vn, m.child("mix")); err != nil {
			return out, err
		}
	}
	return out, m.finish()
}

func (d *dec) defense(n *node, path string, doc *document) error {
	out := &doc.s.Defense
	m, err := d.mapping(n, path)
	if err != nil {
		return err
	}
	if vn := m.get("scheme"); vn != nil {
		if doc.base.Scheme, err = schemes.decode(d, vn, m.child("scheme")); err != nil {
			return err
		}
	}
	if vn := m.get("firewall"); vn != nil {
		if doc.base.Firewall, err = firewalls.decode(d, vn, m.child("firewall")); err != nil {
			return err
		}
	}
	if vn := m.get("suspect_pool_frac"); vn != nil {
		if out.SuspectPoolFrac, err = d.nonNeg(vn, m.child("suspect_pool_frac")); err != nil {
			return err
		}
		if out.SuspectPoolFrac >= 1 {
			return d.errAt(vn.pos, m.child("suspect_pool_frac"), "must be a fraction below 1")
		}
	}
	return m.finish()
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
		if out.DopeStart, err = d.dope(dn, m.child("dope")); err != nil {
			return nil, err
		}
		out.Dope = true
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
		if out.Layer, err = layers.decode(d, vn, m.child("layer")); err != nil {
			return out, err
		}
	}
	cn := m.get("class")
	if cn == nil {
		return out, d.errAt(n.pos, m.child("class"), "missing required key")
	}
	if out.Class, err = classes.decode(d, cn, m.child("class")); err != nil {
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

// dope decodes the adaptive attacker's block: attack.DefaultDopeConfig
// runs from its start.
func (d *dec) dope(n *node, path string) (float64, error) {
	m, err := d.mapping(n, path)
	if err != nil {
		return 0, err
	}
	var start float64
	if vn := m.get("start"); vn != nil {
		if start, err = d.nonNeg(vn, m.child("start")); err != nil {
			return 0, err
		}
	}
	return start, m.finish()
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
	out := &FaultsSpec{SeedLabel: d.name + "/faults"}
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
		if err := d.generator(gn, m.child("generator"), out); err != nil {
			return nil, err
		}
	}
	return out, m.finish()
}

func (d *dec) faultEvent(n *node, path string) (faults.Event, error) {
	out := faults.Event{Server: faults.AllServers}
	m, err := d.mapping(n, path)
	if err != nil {
		return out, err
	}
	kn := m.get("kind")
	if kn == nil {
		return out, d.errAt(n.pos, m.child("kind"), "missing required key")
	}
	if out.Kind, err = kinds.decode(d, kn, m.child("kind")); err != nil {
		return out, err
	}
	if vn := m.get("at"); vn != nil {
		if out.At, err = d.nonNeg(vn, m.child("at")); err != nil {
			return out, err
		}
	}
	if vn := m.get("duration"); vn != nil {
		if out.Duration, err = d.nonNeg(vn, m.child("duration")); err != nil {
			return out, err
		}
	}
	if out.Duration <= 0 {
		return out, d.errAt(n.pos, m.child("duration"), "%s needs a positive duration", out.Kind)
	}
	if vn := m.get("server"); vn != nil {
		if out.Server, err = d.int(vn, m.child("server")); err != nil {
			return out, err
		}
		if out.Server < faults.AllServers {
			return out, d.errAt(vn.pos, m.child("server"), "server must be -1 (all) or a server index")
		}
	}
	if vn := m.get("param"); vn != nil {
		if out.Param, err = d.nonNeg(vn, m.child("param")); err != nil {
			return out, err
		}
		if out.Kind == faults.NetLoss && out.Param > 1 {
			return out, d.errAt(vn.pos, m.child("param"), "%s param is a drop probability in [0, 1]", out.Kind)
		}
	}
	return out, m.finish()
}

// checkOverlaps rejects overlapping windows of the same kind and target.
// The hand-written faults.Schedule silently merges such windows; the DSL
// holds authors to a stricter contract so a typo'd schedule cannot quietly
// mean something else.
func (d *dec) checkOverlaps(events []faults.Event, positions []pos, path string) error {
	type idx struct {
		i  int
		ev faults.Event
	}
	groups := map[string][]idx{}
	for i, ev := range events {
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

// generator decodes the fault generator into out: its counts and window
// length in faults.GeneratorConfig, scaled by a non-zero intensity, and
// its seed label.
func (d *dec) generator(n *node, path string, out *FaultsSpec) error {
	g := &faults.GeneratorConfig{}
	m, err := d.mapping(n, path)
	if err != nil {
		return err
	}
	if vn := m.get("seed_label"); vn != nil {
		if out.SeedLabel, err = d.str(vn, m.child("seed_label")); err != nil {
			return err
		}
		if out.SeedLabel == "" {
			out.SeedLabel = d.name + "/faults"
		}
	}
	var intensity float64
	for _, f := range []struct {
		key string
		dst *float64
	}{
		{"intensity", &intensity}, {"crashes", &g.Crashes},
		{"telemetry", &g.TelemetryFaults}, {"dvfs", &g.DVFSFaults},
		{"firewall_flaps", &g.FirewallFlaps}, {"battery", &g.BatteryFaults},
		{"net", &g.NetFaults}, {"mean_fault_sec", &g.MeanFaultSec},
	} {
		if vn := m.get(f.key); vn != nil {
			if *f.dst, err = d.nonNeg(vn, m.child(f.key)); err != nil {
				return err
			}
		}
	}
	if intensity > 0 {
		*g = g.Scaled(intensity)
	}
	out.Generator = g
	return m.finish()
}

// matrix expands the matrix block into its cells, schemes outer and
// budgets inner, each named by its axis values as written.
func (d *dec) matrix(n *node, path string) ([]runDoc, error) {
	m, err := d.mapping(n, path)
	if err != nil {
		return nil, err
	}
	cells := []runDoc{{}}
	if vn := m.get("schemes"); vn != nil {
		spellings, err := d.strings(vn, m.child("schemes"))
		if err != nil {
			return nil, err
		}
		var next []runDoc
		for i, it := range vn.items {
			name, err := schemes.decode(d, it, fmt.Sprintf("%s[%d]", m.child("schemes"), i))
			if err != nil {
				return nil, err
			}
			next = append(next, runDoc{name: spellings[i], scheme: name})
		}
		if len(next) > 0 {
			cells = next
		}
	}
	if vn := m.get("budgets"); vn != nil {
		spellings, err := d.strings(vn, m.child("budgets"))
		if err != nil {
			return nil, err
		}
		levels := make([]cluster.BudgetLevel, len(vn.items))
		for j, it := range vn.items {
			if levels[j], err = budgets.decode(d, it, fmt.Sprintf("%s[%d]", m.child("budgets"), j)); err != nil {
				return nil, err
			}
		}
		if len(levels) > 0 {
			var next []runDoc
			for _, c := range cells {
				for j := range levels {
					cell := c
					cell.name = spellings[j]
					if c.name != "" {
						cell.name = c.name + "/" + spellings[j]
					}
					cell.budget = &levels[j]
					next = append(next, cell)
				}
			}
			cells = next
		}
	}
	if cells[0].name == "" {
		return nil, d.errAt(n.pos, path, "matrix needs at least one axis (schemes, budgets)")
	}
	return cells, m.finish()
}

func (d *dec) runs(n *node, path string) ([]runDoc, error) {
	if n.kind != seqNode {
		return nil, d.errAt(n.pos, path, "expected a list")
	}
	out := make([]runDoc, 0, len(n.items))
	seen := map[string]int{}
	for i, it := range n.items {
		rpath := fmt.Sprintf("%s[%d]", path, i)
		r, err := d.run(it, rpath)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[r.name]; dup {
			return nil, d.errAt(it.pos, rpath, "duplicate run name %q (first at runs[%d])", r.name, prev)
		}
		seen[r.name] = i
		out = append(out, r)
	}
	return out, nil
}

func (d *dec) run(n *node, path string) (runDoc, error) {
	var out runDoc
	m, err := d.mapping(n, path)
	if err != nil {
		return out, err
	}
	nn := m.get("name")
	if nn == nil {
		return out, d.errAt(n.pos, m.child("name"), "missing required key")
	}
	if out.name, err = d.str(nn, m.child("name")); err != nil {
		return out, err
	}
	if out.name == "" || strings.ContainsAny(out.name, " \t") {
		return out, d.errAt(nn.pos, m.child("name"), "run name must be non-empty and free of spaces")
	}
	if vn := m.get("scheme"); vn != nil {
		if out.scheme, err = schemes.decode(d, vn, m.child("scheme")); err != nil {
			return out, err
		}
	}
	if vn := m.get("firewall"); vn != nil {
		if out.firewall, err = firewalls.decode(d, vn, m.child("firewall")); err != nil {
			return out, err
		}
	}
	if vn := m.get("rate"); vn != nil {
		v, err := d.nonNeg(vn, m.child("rate"))
		if err != nil {
			return out, err
		}
		out.rate = &v
	}
	if vn := m.get("attack"); vn != nil {
		if out.attack, err = d.attack(vn, m.child("attack")); err != nil {
			return out, err
		}
	}
	if vn := m.get("faults"); vn != nil {
		if out.faults, err = d.faults(vn, m.child("faults")); err != nil {
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
	if out.Metric, err = metrics.decode(d, mn, m.child("metric")); err != nil {
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

// --- resolving the runs ---------------------------------------------------

// resolve checks the constraints that span sections and expands the
// document into its runs: each run is the scenario's settings with the
// run's own on top. The checks run once every section is read, so a
// document's first malformed value is reported before any of them; their
// errors name a path but no position.
func (d *dec) resolve(doc *document) (*Scenario, error) {
	s, base := &doc.s, doc.base
	if err := d.checkFaults(base.Faults, "faults"); err != nil {
		return nil, err
	}
	if base.Scheme == "" {
		base.Scheme = "none"
	}
	runs := doc.runs
	if len(runs) == 0 {
		runs = []runDoc{{}}
	}
	seen := map[string]bool{}
	for i, r := range runs {
		if doc.matrix && seen[r.name] {
			return nil, d.errAt(pos{}, "matrix", "duplicate matrix cell %q", r.name)
		}
		seen[r.name] = true
		path := fmt.Sprintf("runs[%d]", i)
		run := base
		run.Name = r.name
		if r.attack != nil {
			run.Attack = *r.attack
		}
		if err := d.checkFaults(r.faults, path+".faults"); err != nil {
			return nil, err
		}
		if r.faults != nil {
			run.Faults = r.faults
		}
		if r.scheme != "" {
			run.Scheme = r.scheme
		}
		if r.budget != nil {
			run.Budget = r.budget
		}
		if r.firewall != "" {
			run.Firewall = r.firewall
		}
		if r.rate != nil {
			// A run-level rate overrides every flood's.
			floods := make([]FloodSpec, len(run.Attack.Floods))
			for k, f := range run.Attack.Floods {
				f.Rate = *r.rate
				floods[k] = f
			}
			run.Attack.Floods = floods
		}
		s.Runs = append(s.Runs, run)
	}
	return s, d.checkOrderRefs(s)
}

// checkFaults rejects a fault block with nothing in it.
func (d *dec) checkFaults(f *FaultsSpec, path string) error {
	if f != nil && len(f.Events) == 0 && f.Generator == nil {
		return d.errAt(pos{}, path, "faults block needs events or a generator")
	}
	return nil
}

// checkOrderRefs validates that every ordering assertion names a run of
// the runs list or the matrix; the implicit unnamed run has no name to
// order by.
func (d *dec) checkOrderRefs(s *Scenario) error {
	names := map[string]bool{}
	for _, r := range s.Runs {
		if r.Name != "" {
			names[r.Name] = true
		}
	}
	for i, o := range s.Assert.Orders {
		for j, rn := range o.Runs {
			if !names[rn] {
				return d.errAt(pos{}, fmt.Sprintf("assert.order[%d].runs[%d]", i, j),
					"ordering references unknown run %q", rn)
			}
		}
	}
	return nil
}
