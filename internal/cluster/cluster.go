// Package cluster aggregates servers into the power domain the paper's
// defenses operate on: a rack (or row) with a shared utility power budget,
// an optional UPS string, and a power monitor the control loop samples.
package cluster

import (
	"fmt"

	"antidope/internal/battery"
	"antidope/internal/power"
	"antidope/internal/server"
	"antidope/internal/stats"
)

// BudgetLevel names the four provisioning scenarios of Section 3.3.
type BudgetLevel int

const (
	// NormalPB supplies 100% of cluster nameplate (no oversubscription).
	NormalPB BudgetLevel = iota
	// HighPB supplies 90% of nameplate.
	HighPB
	// MediumPB supplies 85% of nameplate.
	MediumPB
	// LowPB supplies 80% of nameplate.
	LowPB
)

var budgetNames = [...]string{"Normal-PB", "High-PB", "Medium-PB", "Low-PB"}
var budgetFracs = [...]float64{1.00, 0.90, 0.85, 0.80}

// String returns the paper's name for the level.
func (b BudgetLevel) String() string {
	if b < 0 || int(b) >= len(budgetNames) {
		return fmt.Sprintf("BudgetLevel(%d)", int(b))
	}
	return budgetNames[b]
}

// Frac returns the supplied power as a fraction of nameplate.
func (b BudgetLevel) Frac() float64 {
	if b < 0 || int(b) >= len(budgetFracs) {
		return 1
	}
	return budgetFracs[b]
}

// AllBudgetLevels lists the levels in the order the paper's figures use.
func AllBudgetLevels() []BudgetLevel {
	return []BudgetLevel{NormalPB, HighPB, MediumPB, LowPB}
}

// Cluster is one power domain.
type Cluster struct {
	Servers []*server.Server
	// BudgetW is the utility supply limit for the whole domain.
	BudgetW power.Watts
	// UPS is the battery string; a zero-capacity UPS means none installed.
	UPS *battery.UPS

	utilityJ float64 // energy drawn from utility (incl. battery charging)
	batteryJ float64 // energy drawn from battery
	overJ    float64 // budget-violation integral (W·s above budget)
}

// Config describes a homogeneous cluster.
type Config struct {
	Servers     int
	Cores       int
	MaxInflight int
	Model       power.Model
	Budget      BudgetLevel
	// BatteryAutonomySec sizes the UPS to sustain BatterySustainW for this
	// long; zero installs no battery.
	BatteryAutonomySec float64
	// BatterySustainW is the draw the UPS is sized against; zero means the
	// full cluster nameplate. The Section 6 evaluation sizes it against the
	// oversubscription gap instead, so battery exhaustion dynamics are
	// visible inside the observation window.
	BatterySustainW float64
}

// DefaultConfig mirrors the paper's scaled-down rack: four 100 W leaf nodes
// with a 2-minute UPS.
func DefaultConfig() Config {
	return Config{
		Servers:            4,
		Cores:              4,
		MaxInflight:        48,
		Model:              power.DefaultModel(),
		Budget:             NormalPB,
		BatteryAutonomySec: 120,
	}
}

// New builds the cluster. The budget is the level fraction of total
// nameplate.
func New(cfg Config) (*Cluster, error) {
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("cluster: %d servers", cfg.Servers)
	}
	// Every server shares cfg.Model and only reads its power table, so one
	// table serves them all. An invalid model builds none and is left for
	// server.New to report.
	var tab *power.Table
	if cfg.Model.Validate() == nil {
		tab = server.NewTable(cfg.Model)
	}
	c := &Cluster{}
	for i := 0; i < cfg.Servers; i++ {
		s, err := server.New(server.Config{
			ID: i, Cores: cfg.Cores, MaxInflight: cfg.MaxInflight, Model: cfg.Model, Table: tab,
		})
		if err != nil {
			return nil, err
		}
		c.Servers = append(c.Servers, s)
	}
	c.BudgetW = c.Nameplate() * cfg.Budget.Frac()
	if cfg.BatteryAutonomySec > 0 {
		sustain := cfg.BatterySustainW
		if sustain <= 0 {
			sustain = c.Nameplate()
		}
		c.UPS = battery.Sized(sustain, cfg.BatteryAutonomySec)
	} else {
		c.UPS = &battery.UPS{}
	}
	return c, nil
}

// MustNew is New for known-good configs.
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Nameplate returns the sum of server nameplate ratings.
func (c *Cluster) Nameplate() power.Watts {
	total := power.Watts(0)
	for _, s := range c.Servers {
		total += s.Model.Nameplate
	}
	return total
}

// PowerNow returns instantaneous total draw of all servers.
func (c *Cluster) PowerNow() power.Watts {
	total := power.Watts(0)
	for _, s := range c.Servers {
		total += s.PowerNow()
	}
	return total
}

// Overshoot returns how far current draw exceeds the budget (0 if under).
func (c *Cluster) Overshoot() power.Watts {
	over := c.PowerNow() - c.BudgetW
	if over < 0 {
		return 0
	}
	return over
}

// Headroom returns spare budget (0 if over).
func (c *Cluster) Headroom() power.Watts {
	head := c.BudgetW - c.PowerNow()
	if head < 0 {
		return 0
	}
	return head
}

// AccountSlot integrates the energy ledger for a slot of length dt during
// which the servers drew drawW and the battery contributed batteryW of it.
// The remainder (plus any charging power chargeW) came from the utility.
func (c *Cluster) AccountSlot(dt, drawW, batteryW, chargeW float64) {
	if dt <= 0 {
		return
	}
	utility := drawW - batteryW + chargeW
	if utility < 0 {
		utility = 0
	}
	c.utilityJ += utility * dt
	c.batteryJ += batteryW * dt
	if net := drawW - batteryW; net > c.BudgetW {
		c.overJ += (net - c.BudgetW) * dt
	}
}

// UtilityJ returns energy drawn from the utility so far.
func (c *Cluster) UtilityJ() float64 { return c.utilityJ }

// BatteryJ returns energy supplied by the battery so far.
func (c *Cluster) BatteryJ() float64 { return c.batteryJ }

// OverBudgetJ returns the integral of net draw above the budget — the
// violation the defenses exist to eliminate.
func (c *Cluster) OverBudgetJ() float64 { return c.overJ }

// TotalEnergyJ returns all energy consumed by servers (from both sources).
func (c *Cluster) TotalEnergyJ() float64 {
	total := 0.0
	for _, s := range c.Servers {
		total += s.EnergyJ()
	}
	return total
}

// MeanVFReduction returns the average fractional V/F reduction across
// servers — the y-axis of Figure 6.
func (c *Cluster) MeanVFReduction() float64 {
	if len(c.Servers) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range c.Servers {
		total += s.Model.Ladder.VFReduction(s.Freq())
	}
	return total / float64(len(c.Servers))
}

// MeanFreq returns the average operating frequency.
func (c *Cluster) MeanFreq() power.GHz {
	if len(c.Servers) == 0 {
		return 0
	}
	total := power.GHz(0)
	for _, s := range c.Servers {
		total += s.Freq()
	}
	return total / power.GHz(len(c.Servers))
}

// Inflight returns total requests in service.
func (c *Cluster) Inflight() int {
	n := 0
	for _, s := range c.Servers {
		n += s.Inflight()
	}
	return n
}

// Completed returns total completions.
func (c *Cluster) Completed() uint64 {
	n := uint64(0)
	for _, s := range c.Servers {
		n += s.Completed()
	}
	return n
}

// Rejected returns total admission rejections.
func (c *Cluster) Rejected() uint64 {
	n := uint64(0)
	for _, s := range c.Servers {
		n += s.Rejected()
	}
	return n
}

// SuspectServers returns the servers currently marked suspect, and the
// rest. Anti-DOPE's PDF module partitions with MarkSuspects.
func (c *Cluster) SuspectServers() (suspects, innocents []*server.Server) {
	for _, s := range c.Servers {
		if s.Suspect {
			suspects = append(suspects, s)
		} else {
			innocents = append(innocents, s)
		}
	}
	return suspects, innocents
}

// MarkSuspects designates the first n servers as the suspect pool. It
// panics if n is out of range: the split is a static deployment decision.
func (c *Cluster) MarkSuspects(n int) {
	if n < 0 || n > len(c.Servers) {
		panic(fmt.Sprintf("cluster: suspect pool %d of %d servers", n, len(c.Servers)))
	}
	for i, s := range c.Servers {
		s.Suspect = i < n
	}
}

// Monitor samples cluster power into a series; the control loop and the
// figures both read it.
type Monitor struct {
	Power   stats.Series
	Battery stats.Series
	Freq    stats.Series
	VFRed   stats.Series
}

// Sample records the instantaneous state at time now.
func (m *Monitor) Sample(now float64, c *Cluster) {
	m.Power.Add(now, c.PowerNow())
	m.Battery.Add(now, c.UPS.SoC())
	m.Freq.Add(now, float64(c.MeanFreq()))
	m.VFRed.Add(now, c.MeanVFReduction())
}
