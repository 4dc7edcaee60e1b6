package firewall_test

import (
	"fmt"

	"antidope/internal/firewall"
	"antidope/internal/obs"
	"antidope/internal/workload"
)

// Example shows the DOPE premise in two lines: the same aggregate request
// rate is banned when concentrated and invisible when distributed.
func Example() {
	run := func(agents int) uint64 {
		fw := firewall.New(firewall.DefaultConfig())
		var bans banCounter
		fw.SetObserver(&bans)
		const totalRPS = 600.0
		for t := 0.0; t < 60; t += 1 / totalRPS {
			src := workload.SourceID(int(t*totalRPS) % agents)
			fw.Observe(t, &workload.Request{Class: workload.CollaFilt, Source: src})
		}
		return uint64(bans)
	}
	fmt.Printf("600 req/s from 2 agents: %d bans\n", min1(run(2)))
	fmt.Printf("600 req/s from 64 agents: %d bans\n", run(64))
	// Output:
	// 600 req/s from 2 agents: 1 bans
	// 600 req/s from 64 agents: 0 bans
}

// banCounter counts the ban decisions a firewall emits.
type banCounter uint64

func (c *banCounter) Emit(ev obs.Event) {
	if ev.Kind == obs.KindFirewallBan {
		*c++
	}
}

// min1 collapses "at least one ban" to 1 so the example output is stable.
func min1(n uint64) uint64 {
	if n > 1 {
		return 1
	}
	return n
}
