package netlb

import (
	"testing"

	"antidope/internal/workload"
)

func TestPickSkipsDownServers(t *testing.T) {
	servers := pool(3)
	b := must(New(servers))
	servers[1].Advance(0)
	servers[1].Crash(0)
	// The crashed server stays the least loaded; every pick must pass it.
	for i := 0; i < 12; i++ {
		s := dispatch(b, workload.AliNormal)
		if s == nil {
			t.Fatal("Route returned nil with live servers remaining")
		}
		if s.ID == 1 {
			t.Fatal("routed to a crashed server")
		}
	}
}

func TestLeastLoadedSkipsDownServers(t *testing.T) {
	servers := pool(2)
	b := must(New(servers))
	// Server 0 idle but down, server 1 loaded but up: the loaded one wins.
	servers[0].Advance(0)
	servers[0].Crash(0)
	servers[1].Advance(0)
	servers[1].Admit(0, reqFor(workload.AliNormal))
	if s := b.Route(reqFor(workload.AliNormal)); s == nil || s.ID != 1 {
		t.Fatalf("routed to %v, want the live server 1", s)
	}
}

func TestRouteNilWhenAllDown(t *testing.T) {
	servers := pool(2)
	b := must(New(servers))
	for _, s := range servers {
		s.Advance(0)
		s.Crash(0)
	}
	if s := b.Route(reqFor(workload.AliNormal)); s != nil {
		t.Fatalf("Route returned %v with every server down, want nil", s)
	}
}

func TestRouteSpillsFromDeadSuspectPool(t *testing.T) {
	servers := pool(4)
	servers[0].Suspect = true
	b := must(New(servers))
	b.SetSuspectList([]string{workload.Lookup(workload.KMeans).URL})

	// Sanity: suspect traffic lands on the suspect pool while it is up.
	if s := b.Route(reqFor(workload.KMeans)); s.ID != 0 {
		t.Fatalf("suspect request routed to %d, want suspect server 0", s.ID)
	}
	// Kill the suspect pool: suspect traffic must spill onto the innocent
	// servers instead of being lost.
	servers[0].Advance(0)
	servers[0].Crash(0)
	s := b.Route(reqFor(workload.KMeans))
	if s == nil {
		t.Fatal("suspect request lost with live innocent servers remaining")
	}
	if s.ID == 0 {
		t.Fatal("routed to the crashed suspect server")
	}
}

func TestRecoveredServerRejoinsRotation(t *testing.T) {
	servers := pool(3)
	b := must(New(servers))
	servers[2].Advance(0)
	servers[2].Crash(0)
	for i := 0; i < 6; i++ {
		if s := dispatch(b, workload.AliNormal); s.ID == 2 {
			t.Fatal("routed to the crashed server")
		}
	}
	servers[2].Advance(1)
	servers[2].Recover(1)
	seen := map[int]bool{}
	for i := 0; i < 6; i++ {
		seen[b.Route(reqFor(workload.AliNormal)).ID] = true
	}
	if !seen[2] {
		t.Fatal("recovered server never re-entered the rotation")
	}
}
