package netlb

import (
	"testing"

	"antidope/internal/workload"
)

// partitionSet installs a reachability predicate that excludes the given
// server IDs, standing in for core's link-partition cursors.
func partitionSet(b *Balancer, down ...int) map[int]bool {
	cut := map[int]bool{}
	for _, id := range down {
		cut[id] = true
	}
	b.SetReachable(func(id int) bool { return !cut[id] })
	return cut
}

func TestPickSkipsPartitionedServers(t *testing.T) {
	for _, pol := range []Policy{RoundRobin, LeastLoaded} {
		servers := pool(3)
		b := must(New(servers, pol))
		partitionSet(b, 1)
		for i := 0; i < 12; i++ {
			s := b.Route(reqFor(workload.AliNormal))
			if s == nil {
				t.Fatalf("%v: Route returned nil with reachable servers remaining", pol)
			}
			if s.ID == 1 {
				t.Fatalf("%v: routed to a partitioned server", pol)
			}
		}
	}
}

// TestPartitionedServerStaysUp pins the "defense blind, physics real"
// split: a partition hides the server from the balancer without touching
// its own up/down state.
func TestPartitionedServerStaysUp(t *testing.T) {
	servers := pool(2)
	b := must(New(servers, LeastLoaded))
	partitionSet(b, 0)
	if !servers[0].Up() {
		t.Fatal("partition took the server down; it must only hide it from routing")
	}
	if s := b.Route(reqFor(workload.AliNormal)); s == nil || s.ID != 0+1 {
		t.Fatalf("routed to %v, want the reachable server 1", s)
	}
}

func TestRouteNilWhenAllPartitioned(t *testing.T) {
	servers := pool(2)
	b := must(New(servers, LeastLoaded))
	partitionSet(b, 0, 1)
	if s := b.Route(reqFor(workload.AliNormal)); s != nil {
		t.Fatalf("Route returned %v with every server partitioned, want nil", s)
	}
}

// TestHealedServerRejoinsRotation flips the predicate mid-test, the shape
// of a partition window closing.
func TestHealedServerRejoinsRotation(t *testing.T) {
	servers := pool(3)
	b := must(New(servers, RoundRobin))
	cut := partitionSet(b, 2)
	for i := 0; i < 6; i++ {
		if s := b.Route(reqFor(workload.AliNormal)); s.ID == 2 {
			t.Fatal("routed to the partitioned server")
		}
	}
	delete(cut, 2) // window closes
	seen := map[int]bool{}
	for i := 0; i < 6; i++ {
		seen[b.Route(reqFor(workload.AliNormal)).ID] = true
	}
	if !seen[2] {
		t.Fatal("healed server never re-entered the rotation")
	}
}

// TestSuspectPoolSplitSurvivesPartition pins PDF's pool discipline under a
// partitioned suspect server: suspect traffic spills to the innocents (not
// lost), and innocent traffic never lands on the partitioned suspect.
func TestSuspectPoolSplitSurvivesPartition(t *testing.T) {
	servers := pool(4)
	servers[0].Suspect = true
	b := must(New(servers, LeastLoaded))
	b.SetSuspectList([]string{workload.Lookup(workload.KMeans).URL})

	// Sanity: suspect traffic lands on the suspect pool while reachable.
	if s := b.Route(reqFor(workload.KMeans)); s.ID != 0 {
		t.Fatalf("suspect request routed to %d, want suspect server 0", s.ID)
	}
	partitionSet(b, 0)
	s := b.Route(reqFor(workload.KMeans))
	if s == nil {
		t.Fatal("suspect request lost with reachable innocent servers remaining")
	}
	if s.ID == 0 {
		t.Fatal("routed to the partitioned suspect server")
	}
	if s := b.Route(reqFor(workload.AliNormal)); s == nil || s.ID == 0 {
		t.Fatalf("innocent request routed to %v, want a reachable innocent server", s)
	}
}

// TestNilPredicateKeepsHistoricalRotation pins the compatibility contract:
// without SetReachable (and with a predicate admitting everyone) the
// round-robin sequence is byte-identical to the historical one.
func TestNilPredicateKeepsHistoricalRotation(t *testing.T) {
	want := []int{1, 2, 0, 1, 2, 0, 1, 2, 0} // rrNext pre-increments
	run := func(name string, prep func(b *Balancer)) {
		servers := pool(3)
		b := must(New(servers, RoundRobin))
		prep(b)
		for i, w := range want {
			if got := b.Route(reqFor(workload.AliNormal)).ID; got != w {
				t.Fatalf("%s: rotation diverged at %d: got %d, want %d", name, i, got, w)
			}
		}
	}
	run("nil-predicate", func(b *Balancer) {})
	run("admit-all-predicate", func(b *Balancer) {
		b.SetReachable(func(int) bool { return true })
	})
}
