package netlb

import (
	"testing"

	"antidope/internal/workload"
)

// TestLeastLoadedTieBreaking pins the deterministic tie rule: among servers
// sharing the minimum in-flight count, the lowest-indexed one wins (pick
// keeps the first best and only replaces it on a strictly lower count).
// Replication depends on this being stable — a "random" or last-wins tie
// rule would make routing depend on pool construction order.
func TestLeastLoadedTieBreaking(t *testing.T) {
	cases := []struct {
		name     string
		inflight []int // per-server in-flight requests before routing
		want     int   // server ID the next request must land on
	}{
		{"all idle picks the first server", []int{0, 0, 0, 0}, 0},
		{"tie among later servers picks the lowest index", []int{3, 1, 1, 2}, 1},
		{"strictly lower later server wins", []int{2, 2, 1, 2}, 2},
		{"uniform nonzero load still picks the first", []int{2, 2, 2, 2}, 0},
		{"single idle server wins over any tie", []int{1, 1, 0, 1}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			servers := pool(len(tc.inflight))
			for i, n := range tc.inflight {
				servers[i].Advance(0)
				for j := 0; j < n; j++ {
					servers[i].Admit(0, reqFor(workload.CollaFilt))
				}
			}
			b := must(New(servers))
			if s := b.Route(reqFor(workload.AliNormal)); s.ID != tc.want {
				t.Fatalf("routed to server %d, want %d (inflight %v)", s.ID, tc.want, tc.inflight)
			}
		})
	}
}
