// Package lib holds the sinks the progcross fixture reaches through
// values typed in terms of lib.Req.
package lib

import "time"

// Req is the type that both the interface method and the callback name.
type Req struct{ N int }

// Clock implements progcross.Ticker.
type Clock struct{}

// Tick is reached only through the interface dispatch in Run.
func (*Clock) Tick(r *Req) float64 {
	return float64(time.Now().UnixNano()) // want "Clock.?.Tick -> time.Now"
}

// Handle is stored as a callback and fired through a func value.
func Handle(r *Req) int {
	return r.N + int(time.Now().UnixNano()) // want "lib.Handle -> time.Now"
}
