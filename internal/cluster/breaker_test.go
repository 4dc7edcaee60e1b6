package cluster

import (
	"math"
	"testing"
)

func TestNewBreakerValidates(t *testing.T) {
	if _, err := NewBreaker(0, 10, 10); err == nil {
		t.Fatal("zero rating accepted")
	}
	if _, err := NewBreaker(100, 0, 10); err == nil {
		t.Fatal("zero overload accepted")
	}
	if _, err := NewBreaker(100, 10, 0); err == nil {
		t.Fatal("zero tolerance accepted")
	}
}

func TestBreakerTripsAfterTolerance(t *testing.T) {
	// 100 W rating, tolerates a 50 W excursion for 10 s.
	b, err := NewBreaker(100, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	tripped := false
	elapsed := 0.0
	for i := 0; i < 100 && !tripped; i++ {
		tripped = b.Step(1, 150) // full 50 W over
		elapsed++
	}
	if !tripped {
		t.Fatal("never tripped under sustained full overload")
	}
	if math.Abs(elapsed-10) > 1.5 {
		t.Fatalf("tripped after %.0fs, want ~10s", elapsed)
	}
	if !b.tripped {
		t.Fatal("trip bookkeeping")
	}
}

func TestBreakerProportionalTiming(t *testing.T) {
	// Half the overload should take about twice as long.
	b, _ := NewBreaker(100, 50, 10)
	elapsed := 0.0
	for !b.Step(1, 125) {
		elapsed++
		if elapsed > 100 {
			t.Fatal("never tripped")
		}
	}
	if math.Abs(elapsed-20) > 2 {
		t.Fatalf("half overload tripped after %.0fs, want ~20s", elapsed)
	}
}

func TestBreakerNeverTripsUnderRating(t *testing.T) {
	b, _ := NewBreaker(100, 50, 10)
	for i := 0; i < 10000; i++ {
		if b.Step(1, 99) {
			t.Fatal("tripped under rating")
		}
	}
	if b.heat != 0 {
		t.Fatal("heat accumulated under rating")
	}
}

func TestBreakerCoolsBetweenExcursions(t *testing.T) {
	b, _ := NewBreaker(100, 50, 10) // cools at 12.5 W/s
	// Alternate 4 s of full overload (200 J) with 20 s under rating
	// (cools 250 J): heat never accumulates across cycles.
	for cycle := 0; cycle < 50; cycle++ {
		for i := 0; i < 4; i++ {
			if b.Step(1, 150) {
				t.Fatalf("tripped on cycle %d despite cooling", cycle)
			}
		}
		for i := 0; i < 20; i++ {
			b.Step(1, 50)
		}
	}
}

func TestBreakerLatchesUntilReset(t *testing.T) {
	b, _ := NewBreaker(100, 50, 1)
	for !b.Step(1, 200) {
	}
	if b.Step(1, 0) {
		t.Fatal("tripped breaker reported a second trip")
	}
	if !b.tripped {
		t.Fatal("breaker closed itself")
	}
	b.Reset()
	if b.tripped || b.heat != 0 {
		t.Fatal("reset did not clear state")
	}
	// Can trip again after reset.
	tripped := false
	for i := 0; i < 10 && !tripped; i++ {
		tripped = b.Step(1, 200)
	}
	if !tripped {
		t.Fatal("reset breaker never tripped again")
	}
}

func TestBreakerHeatFracMonotone(t *testing.T) {
	b, _ := NewBreaker(100, 50, 10)
	prev := 0.0
	for i := 0; i < 5; i++ {
		b.Step(1, 150)
		frac := b.heat / b.TripJ
		if frac < prev {
			t.Fatal("heat fraction fell under sustained overload")
		}
		prev = frac
	}
	if prev <= 0 || prev > 1 {
		t.Fatalf("heat fraction %g out of (0,1]", prev)
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if b.Step(1, 1000) {
		t.Fatal("nil breaker misbehaved")
	}
	b.Reset() // must not panic
}
