// Package queueing provides closed-form queueing-theory results used to
// validate the discrete-event simulator: a processor-sharing server fed by
// Poisson arrivals has exactly known sojourn times (M/G/1-PS), and a FIFO
// multi-server station has the Erlang-C delay formula (M/M/c). The
// validation tests in internal/server and internal/core compare simulated
// latencies against these formulas — if the simulator drifts from theory on
// the cases theory can solve, nothing it says about the cases theory cannot
// solve is trustworthy.
package queueing

import (
	"fmt"
	"math"
)

// MG1PS describes an M/G/1 processor-sharing station: Poisson arrivals at
// rate Lambda, general service demand with mean MeanService (PS sojourn is
// insensitive to the service distribution beyond its mean).
type MG1PS struct {
	Lambda      float64 // arrivals per second
	MeanService float64 // seconds of demand at full speed
}

// Rho returns the offered load.
//
//lint:allow deadcode -- closed-form oracle of core/validation_test.go
func (q MG1PS) Rho() float64 { return q.Lambda * q.MeanService }

// Stable reports whether the station has a steady state.
//
//lint:allow deadcode -- closed-form oracle of core/validation_test.go
func (q MG1PS) Stable() bool { return q.Rho() < 1 }

// MeanSojourn returns the mean time in system: E[T] = E[S]/(1-rho).
// It returns +Inf for an unstable station.
//
//lint:allow deadcode -- closed-form oracle of core/validation_test.go
func (q MG1PS) MeanSojourn() float64 {
	if !q.Stable() {
		return math.Inf(1)
	}
	return q.MeanService / (1 - q.Rho())
}

// MeanInSystem returns E[N] = rho/(1-rho) by Little's law.
//
//lint:allow deadcode -- closed-form oracle of core/validation_test.go
func (q MG1PS) MeanInSystem() float64 {
	if !q.Stable() {
		return math.Inf(1)
	}
	rho := q.Rho()
	return rho / (1 - rho)
}

// ConditionalSojourn returns the expected sojourn of a request with demand
// x: E[T|S=x] = x/(1-rho) — PS's proportional-fairness property.
//
//lint:allow deadcode -- closed-form oracle of core/validation_test.go
func (q MG1PS) ConditionalSojourn(x float64) float64 {
	if !q.Stable() {
		return math.Inf(1)
	}
	return x / (1 - q.Rho())
}

// MMc describes an M/M/c FIFO station: Poisson arrivals at Lambda, c
// servers each with exponential service at rate Mu.
type MMc struct {
	Lambda float64
	Mu     float64
	C      int
}

// Validate reports whether the parameters are usable.
//
//lint:allow deadcode -- closed-form oracle of core/validation_test.go
func (q MMc) Validate() error {
	if q.Lambda < 0 || q.Mu <= 0 || q.C <= 0 {
		return fmt.Errorf("queueing: bad M/M/c parameters %+v", q)
	}
	return nil
}

// Rho returns per-server utilization lambda/(c mu).
//
//lint:allow deadcode -- closed-form oracle of core/validation_test.go
func (q MMc) Rho() float64 { return q.Lambda / (float64(q.C) * q.Mu) }

// Stable reports whether the station has a steady state.
//
//lint:allow deadcode -- closed-form oracle of core/validation_test.go
func (q MMc) Stable() bool { return q.Rho() < 1 }

// ErlangC returns the probability an arrival has to wait (all servers
// busy), computed with the numerically stable iterative form.
//
//lint:allow deadcode -- closed-form oracle of core/validation_test.go
func (q MMc) ErlangC() float64 {
	if !q.Stable() {
		return 1
	}
	a := q.Lambda / q.Mu // offered load in Erlangs
	// Iterative Erlang-B, then convert to Erlang-C.
	b := 1.0
	for k := 1; k <= q.C; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := q.Rho()
	return b / (1 - rho*(1-b))
}

// MeanWait returns the mean queueing delay (excluding service).
//
//lint:allow deadcode -- closed-form oracle of core/validation_test.go
func (q MMc) MeanWait() float64 {
	if !q.Stable() {
		return math.Inf(1)
	}
	return q.ErlangC() / (float64(q.C)*q.Mu - q.Lambda)
}

// MeanSojourn returns the mean time in system.
//
//lint:allow deadcode -- closed-form oracle of core/validation_test.go
func (q MMc) MeanSojourn() float64 { return q.MeanWait() + 1/q.Mu }

// MDCapacity returns the maximum arrival rate an M/G/1-PS station can carry
// while keeping the mean sojourn at or below target. Inverting
// E[T] = E[S]/(1-rho): lambda_max = (1 - E[S]/T) / E[S].
//
//lint:allow deadcode -- closed-form oracle of core/validation_test.go
func MDCapacity(meanService, targetSojourn float64) float64 {
	if meanService <= 0 || targetSojourn <= meanService {
		return 0
	}
	return (1 - meanService/targetSojourn) / meanService
}

// PSMulticoreApprox approximates the mean sojourn of an M/G/c-PS station
// where each request can use at most one core. For exponential demand the
// number-in-system process of an M/M/c station is a birth-death chain whose
// rates depend only on the occupancy, so FIFO and PS share the same E[N]
// and, by Little's law, the same mean sojourn — the Erlang-C formula. For
// general demand this is an approximation (multicore PS loses the exact
// insensitivity of the single-core case); it is exact at c=1 for any
// demand distribution.
//
//lint:allow deadcode -- closed-form oracle of core/validation_test.go
func PSMulticoreApprox(lambda, meanService float64, cores int) float64 {
	if cores <= 0 || meanService <= 0 {
		return math.Inf(1)
	}
	q := MMc{Lambda: lambda, Mu: 1 / meanService, C: cores}
	if !q.Stable() {
		return math.Inf(1)
	}
	return q.MeanSojourn()
}
