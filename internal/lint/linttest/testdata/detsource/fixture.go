// Package fixture is determinism-checked: detsource flags host clocks,
// host randomness, unsanctioned goroutines, and map-iteration-order
// leaks here, each next to its conforming twin.
//
//vpr:detpkg
package fixture

import (
	"math/rand"
	"time"
)

// tick reads the host clock with no waiver.
func tick() int64 {
	return time.Now().UnixNano() // want `time.Now in determinism-checked package fixture`
}

// throughput is host-side accounting by design.
//
//vpr:wallclock host-throughput metric; never feeds simulated state
func throughput(start time.Time) time.Duration {
	return time.Since(start)
}

// jitter draws host randomness.
func jitter() int {
	return rand.Intn(8) // want `math/rand call rand.Intn in determinism-checked package fixture`
}

// spawn launches a goroutine outside the stepper.
func spawn() {
	go tick() // want `go statement in determinism-checked package fixture outside a //vpr:stepper function`
}

// launch is the sanctioned concurrency site.
//
//vpr:stepper
func launch() {
	go tick()
}

// total leaks map iteration order into an outer accumulator.
func total(m map[string]int) int {
	sum := 0
	for _, v := range m { // want `map-range loop writes sum, declared outside the loop`
		sum += v
	}
	return sum
}

// localOnly writes nothing that outlives the loop: quiet.
func localOnly(m map[string]int) int {
	last := 0
	for k, v := range m {
		w := v * 2
		if k == "" {
			w++
		}
		_ = w
	}
	return last
}
