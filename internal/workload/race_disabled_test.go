//go:build !race

package workload_test

// raceEnabled reports whether the race detector is compiled in; allocation
// tests skip under it because instrumentation adds bookkeeping allocations.
const raceEnabled = false
