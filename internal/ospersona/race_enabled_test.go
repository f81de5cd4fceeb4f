//go:build race

package ospersona

// raceEnabled reports whether the race detector is compiled in; allocation
// tests skip under it because instrumentation adds bookkeeping allocations.
const raceEnabled = true
