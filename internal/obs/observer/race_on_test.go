//go:build race

package observer

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, so allocation-count assertions skip.
const raceEnabled = true
