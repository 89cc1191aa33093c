//go:build !race

package doccheck_test

// raceEnabled reports a race-detector build, whose instrumentation makes
// wall-time bounds meaningless.
const raceEnabled = false
