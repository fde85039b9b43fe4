//go:build race

package serve

// raceDetector reports whether the test binary was built with -race, under
// which the tiny net's forward costs ~4x and long loops scale down.
const raceDetector = true
