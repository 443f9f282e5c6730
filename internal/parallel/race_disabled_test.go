//go:build !race

package parallel_test

const raceEnabled = false
