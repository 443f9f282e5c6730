//go:build !race

package streamtok_test

const raceEnabled = false
