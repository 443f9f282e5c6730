package core_test

import (
	"testing"

	"streamtok/internal/conformance"
)

// This package's differential fuzz targets run the conformance matrix's
// fuzz body (conformance.Fuzz): every engine path of the picked grammar
// against Definition 1 under the fuzzed chunking, plus a cursor at the
// cut resumed on its own engine and on another. Picks index the ad-hoc
// rule grammars (testutil.Corpus order), as the committed seeds were
// recorded; the root package's FuzzConformance is the target CI fuzzes.

// FuzzStreamTokDifferential: one fuzzed chunk size.
func FuzzStreamTokDifferential(f *testing.F) {
	f.Add(0, uint8(1), []byte("123 456"))
	f.Add(1, uint8(3), []byte("3.14 . 5"))
	f.Add(2, uint8(7), []byte("12e+3 x"))
	f.Add(3, uint8(64), []byte(`a,"b""c",d`))
	f.Fuzz(func(t *testing.T, pick int, chunk uint8, input []byte) {
		conformance.Fuzz(t, conformance.RulePick(pick), chunk, chunk, 0, input)
	})
}

// FuzzFusedDifferential: two alternating fuzzed chunk sizes.
func FuzzFusedDifferential(f *testing.F) {
	f.Add(0, uint8(1), uint8(1), []byte("123 456"))
	f.Add(3, uint8(1), uint8(5), []byte(`a,"b""c",d`))
	f.Add(5, uint8(64), uint8(2), []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa b"))
	f.Add(7, uint8(3), uint8(17), []byte("/*ab*/ xxxxxxxxxxxxxxxxxxxxxxxx\n"))
	f.Fuzz(func(t *testing.T, pick int, c1, c2 uint8, input []byte) {
		conformance.Fuzz(t, conformance.RulePick(pick), c1, c2, 0, input)
	})
}

// FuzzCheckpointResume: a fuzzed chunk size and cut point.
func FuzzCheckpointResume(f *testing.F) {
	f.Add(0, uint8(1), uint8(3), []byte("123 456 78"))
	f.Add(1, uint8(3), uint8(0), []byte("3.14 . 5"))
	f.Add(2, uint8(7), uint8(200), []byte("12e+3 x"))
	f.Add(3, uint8(2), uint8(5), []byte(`a,"b""c",d`))
	f.Fuzz(func(t *testing.T, pick int, chunk, cut uint8, input []byte) {
		conformance.Fuzz(t, conformance.RulePick(pick), chunk, chunk, cut, input)
	})
}
