package parallel

import (
	"math"
	"testing"
)

// TestSequentialRouting pins which inputs skip speculation: one worker,
// segments under MinSegment, grammars whose rule ids overflow a byte,
// and inputs whose offsets overflow the packed int32 form.
func TestSequentialRouting(t *testing.T) {
	opts := Options{Workers: 4, MinSegment: 64 * 1024}
	for _, c := range []struct {
		n, rules int
		opts     Options
		want     bool
	}{
		{1 << 20, 10, opts, false},
		{1 << 20, 10, Options{Workers: 1, MinSegment: 64 * 1024}, true},
		{1 << 17, 10, opts, true}, // 32 KiB segments
		{1 << 20, 256, opts, false},
		{1 << 20, 257, opts, true},
		{math.MaxInt32, 10, opts, false},
		{1 << 31, 10, opts, true},
	} {
		if got := sequential(c.n, c.rules, c.opts); got != c.want {
			t.Errorf("sequential(%d, %d, %+v) = %v, want %v", c.n, c.rules, c.opts, got, c.want)
		}
	}
}
