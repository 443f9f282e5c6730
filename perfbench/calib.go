package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// Host speed. The benchmark is meant to run on a few cores of a shared
// host whose other tenants change how fast those cores run: on a 2-vCPU
// Intel Xeon guest the same code has read 2x slower for hours and
// drifted 25% between runs minutes apart, with little steal time and no
// slowdown of arithmetic, so it is the memory hierarchy the tenants
// share. Every time the benchmark reports is
// therefore scaled to a reference host speed. The timed phases are cut
// into windows, a calibration slice runs before the first window and
// after each one, and each window's times are multiplied by refSlice
// over the mean of the slices around it. A slice times a walk written
// here that does what a tokenizer does, with a tokenizer's memory
// profile: a scan over a small transition table that hashes each token
// and looks it up in, or adds it to, a table as large as the bpe piece
// cache. Under that contention its time tracked the program's more
// closely than a walk over an L2-resident table, which slowed only two
// thirds as much. It never changes with the program. On each core
// the program uses a slice takes the median of several short walks, so
// a moment of leftover work in the benchmark's own processes, such as a
// garbage collection, does not count as a slow host, while a host that
// takes the core away for part of every millisecond does; it then
// averages the cores. The raw, unscaled figures stay in each run's
// record.

const (
	calStates = 32      // automaton states; the table is 16 KiB
	calInput  = 1 << 20 // bytes of input, walked in calWalks parts
	calWalks  = 4       // walks per core in a slice
	calSlots  = 1 << 18 // token table slots per core: 2 MiB

	// refSlice is the reference speed: reported times are what the run
	// would have taken had a slice taken this long. On the machine the
	// benchmark was defined on (an Intel Xeon, 2 vCPUs, Go 1.24) a slice
	// took about 2 ms while other tenants slowed the program 2-2.5x.
	refSlice = 1200 * time.Microsecond
)

// calibrator holds the slice's fixed table, input and token tables.
// They come from a fixed generator, never from the workload seed, and
// the token tables are filled from the input before the first slice, so
// a slice is the same work in every run.
type calibrator struct {
	table []uint16   // next state in the low 8 bits, bit 8 marks a token end
	input []byte     // text-like bytes
	slots [][]uint64 // per core: open-addressed token hashes, 0 = empty
	sink  atomic.Uint64
}

// newCalibrator builds a calibrator for slices on up to par cores.
func newCalibrator(par int) *calibrator {
	c := &calibrator{table: make([]uint16, calStates*256), input: make([]byte, calInput)}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range c.table {
		r := next()
		c.table[i] = uint16(r % calStates)
		if r>>32%6 == 0 {
			c.table[i] |= 1 << 8
		}
	}
	for i := range c.input {
		// Mostly letters and spaces, some punctuation.
		r := next()
		switch r % 8 {
		case 0:
			c.input[i] = ' '
		case 1:
			c.input[i] = byte(33 + r>>8%15)
		default:
			c.input[i] = byte('a' + r>>8%26)
		}
	}
	for g := 0; g < par; g++ {
		c.slots = append(c.slots, make([]uint64, calSlots))
		c.walk(c.input, c.slots[g])
	}
	return c
}

// residentMB is the memory the calibrator keeps resident.
func (c *calibrator) residentMB() float64 {
	return float64(2*len(c.table)+len(c.input)+8*calSlots*len(c.slots)) / (1 << 20)
}

// walk scans in, looks every token up in slots and adds the ones that
// are missing, and returns how long it took.
func (c *calibrator) walk(in []byte, slots []uint64) time.Duration {
	t0 := time.Now()
	const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211
	var s uint16
	h := uint64(fnvOffset)
	var acc uint64
	mask := uint64(len(slots) - 1)
	for _, b := range in {
		s = c.table[int(s&0xff)<<8|int(b)]
		h = (h ^ uint64(b)) * fnvPrime
		if s&(1<<8) != 0 {
			i := h & mask
			for slots[i] != 0 && slots[i] != h {
				i = (i + 1) & mask
			}
			slots[i] = h
			acc += i
			h = fnvOffset
		}
	}
	d := time.Since(t0)
	c.sink.Add(acc)
	return d
}

// slice walks every part of the input on each of par goroutines at
// once, so every core the program uses is timed, and returns the mean
// over the goroutines of each one's median walk.
func (c *calibrator) slice(par int) time.Duration {
	mid := make([]float64, par)
	var wg sync.WaitGroup
	for g := range mid {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			part := len(c.input) / calWalks
			ds := make([]float64, calWalks)
			for i := range ds {
				ds[i] = float64(c.walk(c.input[i*part:(i+1)*part], c.slots[g]))
			}
			mid[g] = median(ds)
		}(g)
	}
	wg.Wait()
	sum := 0.0
	for _, d := range mid {
		sum += d
	}
	return time.Duration(sum / float64(par))
}

// scaleFor is the factor that turns a time measured while slices took
// before and after into a time at reference speed.
func scaleFor(before, after time.Duration) float64 {
	return 2 * float64(refSlice) / float64(before+after)
}
