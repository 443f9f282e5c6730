// Package parallel holds the serving daemon's shard Scheduler: many
// independent streams spread across a fixed set of worker goroutines,
// each stream's chunks running on one shard at a time. Parallelism is
// across streams, never within one, so every stream keeps the
// sequential engine's single-pass O(K)-memory behaviour.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Scheduler shards active streams across a fixed set of worker
// goroutines — the serving layer's replacement for flat
// semaphore-admission, where GOMAXPROCS HTTP handler goroutines all
// tokenize wherever the Go scheduler happens to run them. Each admitted
// stream is pinned to a shard; its chunks run on that shard's worker,
// so one stream's feeds stay on one core (warm tables, warm streamer
// state) while N streams spread across all cores.
//
// Each worker owns a run queue. It pops its own queue newest-first
// (LIFO — the task just pushed is the stream whose state is hottest)
// and, when empty, steals the oldest task from another shard (FIFO —
// the task that has waited longest, which is also the one whose state
// is coldest and therefore cheapest to migrate). A stolen stream
// migrates: its subsequent chunks enqueue on the thief's shard, so a
// shard that went idle keeps the stream instead of bouncing it back.
//
// The calling goroutine (the HTTP handler) blocks in Do while the
// shard worker runs the task, then continues — I/O (body reads,
// response flushes) stays on the handler goroutine, CPU work lands on
// the shard. Handles and their wakeup channels are pooled, so the
// steady-state admit → feed… → finish cycle allocates nothing.
type Scheduler struct {
	workers []schedWorker
	// wake carries pending-work hints. Every enqueue follows its queue
	// insert with a non-blocking send; a worker only parks after a full
	// scan of all queues. A send that finds the buffer full means
	// len(workers) hints are outstanding, and whichever worker consumes
	// one rescans every queue — so an inserted task is never stranded.
	wake     chan struct{}
	stop     chan struct{}
	handles  sync.Pool
	capacity int64

	inFlight   atomic.Int64
	next       atomic.Uint64 // round-robin shard assignment
	dispatched atomic.Uint64
	stolen     atomic.Uint64
	wg         sync.WaitGroup
}

type schedWorker struct {
	mu sync.Mutex
	q  []*StreamHandle // run queue: oldest at [0], newest at [len-1]
	_  [32]byte        // keep neighboring shards off one cache line
}

// StreamHandle is one admitted stream's ticket: a shard binding plus a
// reusable completion channel. A handle is not safe for concurrent Do
// calls — it belongs to the one goroutine driving the stream.
type StreamHandle struct {
	s        *Scheduler
	shard    int
	fn       func()
	done     chan struct{}
	panicked any
}

// SchedStats is a snapshot of scheduler activity for /metrics.
type SchedStats struct {
	Workers    int    `json:"workers"`
	Capacity   int    `json:"capacity"`
	InFlight   int    `json:"inflight"`
	Dispatched uint64 `json:"dispatched"` // tasks run, total
	Stolen     uint64 `json:"stolen"`     // tasks taken from another shard
}

// NewScheduler starts workers worker goroutines (0 = GOMAXPROCS) with
// an admission capacity of capacity streams (0 = 4×workers). Close it
// when done.
func NewScheduler(workers, capacity int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if capacity <= 0 {
		capacity = 4 * workers
	}
	s := &Scheduler{
		workers:  make([]schedWorker, workers),
		wake:     make(chan struct{}, workers),
		stop:     make(chan struct{}),
		capacity: int64(capacity),
	}
	s.handles.New = func() any {
		return &StreamHandle{done: make(chan struct{}, 1)}
	}
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.run(i)
	}
	return s
}

// Admit claims an admission slot and binds the stream to a shard
// (round-robin). It reports false at capacity — the caller sheds the
// request (429). Pair every successful Admit with Finish.
func (s *Scheduler) Admit() (*StreamHandle, bool) {
	if s.inFlight.Add(1) > s.capacity {
		s.inFlight.Add(-1)
		return nil, false
	}
	h := s.handles.Get().(*StreamHandle)
	h.s = s
	h.shard = int(s.next.Add(1)) % len(s.workers)
	return h, true
}

// Do runs fn on the stream's shard worker and blocks until it
// completes. A panic in fn is re-raised on the calling goroutine, so
// the server's per-request panic isolation keeps working unchanged.
func (h *StreamHandle) Do(fn func()) {
	s := h.s
	h.fn = fn
	w := &s.workers[h.shard]
	w.mu.Lock()
	w.q = append(w.q, h)
	w.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	<-h.done
	h.fn = nil
	if p := h.panicked; p != nil {
		h.panicked = nil
		panic(p)
	}
}

// Finish releases the admission slot and recycles the handle. The
// handle must not be used afterwards.
func (h *StreamHandle) Finish() {
	s := h.s
	h.s = nil
	s.inFlight.Add(-1)
	s.handles.Put(h)
}

// InFlight returns the number of admitted streams.
func (s *Scheduler) InFlight() int { return int(s.inFlight.Load()) }

// Stats snapshots scheduler activity.
func (s *Scheduler) Stats() SchedStats {
	return SchedStats{
		Workers:    len(s.workers),
		Capacity:   int(s.capacity),
		InFlight:   s.InFlight(),
		Dispatched: s.dispatched.Load(),
		Stolen:     s.stolen.Load(),
	}
}

// Close stops the workers after their queues drain and waits for them
// to exit. Admitted streams must be finished first (the server drains
// before shutting the scheduler down); a Do racing Close may hang.
func (s *Scheduler) Close() {
	close(s.stop)
	s.wg.Wait()
}

func (s *Scheduler) run(self int) {
	defer s.wg.Done()
	for {
		h := s.grab(self)
		if h == nil {
			select {
			case <-s.wake:
				continue
			case <-s.stop:
				// Drain any work enqueued concurrently with Close so no
				// Do caller is left blocked.
				for {
					if h := s.grab(self); h == nil {
						return
					} else {
						s.exec(h)
					}
				}
			}
		}
		s.exec(h)
	}
}

// grab takes the newest task from the worker's own queue, or failing
// that steals the oldest task from another shard, migrating it here.
func (s *Scheduler) grab(self int) *StreamHandle {
	w := &s.workers[self]
	w.mu.Lock()
	if n := len(w.q); n > 0 {
		h := w.q[n-1]
		w.q[n-1] = nil
		w.q = w.q[:n-1]
		w.mu.Unlock()
		return h
	}
	w.mu.Unlock()
	for off := 1; off < len(s.workers); off++ {
		v := &s.workers[(self+off)%len(s.workers)]
		v.mu.Lock()
		if len(v.q) > 0 {
			h := v.q[0]
			copy(v.q, v.q[1:])
			v.q[len(v.q)-1] = nil
			v.q = v.q[:len(v.q)-1]
			v.mu.Unlock()
			h.shard = self
			s.stolen.Add(1)
			return h
		}
		v.mu.Unlock()
	}
	return nil
}

// exec runs one task and signals its Do caller, capturing a panic for
// re-raising on the caller's goroutine.
func (s *Scheduler) exec(h *StreamHandle) {
	s.dispatched.Add(1)
	defer func() {
		if p := recover(); p != nil {
			h.panicked = p
		}
		h.done <- struct{}{}
	}()
	h.fn()
}
