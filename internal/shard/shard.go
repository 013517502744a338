// Package shard is the one static, seed-pure split of the node set and
// the one parallel-for every layer replays it with: the engine's phases,
// the world's row scan and the tracker's observation all bucket a node by
// Of and fan out through Run or Slots, which is what keeps a trace
// bit-identical at any worker count.
//
// The partition is static and the assignment dynamic. Which node is in
// which shard never changes; who runs a shard is decided per call: the
// caller works as participant 0, up to Width−1 idle helpers join it as
// participants 1, 2, …, and each participant claims the next unclaimed
// item off one atomic cursor until none is left. The helpers are
// process-wide, started once and parked between calls; when none is idle
// (concurrent or nested callers hold them) the caller runs the items
// itself. A callback learns a participant index, unique within the call,
// not a fixed worker, and may write only what its item or its participant
// owns — so the outcome depends neither on the width nor on who claimed
// what.
package shard

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ident"
)

// N is the fixed shard count node work is partitioned into. It is
// deliberately independent of any worker count and of GOMAXPROCS:
// per-shard state (RNG streams, canonical order) is what makes the
// parallel trace reproducible, so it must not change when the width does.
const N = 64

// Of maps a node to its shard.
func Of(v ident.NodeID) int { return int(uint32(v) % N) }

// Width clamps a requested worker count to the effective fan-out width,
// 1..N: what a caller sizes per-participant scratch to.
func Width(workers int) int { return min(max(workers, 1), N) }

// Run applies fn to every shard; fn(s, w) must only write state owned by
// shard s or by participant w. See Slots for the assignment.
func Run(workers int, fn func(s, w int)) { slots(workers, N, nil, fn) }

// RunTimed is Run that also adds to busy, once per participant, the wall
// time the participant spent claiming and running shards, so a call at
// width W that took d left its participants idle for W·d minus what it
// added. The clock is read twice per participant, not per shard.
func RunTimed(workers int, busy *atomic.Int64, fn func(s, w int)) { slots(workers, N, busy, fn) }

// Slots applies fn to n independent items and returns when every call has
// returned: inline and in order at width ≤ 1, else claimed as the package
// comment says. fn(i, w) runs each item exactly once, with w below
// min(Width(workers), n) and unique to one participant within the call;
// which participant runs which item varies from call to call, so fn must
// only write state owned by item i or by participant w. Past the first
// call at a width, a call spawns no goroutine and allocates nothing beyond
// what the caller's closure costs.
func Slots(workers, n int, fn func(i, w int)) { slots(workers, n, nil, fn) }

// slots is Slots, and RunTimed when busy is not nil.
func slots(workers, n int, busy *atomic.Int64, fn func(i, w int)) {
	width := min(Width(workers), n)
	if width <= 1 {
		start := clock(busy)
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		stop(busy, start)
		return
	}
	j := jobs.Get().(*job)
	j.fn, j.n, j.busy = fn, int64(n), busy
	j.next.Store(0)
	j.part.Store(0)
	helpers.ensure(width - 1)
	for k := 1; k < width && helpers.reserve(); k++ {
		j.joined.Add(1)
		helpers.jobs <- j
	}
	j.work(0)
	j.joined.Wait()
	j.fn, j.busy = nil, nil
	jobs.Put(j)
}

// clock reads the clock when there is a busy accumulator to stop it into.
func clock(busy *atomic.Int64) time.Time {
	if busy == nil {
		return time.Time{}
	}
	return time.Now()
}

// stop adds the time since start to busy, if any.
func stop(busy *atomic.Int64, start time.Time) {
	if busy != nil {
		busy.Add(time.Since(start).Nanoseconds())
	}
}

// job is one call's shared state: the items, the claim cursor, the
// participant counter and the wait for the helpers that joined. Records
// are recycled; one is reused only after every helper that joined it has
// left (joined.Wait).
type job struct {
	fn     func(i, w int)
	n      int64
	busy   *atomic.Int64 // RunTimed's accumulator, nil for an untimed call
	next   atomic.Int64  // the next unclaimed item
	part   atomic.Int32  // participant indices handed to helpers
	joined sync.WaitGroup
}

var jobs = sync.Pool{New: func() any { return new(job) }}

// work claims and runs items as participant w until none is left.
func (j *job) work(w int) {
	start := clock(j.busy)
	for i := j.next.Add(1) - 1; i < j.n; i = j.next.Add(1) - 1 {
		j.fn(int(i), w)
	}
	stop(j.busy, start)
}

// pool is the process's helper set. A helper is idle from the moment it
// is counted in idle until a caller reserves it; a reserved helper is
// parked on (or about to reach) the receive of jobs, so the caller's send
// is matched by a receive without waiting on any running work.
type pool struct {
	mu      sync.Mutex
	started int          // helpers started, at most N−1
	idle    atomic.Int32 // helpers neither reserved nor running a job
	jobs    chan *job    // unbuffered: a send hands a job to a reserved helper
}

var helpers = pool{jobs: make(chan *job)}

// ensure starts helpers until k exist. The pool only grows: a helper
// lives as long as the process, parked on a receive while idle.
func (p *pool) ensure(k int) {
	p.mu.Lock()
	for ; p.started < k; p.started++ {
		p.idle.Add(1)
		go p.helper()
	}
	p.mu.Unlock()
}

// reserve claims one idle helper, or reports that none is idle.
func (p *pool) reserve() bool {
	for {
		k := p.idle.Load()
		if k == 0 {
			return false
		}
		if p.idle.CompareAndSwap(k, k-1) {
			return true
		}
	}
}

// helper runs the jobs it is handed. It counts itself idle again before
// it leaves a job, so a caller that has seen every helper of its call
// leave finds them all idle for its next call.
func (p *pool) helper() {
	for j := range p.jobs {
		j.work(int(j.part.Add(1)))
		p.idle.Add(1)
		j.joined.Done()
	}
}
