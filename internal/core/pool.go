package core

import (
	"runtime"
	"sync"
)

// Intra-step parallelism (DESIGN.md §16). The per-holder likelihood update of
// a CDPF iteration is embarrassingly parallel: each holder reads the shared
// sharer columns and writes only its own logls/heard slot. Holders are
// partitioned into static contiguous chunks — worker w owns [w·chunk,
// (w+1)·chunk) — and the per-worker gate counts are merged serially in
// worker order, so results are bit-identical for every worker count; that
// invariant is enforced by TestParallelStepByteIdentity and, transitively,
// by every golden and offline-twin byte-diff test. Propagation runs serially;
// in the shared-area geometry it is one pass over the broadcast×candidate
// pairs (sweepShared).
//
// The pool's goroutines are started lazily on the first step with enough
// items and live until the tracker is garbage collected (a finalizer closes
// the job channel; workers hold no reference to the tracker, so the tracker
// stays collectable). Dispatch is allocation-free: jobs are plain structs on
// a buffered channel and the phase body is a fixed method, keeping the
// warmed Step inside its <1 alloc budget with parallelism enabled.

// minParallelItems gates the parallel phase: below this many holders the
// dispatch latency outweighs the span win and the serial loop runs.
const minParallelItems = 32

// poolJob is one contiguous chunk of the likelihood phase.
type poolJob struct {
	t      *Tracker
	worker int
	lo, hi int
}

// stepPool is a fixed set of reusable workers.
type stepPool struct {
	workers int
	jobs    chan poolJob
	wg      sync.WaitGroup
}

func newStepPool(workers int) *stepPool {
	p := &stepPool{workers: workers, jobs: make(chan poolJob, workers)}
	for i := 0; i < workers; i++ {
		go func() {
			for j := range p.jobs {
				j.t.likChunk(j.worker, j.lo, j.hi)
				p.wg.Done()
			}
		}()
	}
	return p
}

// run dispatches the likelihood phase over holders [0, n) in static
// contiguous chunks and blocks until every chunk completes.
func (p *stepPool) run(t *Tracker, n int) {
	chunk := (n + p.workers - 1) / p.workers
	for w := 0; w*chunk < n; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		p.wg.Add(1)
		p.jobs <- poolJob{t: t, worker: w, lo: lo, hi: hi}
	}
	p.wg.Wait()
}

// ensurePool lazily starts the worker pool and per-worker scratch. The
// finalizer closes the job channel when the tracker becomes unreachable,
// letting the workers exit; they reference only the pool, never the tracker.
func (t *Tracker) ensurePool() *stepPool {
	if t.pool == nil {
		t.pool = newStepPool(t.cfg.Parallelism)
		t.scr.pw = make([]workerScratch, t.cfg.Parallelism)
		runtime.SetFinalizer(t, func(tt *Tracker) { close(tt.pool.jobs) })
	}
	return t.pool
}

// parallelOK reports whether the likelihood phase over n holders should run on
// the pool: enough items, more than one configured worker, and stateless
// loss draws (the bursty chain memoizes per-link state on query, which
// concurrent workers must not touch).
func (t *Tracker) parallelOK(n int) bool {
	return t.cfg.Parallelism > 1 && n >= minParallelItems && t.nw.LossStateless()
}

// workerScratch is one worker's private likelihood-phase working memory.
type workerScratch struct {
	dist  []float64
	mask  []bool
	gated int
}

// likChunk computes holders [lo, hi) of the likelihood phase: disjoint
// writes into the shared logls/heard slots, per-worker gate counts.
func (t *Tracker) likChunk(w, lo, hi int) {
	ws := &t.scr.pw[w]
	sharers := t.scr.sharers
	ws.dist = growF(ws.dist, len(sharers))
	ws.mask = growB(ws.mask, len(sharers))
	gated := 0
	for i := lo; i < hi; i++ {
		ll, heard, g := t.holderLL(t.scr.holders[i], sharers, ws.dist, ws.mask)
		t.scr.logls[i] = ll
		t.scr.heard[i] = heard
		gated += g
	}
	ws.gated = gated
}
