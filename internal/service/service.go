// Package service provides the persistent worker pool behind kecss.Pool and
// the experiment sweeps: a fixed set of long-lived workers executing
// index-addressed task batches.
//
// The pool's contract is built around determinism under arbitrary
// scheduling: Run hands out task *indices* through a work-stealing cursor,
// so which worker executes which index is unspecified — but results are
// written by index, and callers derive all per-task state (RNG seeds in
// particular) from the index, never from the worker. A batch therefore
// produces byte-identical results whether the pool has one worker or many.
//
// Workers hold no solver scratch: the simulator and the labeling engine
// recycle their buffers through their own package pools (congest and
// cycles), so tasks need nothing from the worker that runs them.
package service

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Run on a pool whose Close has begun. Callers that
// race Run against Close get either a fully-executed batch or ErrClosed,
// never a partial batch and never a panic.
var ErrClosed = errors.New("service: pool is closed")

// Worker is the per-goroutine state a task runs with. A worker executes one
// task at a time.
type Worker struct {
	// ID is the worker's index in 0..Size()-1. It identifies the goroutine,
	// not the task: per-task state (RNGs especially) must be derived from
	// the task index passed to Run, or results become schedule-dependent.
	ID int
}

// batch is one Run call: n tasks claimed through a shared cursor by every
// worker of the pool.
type batch struct {
	n      int
	fn     func(i int, w *Worker)
	cursor *atomic.Int64
	wg     *sync.WaitGroup
	failed *atomic.Value // first recovered panic, if any
}

// Pool is a fixed-size pool of persistent workers. Create with NewPool, use
// with Run, shut down with Close. Run may be called from multiple
// goroutines concurrently and is safe, but batches are coarse-grained: a
// worker services its current batch until the batch is out of tasks, so a
// small batch submitted while a large one is in flight waits for workers
// to free up rather than interleaving task-by-task. Tasks must not call
// Run on their own pool (the workers are all busy running them — it would
// deadlock).
//
// Close is idempotent and may race with Run: a Run that wins admission
// completes its whole batch before Close returns, and a Run that loses
// returns ErrClosed.
type Pool struct {
	workers []*Worker
	jobs    chan batch
	done    sync.WaitGroup

	// mu serialises batch submission against Close: Run holds it shared
	// while checking closed and handing its batch to the workers, Close
	// holds it exclusively while marking closed and closing jobs. This is
	// what turns the Run/Close race from a send-on-closed-channel panic
	// into a clean ErrClosed.
	mu     sync.RWMutex
	closed bool // guarded by mu (writes hold mu; reads may hold mu.RLock)
}

// NewPool returns a running pool of n workers; n <= 0 means GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{jobs: make(chan batch)}
	for i := 0; i < n; i++ {
		w := &Worker{ID: i}
		p.workers = append(p.workers, w)
		p.done.Add(1)
		go p.loop(w)
	}
	return p
}

// Size returns the number of workers.
func (p *Pool) Size() int { return len(p.workers) }

// Run executes fn(i, w) for every i in 0..n-1 on the pool's workers and
// returns when all n calls have finished. Indices are claimed dynamically,
// so fn must derive per-task state from i, never from w.ID. If a task
// panics, the remaining tasks of the batch are abandoned and Run re-panics
// with the first recovered value.
//
// On a closed pool Run executes nothing and returns ErrClosed; a Run that
// was admitted before Close always completes its whole batch.
func (p *Pool) Run(n int, fn func(i int, w *Worker)) error {
	if n <= 0 {
		return nil
	}
	b := batch{
		n:      n,
		fn:     fn,
		cursor: new(atomic.Int64),
		wg:     new(sync.WaitGroup),
		failed: new(atomic.Value),
	}
	b.wg.Add(len(p.workers))
	// Hand the batch to every worker under the shared lock: once the last
	// send returns, each worker holds its copy, so Close (which waits for
	// the exclusive lock) can close jobs without stranding this batch.
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrClosed
	}
	for range p.workers {
		p.jobs <- b
	}
	p.mu.RUnlock()
	b.wg.Wait()
	if v := b.failed.Load(); v != nil {
		panic(fmt.Sprintf("service: task panicked: %v", v))
	}
	return nil
}

// Close shuts the workers down and waits for them to exit. Close is
// idempotent, safe to call concurrently with Run (in-flight batches
// complete first; not-yet-admitted Runs return ErrClosed), and safe to call
// from multiple goroutines.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.done.Wait() // every Close caller returns only once the workers exit
}

func (p *Pool) loop(w *Worker) {
	defer p.done.Done()
	for b := range p.jobs {
		b.run(w)
	}
}

// run claims tasks until the batch is exhausted or a task has panicked.
func (b batch) run(w *Worker) {
	defer b.wg.Done()
	for b.failed.Load() == nil {
		i := int(b.cursor.Add(1)) - 1
		if i >= b.n {
			return
		}
		b.call(i, w)
	}
}

// call runs one task, converting a panic into the batch's failure marker so
// the other workers stop claiming and Run can re-panic on the caller's
// goroutine instead of killing a pool worker.
func (b batch) call(i int, w *Worker) {
	defer func() {
		if r := recover(); r != nil {
			b.failed.CompareAndSwap(nil, fmt.Sprintf("task %d: %v", i, r))
		}
	}()
	b.fn(i, w)
}
