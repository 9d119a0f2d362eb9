package congest

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Executor abstracts how the per-node round functions run. A round's n is
// the length of its step list, and fn(i) steps the list's i-th node.
// Implementations must invoke fn(i) exactly once for every i in 0..n-1 and
// return only after all calls complete; fn touches only per-node state, so
// any schedule is correct and all executors produce identical simulation
// results.
type Executor interface {
	// RunRound invokes fn(i) for every i in 0..n-1, returning after all
	// complete. Implementations must not let fn calls race on shared state;
	// fn itself touches only per-node state.
	RunRound(n int, fn func(i int))
}

// SequentialExecutor runs the step list one node at a time, in vertex order.
type SequentialExecutor struct{}

// RunRound implements Executor.
func (SequentialExecutor) RunRound(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// ParallelExecutor runs each round on a persistent worker pool shared by the
// whole process: GOMAXPROCS workers started once, handed chunked ranges
// of the step list through an atomic cursor, and joined by a reusable barrier. This
// replaces the naive goroutine-per-node-per-round embedding, whose spawn and
// scheduling cost dominated the simulation at large n.
type ParallelExecutor struct{}

// RunRound implements Executor.
func (ParallelExecutor) RunRound(n int, fn func(i int)) { runPooled(n, fn) }

// poolTask is one round of work, executed cooperatively by the pool workers
// and the submitting goroutine.
type poolTask struct {
	fn     func(i int)
	n      int
	chunk  int64        // list entries per cursor claim
	cursor atomic.Int64 // next chunk start
	wg     sync.WaitGroup
}

// run consumes work from the task until none is left.
func (t *poolTask) run() {
	for {
		lo := t.cursor.Add(t.chunk) - t.chunk
		if lo >= int64(t.n) {
			return
		}
		hi := lo + t.chunk
		if hi > int64(t.n) {
			hi = int64(t.n)
		}
		for i := int(lo); i < int(hi); i++ {
			t.fn(i)
		}
	}
}

const (
	// minChunk bounds cursor contention.
	minChunk = 16
	// poolCutoff is the round size below which the cross-goroutine handoff
	// costs more than it saves; smaller rounds run inline.
	poolCutoff = 64
)

var (
	poolOnce  sync.Once
	poolSize  int
	poolTasks chan *poolTask
	taskPool  = sync.Pool{New: func() any { return new(poolTask) }}
)

// startPool launches the persistent workers. They live for the life of the
// process, blocked on the task channel between rounds.
func startPool() {
	poolSize = runtime.GOMAXPROCS(0)
	if poolSize < 1 {
		poolSize = 1
	}
	poolTasks = make(chan *poolTask, poolSize)
	for i := 0; i < poolSize; i++ {
		go func() {
			for t := range poolTasks {
				t.run()
				t.wg.Done()
			}
		}()
	}
}

// runPooled executes fn(0..n-1) on the shared pool. The calling goroutine
// participates as one of the executors, so a round never waits on a worker
// that is busy with another network's round.
func runPooled(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	poolOnce.Do(startPool)
	if poolSize == 1 || n < poolCutoff {
		SequentialExecutor{}.RunRound(n, fn)
		return
	}
	helpers := poolSize - 1
	if maxHelpers := n/minChunk - 1; helpers > maxHelpers {
		helpers = maxHelpers
	}
	t := taskPool.Get().(*poolTask)
	t.fn, t.n = fn, n
	t.cursor.Store(0)
	chunk := n / (8 * (helpers + 1))
	if chunk < minChunk {
		chunk = minChunk
	}
	t.chunk = int64(chunk)
	t.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		poolTasks <- t
	}
	t.run()
	t.wg.Wait()
	t.fn = nil
	taskPool.Put(t)
}

var (
	_ Executor = SequentialExecutor{}
	_ Executor = ParallelExecutor{}
)
