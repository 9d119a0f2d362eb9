package service

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/mst"
)

func TestPoolRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		p := NewPool(workers)
		const n = 100
		counts := make([]int32, n)
		var mu sync.Mutex
		p.Run(n, func(i int, w *Worker) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
		p.Close()
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestPoolWorkerIDsInRange(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	if p.Size() != 4 {
		t.Fatalf("Size = %d, want 4", p.Size())
	}
	p.Run(64, func(i int, w *Worker) {
		if w.ID < 0 || w.ID >= 4 {
			t.Errorf("task %d ran on worker ID %d, want 0..3", i, w.ID)
		}
	})
}

// The load-bearing property: per-index derivation makes batch output
// independent of worker count and scheduling, including when tasks drive
// real simulations that recycle the simulator's pooled arenas.
func TestPoolResultsIndependentOfWorkerCount(t *testing.T) {
	run := func(workers int) []int64 {
		p := NewPool(workers)
		defer p.Close()
		out := make([]int64, 12)
		p.Run(len(out), func(i int, w *Worker) {
			g := graph.Harary(3, 16+2*i, graph.UnitWeights())
			res, err := mst.DistributedBoruvka(g)
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = res.Weight + int64(res.Metrics.Rounds)<<20
		})
		return out
	}
	want := run(1)
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0) + 2} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: task %d diverged: %d vs %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestPoolConcurrentBatches(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var wg sync.WaitGroup
	for b := 0; b < 4; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum := make([]int, 50)
			p.Run(50, func(i int, w *Worker) { sum[i] = i })
			for i, v := range sum {
				if v != i {
					t.Errorf("batch task %d not run", i)
				}
			}
		}()
	}
	wg.Wait()
}

func TestPoolTaskPanicPropagates(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic in task did not propagate to Run")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("panic value %v does not carry the task's message", r)
		}
	}()
	p.Run(10, func(i int, w *Worker) {
		if i == 3 {
			panic("boom")
		}
	})
}

func TestPoolRunAfterCloseRejected(t *testing.T) {
	p := NewPool(1)
	p.Close()
	p.Close() // idempotent
	ran := false
	if err := p.Run(1, func(int, *Worker) { ran = true }); err != ErrClosed {
		t.Fatalf("Run on a closed pool returned %v, want ErrClosed", err)
	}
	if ran {
		t.Fatal("Run on a closed pool executed its task")
	}
}

// Run racing Close must yield either a fully-executed batch or ErrClosed —
// never a panic, never a partial batch. Exercised under -race in CI.
func TestPoolCloseConcurrentWithRun(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		p := NewPool(2)
		const n = 32
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var count atomic.Int64
				err := p.Run(n, func(int, *Worker) { count.Add(1) })
				switch {
				case err == nil && count.Load() != n:
					t.Errorf("admitted batch ran %d/%d tasks", count.Load(), n)
				case err == ErrClosed && count.Load() != 0:
					t.Errorf("rejected batch still ran %d tasks", count.Load())
				case err != nil && err != ErrClosed:
					t.Errorf("unexpected Run error: %v", err)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
		}()
		wg.Wait()
		p.Close()
	}
}
