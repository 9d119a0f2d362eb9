// Package queuetest is the conformance suite for queue.Broker
// implementations. Both the in-memory queue and the httpbroker
// client/server pair run the same suite, which is what lets kecss-serve
// promise that lease semantics — TTL expiry, redelivery, attempt counts,
// dead-lettering — are identical whether an agent is fused in-process or
// attached over HTTP.
package queuetest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/queue"
)

// Factory builds the broker under test on top of a queue configured with
// cfg. Implementations register teardown with t.Cleanup; the suite closes
// the returned broker itself.
type Factory func(t *testing.T, cfg queue.Config) queue.Broker

// Run exercises every Broker contract point against brokers built by mk.
func Run(t *testing.T, mk Factory) {
	t.Run("FIFOAndOutcomeDelivery", func(t *testing.T) { testFIFOAndOutcome(t, mk) })
	t.Run("AttemptCountsAcrossRedelivery", func(t *testing.T) { testAttempts(t, mk) })
	t.Run("LeaseExpiryTwoClaimants", func(t *testing.T) { testExpiryTwoClaimants(t, mk) })
	t.Run("ExtendKeepsLeaseAlive", func(t *testing.T) { testExtend(t, mk) })
	t.Run("DeadLetterRingAndLimit", func(t *testing.T) { testDeadLetters(t, mk) })
	t.Run("ConcurrentClaimExtendComplete", func(t *testing.T) { testConcurrent(t, mk) })
	t.Run("CancelledContextBeatsReadyJob", func(t *testing.T) { testCancelledContext(t, mk) })
}

// testCancelledContext pins the shutdown contract consumers rely on: a
// Claim whose context is already done returns the context error even when
// jobs are ready — a stopping agent must never walk away with a fresh
// lease. The job stays claimable by a live consumer.
func testCancelledContext(t *testing.T, mk Factory) {
	b := mk(t, queue.Config{})
	defer b.Close()
	b.Enqueue(&queue.Job{ID: "ready"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if l, err := b.Claim(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Claim with cancelled ctx = (%v, %v), want context.Canceled", l, err)
	}
	l := claim(t, b)
	if l.Job.ID != "ready" || l.Job.Attempt != 1 {
		t.Fatalf("job after refused claim = %s attempt %d, want ready attempt 1", l.Job.ID, l.Job.Attempt)
	}
	l.Ack()
}

func claim(t *testing.T, b queue.Broker) *queue.Lease {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	l, err := b.Claim(ctx)
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	return l
}

func testFIFOAndOutcome(t *testing.T, mk Factory) {
	var mu sync.Mutex
	done := map[string]queue.Outcome{}
	b := mk(t, queue.Config{OnComplete: func(j *queue.Job, out queue.Outcome) {
		mu.Lock()
		done[j.ID] = out
		mu.Unlock()
	}})
	defer b.Close()
	for i := 0; i < 3; i++ {
		if err := b.Enqueue(&queue.Job{ID: fmt.Sprintf("j%d", i), Digest: fmt.Sprintf("d%d", i), Request: json.RawMessage(`{"n":1}`)}); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
	for i := 0; i < 3; i++ {
		l := claim(t, b)
		if want := fmt.Sprintf("j%d", i); l.Job.ID != want {
			t.Fatalf("claim %d = %s, want %s (FIFO)", i, l.Job.ID, want)
		}
		if l.Job.Attempt != 1 {
			t.Fatalf("fresh claim attempt = %d, want 1", l.Job.Attempt)
		}
		if string(l.Job.Request) != `{"n":1}` {
			t.Fatalf("request payload did not survive delivery: %q", l.Job.Request)
		}
		if !l.Complete(&queue.Outcome{Result: json.RawMessage(`{"ok":true}`)}) {
			t.Fatal("Complete on live lease returned false")
		}
		if l.Complete(&queue.Outcome{}) {
			t.Fatal("second Complete returned true")
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(done) == 3
	}, "OnComplete for all three jobs")
	mu.Lock()
	defer mu.Unlock()
	if string(done["j1"].Result) != `{"ok":true}` {
		t.Fatalf("outcome for j1 = %+v", done["j1"])
	}
}

func testAttempts(t *testing.T, mk Factory) {
	b := mk(t, queue.Config{MaxAttempts: 5, BackoffBase: time.Millisecond, BackoffMax: 3 * time.Millisecond})
	defer b.Close()
	b.Enqueue(&queue.Job{ID: "fresh"})
	// Attempt is stamped at claim time and climbs across Fail redeliveries.
	for want := 1; want <= 3; want++ {
		l := claim(t, b)
		if l.Job.Attempt != want {
			t.Fatalf("delivery %d has attempt %d", want, l.Job.Attempt)
		}
		if want < 3 {
			if !l.Nack("try again") {
				t.Fatal("Nack on live lease returned false")
			}
		} else {
			l.Ack()
		}
	}
	// A job enqueued with prior attempts (journal replay) keeps its budget.
	b.Enqueue(&queue.Job{ID: "replayed", Attempt: 2})
	if l := claim(t, b); l.Job.ID != "replayed" || l.Job.Attempt != 3 {
		t.Fatalf("replayed claim = %s attempt %d, want replayed attempt 3", l.Job.ID, l.Job.Attempt)
	} else {
		l.Ack()
	}
}

func testExpiryTwoClaimants(t *testing.T, mk Factory) {
	b := mk(t, queue.Config{LeaseTTL: 40 * time.Millisecond, BackoffBase: time.Millisecond, BackoffMax: 3 * time.Millisecond, MaxAttempts: 5})
	defer b.Close()
	b.Enqueue(&queue.Job{ID: "j0"})
	first := claim(t, b)
	// A second claimant is already waiting when the first lease expires:
	// the reaper must hand the same job to it with the attempt bumped.
	second := claim(t, b)
	if second.Job.ID != "j0" || second.Job.Attempt != 2 {
		t.Fatalf("redelivery = %s attempt %d, want j0 attempt 2", second.Job.ID, second.Job.Attempt)
	}
	// The loser's token is inert in every direction.
	if first.Extend() {
		t.Fatal("Extend on expired lease returned true")
	}
	if first.Complete(&queue.Outcome{Result: json.RawMessage(`"stale"`)}) {
		t.Fatal("Complete on expired lease returned true")
	}
	if first.Nack("stale") {
		t.Fatal("Nack on expired lease returned true")
	}
	// The winner's lease is live.
	if !second.Extend() {
		t.Fatal("Extend on live lease returned false")
	}
	if !second.Complete(&queue.Outcome{Result: json.RawMessage(`"fresh"`)}) {
		t.Fatal("Complete on live redelivered lease returned false")
	}
}

func testExtend(t *testing.T, mk Factory) {
	// The heartbeat comes every ttl/4, so the lease survives a scheduler
	// stall of up to 3/4 of the TTL between a beat and the next call; the
	// loop spans three TTLs.
	const ttl = 200 * time.Millisecond
	b := mk(t, queue.Config{LeaseTTL: ttl, BackoffBase: time.Millisecond, BackoffMax: 3 * time.Millisecond})
	defer b.Close()
	b.Enqueue(&queue.Job{ID: "slow"})
	l := claim(t, b)
	// Heartbeat past several TTLs; the lease must never lapse.
	deadline := time.Now().Add(3 * ttl)
	for time.Now().Before(deadline) {
		if !l.Extend() {
			t.Fatal("Extend lost a heartbeated lease")
		}
		time.Sleep(ttl / 4)
	}
	if !l.Ack() {
		t.Fatal("Ack after heartbeats returned false")
	}
	if s := b.Stats(); s.Ready+s.Delayed+s.Leased != 0 {
		t.Fatalf("census after heartbeated ack = %+v, want all zero", s)
	}
}

func testDeadLetters(t *testing.T, mk Factory) {
	b := mk(t, queue.Config{MaxAttempts: 1, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond, DeadLetterCap: 3})
	defer b.Close()
	for i := 0; i < 5; i++ {
		b.Enqueue(&queue.Job{ID: fmt.Sprintf("j%d", i)})
		l := claim(t, b)
		l.Nack("budget of one")
	}
	waitFor(t, func() bool { return b.Stats().Dead == 5 }, "all five dead-lettered")
	// The ring keeps only the newest cap entries, reported oldest-first.
	all := b.DeadLetters(0)
	if len(all) != 3 || all[0].Job.ID != "j2" || all[2].Job.ID != "j4" {
		t.Fatalf("DeadLetters(0) = %v", ids(all))
	}
	if got := b.DeadLetters(2); len(got) != 2 || got[0].Job.ID != "j3" || got[1].Job.ID != "j4" {
		t.Fatalf("DeadLetters(2) = %v", ids(got))
	}
	if got := b.DeadLetters(10); len(got) != 3 {
		t.Fatalf("DeadLetters(10) = %v, want the 3 retained", ids(got))
	}
	// Returned entries are copies, not aliases into the ring.
	all[0].Job.ID = "mutated"
	all[0].Reason = "mutated"
	if again := b.DeadLetters(0); again[0].Job.ID != "j2" || again[0].Reason != "budget of one" {
		t.Fatalf("mutating a returned dead letter leaked into the ring: %+v", again[0])
	}
	if s := b.Stats(); s.Dead != 5 {
		t.Fatalf("Stats.Dead = %d, want all-time 5", s.Dead)
	}
}

func testConcurrent(t *testing.T, mk Factory) {
	const jobs, workers = 60, 8
	var completions atomic.Int64
	b := mk(t, queue.Config{
		LeaseTTL:    2 * time.Second,
		MaxAttempts: 8,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		OnComplete:  func(*queue.Job, queue.Outcome) { completions.Add(1) },
	})
	defer b.Close()
	for i := 0; i < jobs; i++ {
		b.Enqueue(&queue.Job{ID: fmt.Sprintf("j%03d", i)})
	}
	var mu sync.Mutex
	delivered := map[string]int{}
	var wg sync.WaitGroup
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var remaining atomic.Int64
	remaining.Store(jobs)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for remaining.Load() > 0 {
				// Short per-claim window so a worker blocked on an empty
				// queue notices when its peers finish the drain.
				cctx, ccancel := context.WithTimeout(ctx, 250*time.Millisecond)
				l, err := b.Claim(cctx)
				ccancel()
				if err != nil {
					if errors.Is(err, queue.ErrClosed) || ctx.Err() != nil {
						return
					}
					continue
				}
				// Race Extend against Complete from the same holder; both
				// must be safe and the job must complete exactly once.
				l.Extend()
				if l.Complete(&queue.Outcome{Result: json.RawMessage(`"r"`)}) {
					mu.Lock()
					delivered[l.Job.ID]++
					mu.Unlock()
					remaining.Add(-1)
				}
			}
		}(w)
	}
	wg.Wait()
	if ctx.Err() != nil {
		t.Fatal("workers timed out draining the queue")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != jobs {
		t.Fatalf("completed %d distinct jobs, want %d", len(delivered), jobs)
	}
	for id, n := range delivered {
		if n != 1 {
			t.Fatalf("job %s completed %d times, want exactly once", id, n)
		}
	}
	waitFor(t, func() bool { return completions.Load() == jobs }, "OnComplete once per job")
	if s := b.Stats(); s.Ready+s.Delayed+s.Leased != 0 || s.Dead != 0 {
		t.Fatalf("census after drain = %+v, want empty", s)
	}
}

func ids(dls []queue.DeadLetter) []string {
	out := make([]string, len(dls))
	for i, d := range dls {
		out[i] = d.Job.ID
	}
	return out
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
