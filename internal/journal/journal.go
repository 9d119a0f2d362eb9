// Package journal is an append-only, fsync-batched, checksummed write-ahead
// log of job lifecycle records for the kecss-serve job layer.
//
// # File layout
//
// The journal is a single file of length-prefixed records:
//
//	┌────────────┬────────────┬──────────────────┐
//	│ len uint32 │ crc uint32 │ payload (len B)  │   repeated
//	└────────────┴────────────┴──────────────────┘
//
// Both header fields are little-endian; crc is CRC-32C (Castagnoli) over
// the payload, which is the canonical JSON encoding of a Record. Records
// are strictly appended; nothing is ever rewritten in place.
//
// # Durability and batching
//
// Append returns only after the record — and everything appended before
// it — has been written and fsynced (group commit: one flusher goroutine
// batches every record that arrives while the previous fsync is in flight
// into the next write+fsync, so concurrent appenders share fsyncs instead
// of queueing one each). A record for which Append has returned nil
// survives kill -9.
//
// # Truncation tolerance
//
// A crash can leave a torn tail: a partially written header or payload, or
// a payload whose checksum fails. Replay (Open) accepts any valid prefix:
// it stops at the first short or corrupt record, reports how many trailing
// bytes were dropped, and truncates the file back to the valid prefix so
// subsequent appends never interleave with garbage. Only the tail can be
// torn — records are written in order and fsynced in order — so mid-file
// corruption (valid-looking data after a bad record) is indistinguishable
// from a torn tail and is likewise discarded.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/chaos"
)

// Record types, in lifecycle order.
const (
	// TypeAccepted: a job was admitted; Request holds the full solve
	// request so replay can re-enqueue it.
	TypeAccepted = "accepted"
	// TypeLeased: a worker claimed the job (Attempt is the 1-based
	// delivery count, Worker the claimant).
	TypeLeased = "leased"
	// TypeDone: the job completed; Result holds the solve response.
	TypeDone = "done"
	// TypeFailed: the job failed permanently (bad input); Error explains.
	TypeFailed = "failed"
	// TypeDead: the job exhausted its retry budget; Error is the last
	// failure or lease-expiry reason.
	TypeDead = "dead"
)

// Record is one job lifecycle event. Unused fields are omitted from the
// encoding; Request/Result are stored as raw JSON so replay round-trips
// them byte-identically.
type Record struct {
	Type     string          `json:"t"`
	JobID    string          `json:"job"`
	Digest   string          `json:"digest,omitempty"`
	Attempt  int             `json:"attempt,omitempty"`
	Worker   string          `json:"worker,omitempty"`
	Error    string          `json:"error,omitempty"`
	Unix     int64           `json:"unix,omitempty"`     // event time, unix nanos (informational)
	Deadline int64           `json:"deadline,omitempty"` // unix nanos; 0 = none
	Request  json.RawMessage `json:"req,omitempty"`
	Result   json.RawMessage `json:"res,omitempty"`
}

// Options configures Open.
type Options struct {
	// Inject is the fault-injection hook (nil in production).
	Inject *chaos.Injector
	// OnFsync, when set, observes the latency of every fsync batch.
	OnFsync func(time.Duration)
}

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("journal: closed")

// ErrBadRecord is wrapped by the replay error for a record whose checksum
// holds but whose payload does not decode: a format bug, not a torn tail.
var ErrBadRecord = errors.New("journal: bad record")

// maxRecordLen bounds a single record; a length header beyond it is treated
// as corruption (protects replay from allocating garbage lengths).
const maxRecordLen = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Journal is the open write-ahead log. Safe for concurrent Append.
type Journal struct {
	f       *os.File
	inj     *chaos.Injector
	onFsync func(time.Duration)

	mu      sync.Mutex
	pending []byte        // guarded by mu
	waiters []chan error  // guarded by mu
	closed  bool          // guarded by mu
	kick    chan struct{} // immutable after Open; sends race-free by design
	flushed chan struct{} // immutable after Open; closed when the flusher exits
	syncs   int64         // guarded by mu
}

// Replay is what Open recovered from an existing journal file.
type Replay struct {
	// Records is every valid record, in append order.
	Records []Record
	// TornBytes is how many trailing bytes were dropped as a torn tail
	// (0 for a cleanly closed journal).
	TornBytes int64
}

// Open opens (creating if absent) the journal at path, replays it, and
// truncates any torn tail. The returned Journal is ready for Append.
func Open(path string, opts Options) (*Journal, *Replay, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	rep, valid, err := scan(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{
		f:       f,
		inj:     opts.Inject,
		onFsync: opts.OnFsync,
		kick:    make(chan struct{}, 1),
		flushed: make(chan struct{}),
	}
	go j.flusher()
	return j, rep, nil
}

// ReadAll replays the journal at path read-only — the inspection entry
// point for tests and tooling. The file is not truncated.
func ReadAll(path string) (*Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	rep, _, err := scan(f)
	return rep, err
}

// scan decodes records from the start of f, stopping at the first short or
// corrupt record. It returns the replay and the byte offset of the valid
// prefix.
func scan(f *os.File) (*Replay, int64, error) {
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: reading: %w", err)
	}
	rep := &Replay{}
	off := 0
	for {
		rest := raw[off:]
		if len(rest) == 0 {
			break
		}
		if len(rest) < 8 {
			rep.TornBytes = int64(len(rest))
			break
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if n > maxRecordLen || len(rest) < 8+int(n) {
			rep.TornBytes = int64(len(rest))
			break
		}
		payload := rest[8 : 8+n]
		if crc32.Checksum(payload, crcTable) != crc {
			rep.TornBytes = int64(len(rest))
			break
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			// A checksummed record that fails to decode is a format bug,
			// not a torn tail — surface it.
			return nil, 0, fmt.Errorf("%w %d at offset %d: %w", ErrBadRecord, len(rep.Records), off, err)
		}
		rep.Records = append(rep.Records, rec)
		off += 8 + int(n)
	}
	return rep, int64(off), nil
}

// appendFrame encodes rec into buf in the journal's framing.
func appendFrame(buf []byte, rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return buf, fmt.Errorf("journal: encoding record: %w", err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...), nil
}

// Append durably logs rec: it returns nil only after rec (and every record
// appended before it) is written and fsynced. Concurrent appends share
// fsync batches.
func (j *Journal) Append(rec *Record) error {
	if rec.Unix == 0 {
		rec.Unix = time.Now().UnixNano()
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	var err error
	j.pending, err = appendFrame(j.pending, rec)
	if err != nil {
		j.mu.Unlock()
		return err
	}
	ch := make(chan error, 1)
	j.waiters = append(j.waiters, ch)
	j.mu.Unlock()
	select {
	case j.kick <- struct{}{}:
	default:
	}
	return <-ch
}

// flusher is the single goroutine that writes and fsyncs pending batches.
// It exits after a grab that observes the closed flag: the closed flag is
// set under mu before Close's kick, and Append refuses once it is set, so
// that final grab necessarily contains every acked-pending record.
func (j *Journal) flusher() {
	defer close(j.flushed)
	for {
		<-j.kick
		j.mu.Lock()
		batch, waiters := j.pending, j.waiters
		j.pending, j.waiters = nil, nil
		closed := j.closed
		j.mu.Unlock()
		if len(batch) > 0 {
			err := j.flushBatch(batch)
			for _, ch := range waiters {
				ch <- err
			}
		}
		if closed {
			return
		}
	}
}

// flushBatch writes one batch and fsyncs, honouring the chaos plan: a
// planned crash here exits before any byte reaches the file (the un-acked
// batch is lost, as a real pre-write crash would lose it), and a planned
// torn crash persists only a prefix of the batch — the torn tail replay
// must tolerate.
func (j *Journal) flushBatch(batch []byte) error {
	switch j.inj.At(chaos.JournalBeforeFsync) {
	case chaos.ActCrashTorn:
		if _, err := j.f.Write(batch[:len(batch)/2]); err == nil {
			j.f.Sync()
		}
		j.inj.Exit()
	}
	start := time.Now()
	if _, err := j.f.Write(batch); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.mu.Lock()
	j.syncs++
	j.mu.Unlock()
	if j.onFsync != nil {
		j.onFsync(time.Since(start))
	}
	return nil
}

// Syncs reports how many fsync batches have completed.
func (j *Journal) Syncs() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncs
}

// Close flushes pending records and closes the file. Appends racing Close
// may get ErrClosed. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		<-j.flushed
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	select {
	case j.kick <- struct{}{}:
	default:
	}
	<-j.flushed
	return j.f.Close()
}
