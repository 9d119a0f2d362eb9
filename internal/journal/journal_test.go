package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

func openT(t *testing.T, path string) (*Journal, *Replay) {
	t.Helper()
	j, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return j, rep
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, rep := openT(t, path)
	if len(rep.Records) != 0 || rep.TornBytes != 0 {
		t.Fatalf("fresh journal replayed %+v", rep)
	}
	want := []Record{
		{Type: TypeAccepted, JobID: "j1", Digest: "d1", Request: []byte(`{"x":1}`)},
		{Type: TypeLeased, JobID: "j1", Digest: "d1", Attempt: 1, Worker: "w0"},
		{Type: TypeDone, JobID: "j1", Digest: "d1", Result: []byte(`{"y":2}`)},
	}
	for i := range want {
		rec := want[i]
		if err := j.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rep2, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Records) != len(want) || rep2.TornBytes != 0 {
		t.Fatalf("replayed %d records, %d torn bytes; want %d, 0", len(rep2.Records), rep2.TornBytes, len(want))
	}
	for i, got := range rep2.Records {
		got.Unix = 0 // Append stamps it
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("record %d = %+v, want %+v", i, got, want[i])
		}
	}

	// Reopen for appending: old records replayed, new ones go after them.
	j2, rep3 := openT(t, path)
	if len(rep3.Records) != len(want) {
		t.Fatalf("reopen replayed %d records, want %d", len(rep3.Records), len(want))
	}
	if err := j2.Append(&Record{Type: TypeAccepted, JobID: "j2"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	rep4, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep4.Records) != len(want)+1 || rep4.Records[3].JobID != "j2" {
		t.Fatalf("after reopen+append got %d records (last %+v)", len(rep4.Records), rep4.Records[len(rep4.Records)-1])
	}
}

// writeRecords builds a journal with n records and returns its bytes and the
// offsets of each record boundary.
func writeRecords(t *testing.T, path string, n int) ([]byte, []int64) {
	t.Helper()
	j, _ := openT(t, path)
	for i := 0; i < n; i++ {
		if err := j.Append(&Record{Type: TypeAccepted, JobID: fmt.Sprintf("j%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	off := int64(0)
	for off < int64(len(raw)) {
		offs = append(offs, off)
		n := binary.LittleEndian.Uint32(raw[off : off+4])
		off += 8 + int64(n)
	}
	offs = append(offs, off) // end
	return raw, offs
}

func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.wal")
	raw, offs := writeRecords(t, base, 3)

	// Cut the file at every byte position inside the last record (torn
	// header, torn payload) and verify replay keeps exactly the prefix.
	last := offs[2]
	for cut := last + 1; cut < int64(len(raw)); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.wal", cut))
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := ReadAll(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(rep.Records) != 2 || rep.TornBytes != cut-last {
			t.Fatalf("cut %d: %d records, %d torn bytes; want 2, %d", cut, len(rep.Records), rep.TornBytes, cut-last)
		}
	}

	// Open (not ReadAll) must truncate the torn tail and keep appending.
	path := filepath.Join(dir, "truncate.wal")
	if err := os.WriteFile(path, raw[:last+5], 0o644); err != nil {
		t.Fatal(err)
	}
	j, rep := openT(t, path)
	if len(rep.Records) != 2 || rep.TornBytes != 5 {
		t.Fatalf("open replayed %d records, %d torn; want 2, 5", len(rep.Records), rep.TornBytes)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != last {
		t.Fatalf("after open size = %v (err %v), want %d", fi.Size(), err, last)
	}
	if err := j.Append(&Record{Type: TypeDone, JobID: "after"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	rep2, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Records) != 3 || rep2.Records[2].JobID != "after" || rep2.TornBytes != 0 {
		t.Fatalf("after truncate+append replay = %d records torn %d", len(rep2.Records), rep2.TornBytes)
	}
}

func TestCorruptChecksumStopsReplay(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.wal")
	raw, offs := writeRecords(t, base, 3)

	// Flip one payload byte of the second record: replay keeps record 0 only
	// (everything from the corrupt record on is discarded as torn).
	corrupt := append([]byte(nil), raw...)
	corrupt[offs[1]+8] ^= 0xff
	path := filepath.Join(dir, "corrupt.wal")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 1 || rep.TornBytes != int64(len(raw))-offs[1] {
		t.Fatalf("corrupt replay = %d records, %d torn; want 1, %d", len(rep.Records), rep.TornBytes, int64(len(raw))-offs[1])
	}

	// An absurd length header is corruption, not an allocation request.
	huge := append([]byte(nil), raw[:offs[1]]...)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<30)
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(nil, crcTable))
	huge = append(huge, hdr[:]...)
	path2 := filepath.Join(dir, "huge.wal")
	if err := os.WriteFile(path2, huge, 0o644); err != nil {
		t.Fatal(err)
	}
	rep2, err := ReadAll(path2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Records) != 1 || rep2.TornBytes != 8 {
		t.Fatalf("huge-length replay = %d records, %d torn; want 1, 8", len(rep2.Records), rep2.TornBytes)
	}
}

func TestConcurrentAppendsShareFsyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := openT(t, path)
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := j.Append(&Record{Type: TypeAccepted, JobID: fmt.Sprintf("j%d", i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	syncs := j.Syncs()
	if syncs < 1 || syncs > n {
		t.Fatalf("syncs = %d, want within [1, %d]", syncs, n)
	}
	j.Close()
	rep, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != n {
		t.Fatalf("replayed %d records, want %d", len(rep.Records), n)
	}
	seen := make(map[string]bool)
	for _, r := range rep.Records {
		if seen[r.JobID] {
			t.Fatalf("duplicate record %q", r.JobID)
		}
		seen[r.JobID] = true
	}
	t.Logf("%d concurrent appends used %d fsyncs", n, syncs)
}

func TestCloseSemantics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := openT(t, path)
	if err := j.Append(&Record{Type: TypeAccepted, JobID: "j0"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := j.Append(&Record{Type: TypeDone, JobID: "j0"}); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	rep, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 1 {
		t.Fatalf("replayed %d records, want 1", len(rep.Records))
	}
}

func TestOnFsyncObserved(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	var mu sync.Mutex
	var calls int
	j, _, err := Open(path, Options{OnFsync: func(d time.Duration) {
		mu.Lock()
		calls++
		mu.Unlock()
		if d < 0 {
			t.Errorf("negative fsync latency %v", d)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(&Record{Type: TypeAccepted, JobID: fmt.Sprintf("j%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	mu.Lock()
	defer mu.Unlock()
	if calls < 1 {
		t.Fatalf("OnFsync never called")
	}
}

// FuzzJournalReplay writes arbitrary bytes as a journal file and replays
// it. ReadAll must never panic; it either returns ErrBadRecord or accounts
// for every byte, the valid prefix plus TornBytes making up the file. Open
// must then recover the same records and truncate the file to that prefix.
// The seeds are real frames, whole and cut the ways a crash cuts them: the
// torn fault writes half a batch, and a header or payload can end anywhere.
func FuzzJournalReplay(f *testing.F) {
	var frames []byte
	var ends []int
	for _, rec := range []Record{
		{Type: TypeAccepted, JobID: "j1", Digest: "d1", Unix: 1, Request: []byte(`{"n":4}`)},
		{Type: TypeLeased, JobID: "j1", Attempt: 1, Worker: "w1", Deadline: 9},
		{Type: TypeDone, JobID: "j1", Result: []byte(`{"weight":12}`)},
		{Type: TypeFailed, JobID: "j2", Error: "bad input"},
		{Type: TypeDead, JobID: "j3", Error: "lease expired"},
	} {
		var err error
		if frames, err = appendFrame(frames, &rec); err != nil {
			f.Fatal(err)
		}
		ends = append(ends, len(frames))
	}
	f.Add([]byte{})
	f.Add(frames)
	f.Add(frames[:len(frames)/2]) // a torn batch
	f.Add(frames[:ends[1]+5])     // a torn header
	f.Add(frames[:ends[2]-1])     // a torn payload
	flipped := slices.Clone(frames)
	flipped[ends[0]+8] ^= 0xff // a payload that fails its checksum
	f.Add(flipped)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<30)
	f.Add(append(slices.Clone(frames[:ends[0]]), hdr[:]...)) // an absurd length
	notJSON := []byte("not json")
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(notJSON)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(notJSON, crcTable))
	f.Add(append(append(slices.Clone(frames[:ends[0]]), hdr[:]...), notJSON...))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := ReadAll(path)
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("untyped replay error: %v", err)
			}
			return
		}
		valid := 0
		for range rep.Records {
			valid += 8 + int(binary.LittleEndian.Uint32(data[valid:]))
		}
		if int64(valid)+rep.TornBytes != int64(len(data)) {
			t.Fatalf("%d valid + %d torn bytes, file has %d", valid, rep.TornBytes, len(data))
		}
		j, opened, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if !reflect.DeepEqual(opened, rep) {
			t.Fatalf("Open replayed %+v, ReadAll %+v", opened, rep)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(valid) {
			t.Fatalf("Open left %v bytes (err %v), want the %d valid", fi.Size(), err, valid)
		}
	})
}
