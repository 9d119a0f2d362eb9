package store_test

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wire"
)

const fuzzDigest = "ab12cd34"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FuzzStoreEntry writes arbitrary bytes as the entry file of one digest and
// reads it back through Get with the server's decoder. Get must never
// panic. It serves a value only when the frame verifies (magic, version,
// length, CRC-32C) and the payload decodes, and the value is then the
// decoded payload. Anything else is a miss: Corrupt counts it and the file
// is removed. The seeds are a real Put entry and the ways a crash or bit
// rot breaks one.
func FuzzStoreEntry(f *testing.F) {
	resp, err := json.Marshal(wire.SolveResponse{
		Digest: fuzzDigest, Edges: []int{0, 2, 3}, Weight: 12, Rounds: 40,
		ResultDigest: "0123456789abcdef", SolveMillis: 1.5,
	})
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	s, err := store.Open(store.Options{Dir: dir, Decode: server.DecodeStoredResponse})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(fuzzDigest, resp, nil); err != nil {
		f.Fatal(err)
	}
	entry, err := os.ReadFile(filepath.Join(dir, fuzzDigest[:2], fuzzDigest))
	if err != nil {
		f.Fatal(err)
	}
	clone := func(b []byte) []byte { return append([]byte(nil), b...) }
	f.Add(entry)
	f.Add(entry[:7])            // a torn header
	f.Add(entry[:len(entry)-5]) // a torn payload
	badCRC := clone(entry)
	badCRC[len(badCRC)-1] ^= 0xff
	f.Add(badCRC)
	badVersion := clone(entry)
	badVersion[4] = 0x7f
	f.Add(badVersion)
	notJSON := []byte("not json")
	frame := clone(entry[:13])
	binary.LittleEndian.PutUint32(frame[5:9], uint32(len(notJSON)))
	binary.LittleEndian.PutUint32(frame[9:13], crc32.Checksum(notJSON, castagnoli))
	f.Add(append(frame, notJSON...)) // checksummed, but not a response

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, fuzzDigest[:2], fuzzDigest)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(store.Options{Dir: dir, Decode: server.DecodeStoredResponse})
		if err != nil {
			t.Fatal(err)
		}
		want, valid := verifyEntry(data)
		got, ok := s.Get(fuzzDigest)
		st := s.Stats()
		_, statErr := os.Stat(path)
		if valid {
			if !ok || !reflect.DeepEqual(got, want) || st.DiskHits != 1 || st.Corrupt != 0 || statErr != nil {
				t.Fatalf("valid entry: Get = %v, %v; stats %+v; file: %v", got, ok, st, statErr)
			}
			return
		}
		if ok {
			t.Fatalf("Get served %v from an entry that does not verify and decode", got)
		}
		if st.Corrupt != 1 || st.Misses != 1 || !errors.Is(statErr, os.ErrNotExist) {
			t.Fatalf("bad entry: stats %+v, file: %v; want one corrupt miss and the file removed", st, statErr)
		}
	})
}

// verifyEntry checks the entry framing independently of the store and
// decodes the payload: magic "kcas", the format version, the payload
// length and its CRC-32C.
func verifyEntry(b []byte) (any, bool) {
	if len(b) < 13 || string(b[:4]) != "kcas" || b[4] != store.FormatVersion {
		return nil, false
	}
	payload := b[13:]
	if binary.LittleEndian.Uint32(b[5:9]) != uint32(len(payload)) ||
		binary.LittleEndian.Uint32(b[9:13]) != crc32.Checksum(payload, castagnoli) {
		return nil, false
	}
	v, err := server.DecodeStoredResponse(payload)
	if err != nil {
		return nil, false
	}
	return v, true
}
