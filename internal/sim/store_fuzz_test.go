package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/frame"
)

// FuzzStoreSegment feeds arbitrary bytes to the store as a segment
// written by another process. Indexing it must not panic and must not
// allocate past a fixed read window: a scan reads frame headers and
// keys only, and a corrupt length field is checked against the bytes
// the segment holds before anything is read. Every indexed entry must
// lie inside the segment and be indexed under the entry id its frame
// holds; and fetching it must serve exactly the frame's data when the
// frame is intact and holds that id, and otherwise miss and drop the
// entry from the index — a frame that fails its checksum is never
// served. The seed corpus in testdata/fuzz/FuzzStoreSegment holds a
// valid segment, one torn in its last frame, and one whose first frame
// claims a huge length.
func FuzzStoreSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		segDir := filepath.Join(dir, versionDir(EngineVersion), "seg")
		if err := os.MkdirAll(segDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(segDir, "other.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := OpenStore(dir)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.rescan(EngineVersion)
		runtime.ReadMemStats(&after)
		// The scan's read window and the per-frame key decoding.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(data)); alloc > limit {
			t.Fatalf("scanning a %d-byte segment allocated %d bytes (limit %d)", len(data), alloc, limit)
		}
		entries := map[string]loc{}
		for id, l := range s.index {
			entries[id] = l
		}
		for id, l := range entries {
			if l.off < 0 || l.off+int64(l.n) > int64(len(data)) {
				t.Fatalf("indexed frame %+v lies outside the %d-byte segment", l, len(data))
			}
			b := data[l.off : l.off+int64(l.n)]
			if kind, key, _, ok := splitEntry(b[frame.HeaderSize:]); !ok || string(kind)+string(key) != id {
				t.Fatalf("frame at offset %d is indexed under %q, not its own entry id", l.off, id)
			}
			payload, intact := frame.Parse(b)
			var want []byte
			if intact {
				_, key, rest, ok := splitEntry(payload)
				if intact = ok && string(key) == id[1:]; intact {
					want = rest
				}
			}
			got, hit := s.fetch(EngineVersion, id, nil)
			if hit != intact || hit && !bytes.Equal(got, want) {
				t.Fatalf("frame at offset %d (intact %v): fetch hit %v with %q, want %q", l.off, intact, hit, got, want)
			}
			if _, still := s.index[id]; !hit && still {
				t.Fatalf("frame at offset %d missed but stayed indexed", l.off)
			}
			// Loads go through fetch; exercise Load's decoding of the
			// data too.
			var k Key
			if id[0] == kindResult && json.Unmarshal([]byte(id[1:]), &k) == nil {
				s.Load(k)
			}
		}
	})
}
