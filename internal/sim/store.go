package sim

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/frame"
)

// Key identifies one shard simulation in the on-disk result store.
// Every field that influences the simulated counters participates, so
// a key collision means the cached result is genuinely reusable:
// predictor configuration, workload identity (trace name + generator
// seed), branch budget, shard coordinates and warm-up length, the
// sharding mode (exact boundary-snapshot chaining versus functional
// warm-up), and the engine version
// (bumped whenever simulation or generation semantics change).
type Key struct {
	Engine int    `json:"engine"`
	Config string `json:"config"`
	Suite  string `json:"suite"`
	Trace  string `json:"trace"`
	Budget int    `json:"budget"`
	Seed   uint64 `json:"seed"`
	Shard  int    `json:"shard"`
	Shards int    `json:"shards"`
	Warmup int    `json:"warmup"`
	Exact  bool   `json:"exact"`
}

// SnapKey identifies one predictor-state snapshot: the full table
// state of Config's predictor after simulating exactly Pos records of
// the (Trace, Seed) stream from record 0 (DESIGN.md §8). Budget is
// deliberately absent — stream prefixes are budget-stable, so a
// snapshot taken at the end of a 25K-budget run resumes any
// longer-budget run of the same configuration and trace.
type SnapKey struct {
	Engine int    `json:"engine"`
	Config string `json:"config"`
	Suite  string `json:"suite"`
	Trace  string `json:"trace"`
	Seed   uint64 `json:"seed"`
	Pos    int    `json:"pos"`
}

// Store is the on-disk cache of the engine, holding two entry kinds:
// per-shard results and predictor-state snapshots. Entries live in
// append-only segment files under a per-engine-version directory, so
// bumping EngineVersion orphans — and Prune can delete — every stale
// entry:
//
//	<dir>/v<N>/seg/<unique>.seg   entries, one internal/frame frame each
//	<dir>/streams/v<N>/           spilled streams (see workload)
//
// Each Store appends to one segment of its own, chosen on its first
// save: a segment no writer has appended to for claimAfter (10 s) is
// claimed by renaming it, and only when there is none is a new one
// created, so the number of segments follows how many Stores write at
// once, not how many ever did. A frame's payload is [kind][u32 key
// length][key JSON][data]. An in-memory index maps each entry's id —
// its kind and key JSON — to the frame that holds it. On a miss the
// Store rescans the segments of other writers (other Stores or
// processes sharing the directory): one directory listing and one stat
// per segment, and only a segment that grew is read, from where the
// last scan stopped up to its first short frame, so a torn tail reads
// as a miss until its writer completes it. A scan reads frame headers
// and keys, not payloads, so opening a filled cache costs per frame,
// not per byte. Every load re-reads its frame and checks the checksum
// and the exact key bytes; a frame that fails is dropped from the
// index, so the load is a miss, the item is simulated again, and the
// fresh append supersedes the bad frame. All methods are safe for
// concurrent use; the Store holds no open file between calls and needs
// no Close.
type Store struct {
	dir string

	// wmu serializes appends: it guards buf, the reused frame buffer,
	// and own, this Store's segment per engine version.
	wmu sync.Mutex
	buf []byte
	own map[int]*segment

	// scanMu serializes rescans of other writers' segments.
	scanMu sync.Mutex

	// mu guards the index, the segment table and the segments' fields.
	mu     sync.Mutex
	index  map[string]loc          // entry id → frame
	groups map[string]map[int]bool // snapshot group id → positions
	segs   map[string]*segment
}

// segment is one segment file and how far the Store has indexed it.
type segment struct {
	path string
	end  int64 // offset past the last indexed frame
	own  bool  // written by this Store, indexed as it appends
}

// loc addresses one frame: its segment, offset and size with header.
type loc struct {
	path string
	off  int64
	n    int
}

// Frame payload kinds. An entry's id, which the index is keyed by, is
// its kind followed by its canonical key encoding: exactly the bytes
// its frame holds before the data, less the key length.
const (
	kindResult = 'r'
	kindSnap   = 's'
)

const (
	// maxEntry bounds a segment frame's payload. The largest registry
	// snapshot is under 70 KB; the bound leaves room for far larger
	// predictors while keeping a corrupt length field from forcing a
	// huge allocation.
	maxEntry = 64 << 20
	// maxKey bounds a frame's key encoding, so a scan finds every key
	// in the first entryHead bytes of its frame without reading the
	// data. Keys are a few hundred bytes.
	maxKey    = 1 << 10
	entryHead = 5 + maxKey
	// claimAfter is how long a segment's writer must have been idle
	// before another Store claims the segment. Claiming a segment whose
	// writer is still alive costs only a miss or a retried append (see
	// append and fetch), so the wait just keeps busy writers apart.
	claimAfter = 10 * time.Second
)

// errBadFrame reports a frame that fails its checksum or holds another
// entry than the one asked for.
var errBadFrame = errors.New("sim: store frame fails its checks")

// OpenStore returns a store rooted at dir. The directory is created
// lazily on first save, so opening never fails; a missing or unwritable
// directory degrades to cache misses.
func OpenStore(dir string) *Store {
	return &Store{
		dir:    dir,
		own:    map[int]*segment{},
		index:  map[string]loc{},
		groups: map[string]map[int]bool{},
		segs:   map[string]*segment{},
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func versionDir(v int) string { return fmt.Sprintf("v%d", v) }

func (s *Store) segDir(version int) string {
	return filepath.Join(s.dir, versionDir(version), "seg")
}

// encodeKey is the canonical key encoding, stored in every frame and
// compared byte for byte on load. It is the key's JSON form: every
// string field is quoted and escaped, so no two distinct keys share an
// encoding. (A naive separator-joined encoding was ambiguous: config
// "a|b" with suite "c" collided with config "a", suite "b|c".
// EngineVersion 2 retired it.)
func encodeKey(k any) []byte {
	b, err := json.Marshal(k)
	if err != nil {
		// Keys are structs of ints, strings and bools; Marshal cannot fail.
		panic(fmt.Sprintf("sim: key encoding: %v", err))
	}
	return b
}

// entryID returns the id of the entry of the given kind under key k.
func entryID(kind byte, k any) string {
	return string(append([]byte{kind}, encodeKey(k)...))
}

// snapGroup splits a snapshot entry id into the id of its (engine,
// config, suite, trace, seed) group and its stream position: Pos is
// the last field of SnapKey, so the group id is the entry id up to it.
func snapGroup(id string) (group string, pos int, ok bool) {
	i := strings.LastIndex(id, `,"pos":`)
	if i < 0 || id[0] != kindSnap {
		return "", 0, false
	}
	pos, err := strconv.Atoi(strings.TrimSuffix(id[i+len(`,"pos":`):], "}"))
	return id[:i], pos, err == nil
}

// Load returns the cached result for the key. A missing entry (or an
// injected "sim/store.load" fault) reads as a plain cache miss; an
// entry that cannot be trusted — a failed checksum, a key mismatch,
// unparsable data — is dropped from the index and reads as a miss.
func (s *Store) Load(k Key) (Result, bool) {
	if faultinject.Err("sim/store.load") != nil {
		return Result{}, false
	}
	var r Result
	if _, ok := s.fetch(k.Engine, entryID(kindResult, k), func(data []byte) bool { return json.Unmarshal(data, &r) == nil }); !ok {
		return Result{}, false
	}
	return r, true
}

// Save appends the result under the key. The "sim/store.save" fault
// point injects write failures; callers already treat Save as
// best-effort.
func (s *Store) Save(k Key, r Result) error {
	if err := faultinject.Err("sim/store.save"); err != nil {
		return err
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return s.append(k.Engine, entryID(kindResult, k), data)
}

// SaveSnapshot appends a snapshot payload under the key. The payload
// is opaque to the store (the engine encodes partial counters plus the
// predictor state through internal/snap).
func (s *Store) SaveSnapshot(k SnapKey, payload []byte) error {
	if err := faultinject.Err("sim/store.savesnap"); err != nil {
		return err
	}
	return s.append(k.Engine, entryID(kindSnap, k), payload)
}

// LoadSnapshot returns the snapshot payload for the key. A missing
// entry (or an injected "sim/store.loadsnap" fault) reads as a cache
// miss; a snapshot whose frame fails its checks is dropped from the
// index like a bad result, so resume stops retrying a poisoned
// position and a later run rewrites it.
func (s *Store) LoadSnapshot(k SnapKey) ([]byte, bool) {
	if faultinject.Err("sim/store.loadsnap") != nil {
		return nil, false
	}
	return s.fetch(k.Engine, entryID(kindSnap, k), nil)
}

// HasSnapshot reports whether the index holds a snapshot for the key
// (used to keep repeated saves idempotent).
func (s *Store) HasSnapshot(k SnapKey) bool {
	id := entryID(kindSnap, k)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[id]
	return ok
}

// SnapshotPositions lists the stream positions with a stored snapshot
// for the key's (engine, config, suite, trace, seed) group, sorted
// descending — resume wants the longest usable prefix first. The
// key's own Pos field is ignored. An empty group is a miss and
// rescans other writers' segments first.
func (s *Store) SnapshotPositions(k SnapKey) []int {
	g, _, _ := snapGroup(entryID(kindSnap, k))
	positions := func() []int {
		s.mu.Lock()
		defer s.mu.Unlock()
		var out []int
		for pos := range s.groups[g] {
			out = append(out, pos)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(out)))
		return out
	}
	if out := positions(); len(out) > 0 {
		return out
	}
	s.rescan(k.Engine)
	return positions()
}

// put indexes the frame at l under the entry id. Callers hold mu.
func (s *Store) put(id string, l loc) {
	s.index[id] = l
	if g, pos, ok := snapGroup(id); ok {
		if s.groups[g] == nil {
			s.groups[g] = map[int]bool{}
		}
		s.groups[g][pos] = true
	}
}

// drop removes the entry id from the index if it still points at the
// frame at l.
func (s *Store) drop(id string, l loc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.index[id] != l {
		return
	}
	delete(s.index, id)
	if g, pos, ok := snapGroup(id); ok {
		delete(s.groups[g], pos)
	}
}

// lookup finds the entry id in the index; on a miss it rescans the
// version's segments of other writers and looks again.
func (s *Store) lookup(version int, id string) (loc, bool) {
	s.mu.Lock()
	l, ok := s.index[id]
	s.mu.Unlock()
	if ok {
		return l, true
	}
	s.rescan(version)
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok = s.index[id]
	return l, ok
}

// fetch looks the entry id up and re-reads its frame, returning the
// frame's data if the frame is intact, holds exactly the entry id, and
// passes valid (when non-nil). A frame whose segment has gone — another
// Store claimed it under a new name — is looked up again after a
// rescan; a frame that fails is dropped from the index.
func (s *Store) fetch(version int, id string, valid func([]byte) bool) ([]byte, bool) {
	l, ok := s.lookup(version, id)
	if !ok {
		return nil, false
	}
	data, err := read(l, id)
	if errors.Is(err, fs.ErrNotExist) {
		s.rescan(version)
		s.mu.Lock()
		moved, ok := s.index[id]
		s.mu.Unlock()
		if ok && moved != l {
			l = moved
			data, err = read(l, id)
		}
	}
	if err != nil || valid != nil && !valid(data) {
		s.drop(id, l)
		return nil, false
	}
	return data, true
}

// read re-reads the frame at l and returns its data if the frame is
// intact and holds exactly the entry id.
func read(l loc, id string) ([]byte, error) {
	f, err := os.Open(l.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := make([]byte, l.n)
	if _, err := f.ReadAt(b, l.off); err != nil {
		return nil, err
	}
	payload, ok := frame.Parse(b)
	if !ok {
		return nil, errBadFrame
	}
	kind, key, data, ok := splitEntry(payload)
	if !ok || kind != id[0] || string(key) != id[1:] {
		return nil, errBadFrame
	}
	return data, nil
}

// splitEntry splits a frame payload into kind, key encoding and data.
// On a payload cut short after the key (a scan's head), data is what
// is left of it.
func splitEntry(p []byte) (kind byte, key, data []byte, ok bool) {
	if len(p) < 5 {
		return 0, nil, nil, false
	}
	n := binary.LittleEndian.Uint32(p[1:])
	if int64(n) > int64(len(p)-5) {
		return 0, nil, nil, false
	}
	return p[0], p[5 : 5+n], p[5+n:], true
}

// append writes one entry frame to this Store's segment of the
// version in a single write, then indexes it. A failed write abandons
// the segment, whose tail may now be torn; the next save starts
// another. A segment that is gone because another Store claimed it is
// no failure: the frame is written again to a new segment.
func (s *Store) append(version int, id string, data []byte) error {
	if len(id)-1 > maxKey {
		return fmt.Errorf("sim: store key of %d bytes exceeds the %d-byte bound", len(id)-1, maxKey)
	}
	if n := 4 + len(id) + len(data); n > maxEntry {
		return fmt.Errorf("sim: store entry of %d bytes exceeds the %d-byte bound", n, maxEntry)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	buf := frame.Begin(s.buf[:0])
	buf = append(buf, id[0])
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(id)-1))
	buf = append(buf, id[1:]...)
	buf = append(buf, data...)
	frame.End(buf, 0)
	s.buf = buf
	for retried := false; ; retried = true {
		seg := s.own[version]
		if seg == nil {
			var err error
			if seg, err = s.newSegment(version); err != nil {
				return err
			}
		}
		end, err := appendFile(seg.path, buf)
		if err == nil {
			s.mu.Lock()
			seg.end = end
			s.put(id, loc{path: seg.path, off: end - int64(len(buf)), n: len(buf)})
			s.mu.Unlock()
			return nil
		}
		delete(s.own, version)
		s.mu.Lock()
		seg.own = false
		s.mu.Unlock()
		if retried || !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
}

// appendFile appends b to the file at path in one write and returns
// the file's size after it. The file is opened O_APPEND, so b lands at
// the end even if another writer appended since this one last did,
// and b starts at the returned size minus len(b).
func appendFile(path string, b []byte) (int64, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return 0, err
	}
	_, err = f.Write(b)
	end, serr := f.Seek(0, io.SeekCurrent)
	if cerr := f.Close(); err == nil {
		err = cmp.Or(serr, cerr)
	}
	return end, err
}

// newSegment starts this Store's segment of the version: an idle
// segment if it can claim one, else a new, empty one. Claiming renames
// the idle segment over a freshly created unique name, so of several
// Stores racing for one segment exactly one rename succeeds, and the
// losers keep their empty segment. The claimed segment is indexed, and
// a torn tail is cut off so appends follow its last intact frame.
// Callers hold wmu.
func (s *Store) newSegment(version int) (*segment, error) {
	dir := s.segDir(version)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "*.seg")
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	seg := &segment{path: f.Name(), own: true}
	// The new file's modification time is the file system's "now", so
	// idleness never compares two clocks.
	now := info.ModTime()
	if idle := s.idleSegment(dir, now); idle != "" && os.Rename(idle, seg.path) == nil {
		_ = os.Chtimes(seg.path, now, now) // busy again, not claimable
		var size int64
		if seg.end, size = s.indexFrom(seg.path, 0); seg.end < size {
			_ = os.Truncate(seg.path, seg.end)
		}
		s.mu.Lock()
		delete(s.segs, idle)
		s.mu.Unlock()
	}
	s.own[version] = seg
	s.mu.Lock()
	s.segs[seg.path] = seg // over any entry a rescan made for the file
	s.mu.Unlock()
	return seg, nil
}

// idleSegment returns a segment of dir, other than this Store's own,
// that no writer has appended to for claimAfter before now, or "" if
// there is none.
func (s *Store) idleSegment(dir string, now time.Time) string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return ""
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		s.mu.Lock()
		seg := s.segs[path]
		mine := seg != nil && seg.own
		s.mu.Unlock()
		if info, err := e.Info(); err == nil && !mine && now.Sub(info.ModTime()) >= claimAfter {
			return path
		}
	}
	return ""
}

// rescan indexes the frames other writers appended to the version's
// segments since the last scan, and forgets the segments that are gone.
func (s *Store) rescan(version int) {
	s.scanMu.Lock()
	defer s.scanMu.Unlock()
	dir := s.segDir(version)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	listed := make(map[string]bool, len(ents))
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		listed[path] = true
		s.mu.Lock()
		seg := s.segs[path]
		if seg == nil {
			seg = &segment{path: path}
			s.segs[path] = seg
		}
		own, from := seg.own, seg.end
		s.mu.Unlock()
		if own {
			continue
		}
		// One stat per segment; only a segment that grew is opened.
		if info, err := e.Info(); err != nil || info.Size() <= from {
			continue
		}
		end, _ := s.indexFrom(path, from)
		s.mu.Lock()
		seg.end = end
		s.mu.Unlock()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	maps.DeleteFunc(s.segs, func(path string, seg *segment) bool {
		return !seg.own && filepath.Dir(path) == dir && !listed[path]
	})
}

// indexFrom indexes the entry frames of the segment at path from off up
// to its first short frame, reading frame headers and keys only (loads
// check each frame's checksum), and returns the offset past the last
// frame and the segment's size. A frame that is not a well-formed entry
// (unknown kind, key length past the frame) is skipped; one whose key
// is not a canonical key encoding is indexed under an id no lookup
// asks for.
func (s *Store) indexFrom(path string, off int64) (end, size int64) {
	f, err := os.Open(path)
	if err != nil {
		return off, off
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return off, off
	}
	var id []byte
	end, _ = frame.Walk(f, off, info.Size(), maxEntry, entryHead, func(at int64, n int, head []byte) bool {
		if kind, key, _, ok := splitEntry(head); ok && (kind == kindResult || kind == kindSnap) {
			id = append(append(id[:0], kind), key...)
			s.mu.Lock()
			s.put(string(id), loc{path: path, off: at, n: frame.HeaderSize + n})
			s.mu.Unlock()
		}
		return true
	})
	return end, info.Size()
}

// PruneStats reports what Prune removed.
type PruneStats struct {
	// Files and Bytes count the removed cache entries.
	Files int
	Bytes int64
	// Dirs counts the removed directory trees: stale v<k> version
	// directories, stale streams/v<k> spill directories, legacy flat
	// fan-out directories from engine versions ≤ 2, and the current
	// version's file-per-entry directories from before segments.
	Dirs int
}

// Prune deletes every cache entry a Store can no longer read: entries
// written under an engine version other than keep (results and
// snapshots under v<k>/, spilled streams under streams/v<k>/), entries
// from the pre-versioned flat layout of engine versions ≤ 2, and the
// current version's file-per-entry layout from before segments
// (v<keep>/<2-hex>/ result files and v<keep>/snap/, each only if its
// contents match that layout). Without pruning,
// every EngineVersion bump strands the previous version's entries on
// disk forever. Callers pass EngineVersion. Concurrent engines writing
// the current version are unaffected: its segments are never touched.
func (s *Store) Prune(keep int) (PruneStats, error) {
	var st PruneStats
	if s.dir == "" {
		return st, nil
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return st, err
	}
	keepName := versionDir(keep)
	var firstErr error
	rm := func(path string) {
		files, bytes := duDir(path)
		if err := os.RemoveAll(path); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		st.Files += files
		st.Bytes += bytes
		st.Dirs++
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case name == "streams" && e.IsDir():
			subs, err := os.ReadDir(filepath.Join(s.dir, "streams"))
			if err != nil {
				continue
			}
			for _, sub := range subs {
				if sub.IsDir() && isStaleVersionDir(sub.Name(), keepName) {
					rm(filepath.Join(s.dir, "streams", sub.Name()))
				}
			}
		case e.IsDir() && isStaleVersionDir(name, keepName):
			rm(filepath.Join(s.dir, name))
		case e.IsDir() && name == keepName:
			subs, err := os.ReadDir(filepath.Join(s.dir, name))
			if err != nil {
				continue
			}
			for _, sub := range subs {
				p := filepath.Join(s.dir, name, sub.Name())
				if sub.IsDir() && (isLegacySnapDir(p) || isLegacyFanoutDir(p)) {
					rm(p)
				}
			}
		case e.IsDir() && isLegacyFanoutDir(filepath.Join(s.dir, name)):
			// Engine versions ≤ 2 fanned result files directly under
			// the root as <2-hex-digit>/ directories; those entries can
			// never be addressed again. The content check guards users
			// who point -cache-dir at a non-dedicated directory that
			// happens to contain an unrelated two-hex-named folder.
			rm(filepath.Join(s.dir, name))
		}
	}
	return st, firstErr
}

// isStaleVersionDir reports whether name is a v<digits> directory
// other than the current one.
func isStaleVersionDir(name, keepName string) bool {
	if name == keepName || len(name) < 2 || name[0] != 'v' {
		return false
	}
	_, err := strconv.Atoi(name[1:])
	return err == nil
}

// isLegacyFanoutDir reports whether path is a result fan-out directory
// of the file-per-entry store layout: a two-hex-digit name holding only
// regular files named <62-hex-digits>.json (the id remainder after the
// 2-digit fan-out), their quarantined .json.bad copies, or .tmp-*
// leftovers. Anything else means the directory is not ours to delete —
// a two-hex name alone (db/, ad/, f0/) is not proof when the cache dir
// is shared with unrelated data.
func isLegacyFanoutDir(path string) bool {
	if name := filepath.Base(path); len(name) != 2 || !isHex(name) {
		return false
	}
	return holdsOnly(path, func(e fs.DirEntry) bool {
		rest, ok := strings.CutSuffix(strings.TrimSuffix(e.Name(), ".bad"), ".json")
		return !e.IsDir() && ok && len(rest) == 62 && isHex(rest)
	})
}

// isLegacySnapDir reports whether path is the snapshot directory of the
// file-per-entry layout, by the same kind of content check: snap/
// holding only <64-hex-digit> group directories, each holding only
// regular files named <pos>.snap, their quarantined .snap.bad copies,
// or .tmp-* leftovers.
func isLegacySnapDir(path string) bool {
	return filepath.Base(path) == "snap" && holdsOnly(path, func(g fs.DirEntry) bool {
		return g.IsDir() && len(g.Name()) == 64 && isHex(g.Name()) &&
			holdsOnly(filepath.Join(path, g.Name()), func(e fs.DirEntry) bool {
				pos, ok := strings.CutSuffix(strings.TrimSuffix(e.Name(), ".bad"), ".snap")
				_, err := strconv.Atoi(pos)
				return !e.IsDir() && ok && err == nil
			})
	})
}

// holdsOnly reports whether the directory at path can be read and each
// of its entries is a .tmp-* leftover file or passes ok.
func holdsOnly(path string, ok func(fs.DirEntry) bool) bool {
	ents, err := os.ReadDir(path)
	if err != nil {
		return false
	}
	for _, e := range ents {
		leftover := !e.IsDir() && strings.HasPrefix(e.Name(), ".tmp-")
		if !leftover && !ok(e) {
			return false
		}
	}
	return true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// duDir counts the regular files and bytes under path, best-effort.
func duDir(path string) (files int, bytes int64) {
	filepath.WalkDir(path, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			files++
			bytes += info.Size()
		}
		return nil
	})
	return
}
