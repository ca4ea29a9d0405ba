package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/frame"
)

func testKey() Key {
	return Key{
		Engine: EngineVersion, Config: "tage-gsc+imli", Suite: "cbp4", Trace: "MM-4",
		Budget: 250000, Seed: 0xDEADBEEF, Shard: 3, Shards: 8, Warmup: 10000,
	}
}

func TestStoreSaveLoad(t *testing.T) {
	s := OpenStore(t.TempDir())
	k := testKey()
	want := Result{Trace: "MM-4", Predictor: "tage-gsc+imli", Instructions: 12345, Records: 999, Conditionals: 800, Mispredicted: 42}
	if _, ok := s.Load(k); ok {
		t.Fatal("empty store returned a result")
	}
	if err := s.Save(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(k)
	if !ok || got != want {
		t.Fatalf("Load = %+v, %v; want %+v", got, ok, want)
	}
}

func TestStoreKeySensitivity(t *testing.T) {
	// Every key field must change the content address.
	base := testKey()
	variants := []Key{base}
	for i, mut := range []func(*Key){
		func(k *Key) { k.Engine++ },
		func(k *Key) { k.Config = "tage-gsc" },
		func(k *Key) { k.Suite = "cbp3" },
		func(k *Key) { k.Trace = "MM-5" },
		func(k *Key) { k.Budget++ },
		func(k *Key) { k.Seed++ },
		func(k *Key) { k.Shard++ },
		func(k *Key) { k.Shards++ },
		func(k *Key) { k.Warmup++ },
		func(k *Key) { k.Exact = true },
	} {
		k := base
		mut(&k)
		variants = append(variants, k)
		_ = i
	}
	seen := map[string]int{}
	for i, k := range variants {
		enc := string(encodeKey(k))
		if prev, dup := seen[enc]; dup {
			t.Errorf("variants %d and %d share the key encoding %s", prev, i, enc)
		}
		seen[enc] = i
	}
}

// TestStoreSnapshotGroupIDs: a snapshot entry id splits into its group
// id and position, keys differing only in Pos share the group id, and
// a string field holding the position's field name cannot move the
// split.
func TestStoreSnapshotGroupIDs(t *testing.T) {
	k := SnapKey{Engine: EngineVersion, Config: "c", Suite: "cbp4", Trace: `MM-4,"pos":7}`, Seed: 9, Pos: 25000}
	g, pos, ok := snapGroup(entryID(kindSnap, k))
	if !ok || pos != k.Pos {
		t.Fatalf("snapGroup = %q, %d, %v; want position %d", g, pos, ok, k.Pos)
	}
	other := k
	other.Pos = 50000
	if g2, _, _ := snapGroup(entryID(kindSnap, other)); g2 != g {
		t.Errorf("positions of one group split into %q and %q", g, g2)
	}
	other = k
	other.Seed++
	if g2, _, _ := snapGroup(entryID(kindSnap, other)); g2 == g {
		t.Errorf("two seeds share the group id %q", g)
	}
	if _, _, ok := snapGroup(entryID(kindResult, testKey())); ok {
		t.Error("a result id split as a snapshot id")
	}
}

func TestStoreKeyEncodingUnambiguous(t *testing.T) {
	// The old '|'-joined encoding collided these two keys, letting one
	// entry overwrite the other's. The canonical encoding must keep
	// field boundaries.
	a := testKey()
	a.Config, a.Suite = "a|b", "c"
	b := testKey()
	b.Config, b.Suite = "a", "b|c"
	if string(encodeKey(a)) == string(encodeKey(b)) {
		t.Fatalf("ambiguous key encoding: %+v and %+v share %s", a, b, encodeKey(a))
	}

	s := OpenStore(t.TempDir())
	resA := Result{Trace: "MM-4", Mispredicted: 1}
	resB := Result{Trace: "MM-4", Mispredicted: 2}
	if err := s.Save(a, resA); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(b, resB); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Load(a); !ok || got != resA {
		t.Errorf("key a clobbered: %+v, %v", got, ok)
	}
	if got, ok := s.Load(b); !ok || got != resB {
		t.Errorf("key b clobbered: %+v, %v", got, ok)
	}
}

// id returns the entry id of a Key or SnapKey.
func id(k any) string {
	if _, ok := k.(SnapKey); ok {
		return entryID(kindSnap, k)
	}
	return entryID(kindResult, k)
}

// indexed returns the index entry of a Key or SnapKey.
func indexed(t *testing.T, s *Store, k any) loc {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.index[id(k)]
	if !ok {
		t.Fatalf("key %+v not indexed", k)
	}
	return l
}

// editFile rewrites a file through fn.
func editFile(t *testing.T, path string, fn func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// flipByte flips one byte of the frame at l, i bytes into the frame.
func flipByte(t *testing.T, l loc, i int) {
	t.Helper()
	editFile(t, l.path, func(b []byte) []byte { b[l.off+int64(i)] ^= 0xff; return b })
}

func TestStoreSaveFailsCleanlyOnUnwritableSegment(t *testing.T) {
	dir := t.TempDir()
	s := OpenStore(dir)
	k := testKey()
	// A file where the segment directory should be: creating the
	// segment fails. (chmod tricks don't work under root, and tests may
	// run as root in CI containers.)
	blocked := s.segDir(EngineVersion)
	if err := os.MkdirAll(filepath.Dir(blocked), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(k, Result{Trace: "MM-4"}); err == nil {
		t.Fatal("Save into a blocked segment directory succeeded")
	}
	if _, ok := s.Load(k); ok {
		t.Fatal("failed Save left a readable entry")
	}
	// Once the directory can be created, the same Store saves again.
	if err := os.Remove(blocked); err != nil {
		t.Fatal(err)
	}
	want := Result{Trace: "MM-4", Mispredicted: 5}
	if err := s.Save(k, want); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Load(k); !ok || got != want {
		t.Fatalf("Load after recovery = %+v, %v; want %+v", got, ok, want)
	}
}

func TestStoreRejectsCorruptEntry(t *testing.T) {
	s := OpenStore(t.TempDir())
	k := testKey()
	if err := s.Save(k, Result{Trace: "MM-4"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(indexed(t, s, k).path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(k); ok {
		t.Error("corrupt segment served as a hit")
	}
}

// dropped asserts a result key is no longer indexed, so the bad frame
// can never be read again.
func dropped(t *testing.T, s *Store, k Key) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[id(k)]; ok {
		t.Fatalf("bad frame of %+v still indexed", k)
	}
}

// TestStoreQuarantinesGarbageEntry: a flipped byte in a result frame
// fails its checksum; the load is a miss, the key leaves the index,
// and the next save makes it a hit again.
func TestStoreQuarantinesGarbageEntry(t *testing.T) {
	s := OpenStore(t.TempDir())
	k := testKey()
	if err := s.Save(k, Result{Trace: "MM-4"}); err != nil {
		t.Fatal(err)
	}
	l := indexed(t, s, k)
	flipByte(t, l, l.n-2)
	if _, ok := s.Load(k); ok {
		t.Fatal("frame with a flipped byte served as a hit")
	}
	dropped(t, s, k)
	// A fresh Store indexes the bad frame from its header and drops it
	// at its first load too.
	if _, ok := OpenStore(s.Dir()).Load(k); ok {
		t.Fatal("fresh Store served the corrupt frame")
	}
	// The key is usable again: a fresh Save round-trips.
	want := Result{Trace: "MM-4", Mispredicted: 7}
	if err := s.Save(k, want); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Load(k); !ok || got != want {
		t.Fatalf("Load after re-Save = %+v, %v; want %+v", got, ok, want)
	}
}

// TestStoreQuarantinesKeyMismatch: a frame whose stored key differs
// from the requested key is a miss, even when its checksum holds.
func TestStoreQuarantinesKeyMismatch(t *testing.T) {
	s := OpenStore(t.TempDir())
	a, b := testKey(), testKey()
	b.Budget++
	if err := s.Save(a, Result{Trace: "MM-4"}); err != nil {
		t.Fatal(err)
	}
	// Point b's index entry at a's (intact, self-describing) frame: the
	// key stored in the frame disagrees, so Load must drop rather than
	// trust it.
	s.mu.Lock()
	s.index[id(b)] = s.index[id(a)]
	s.mu.Unlock()
	if _, ok := s.Load(b); ok {
		t.Fatal("key-mismatched frame served as a hit")
	}
	dropped(t, s, b)
	if _, ok := s.Load(a); !ok {
		t.Fatal("the frame's own key stopped loading")
	}
}

// TestStoreSegmentTruncatedMidFrame: a segment cut inside a frame (a
// writer that crashed mid-append) still serves the frames before the
// cut, and another writer's later frames are still indexed.
func TestStoreSegmentTruncatedMidFrame(t *testing.T) {
	dir := t.TempDir()
	w1, w2 := OpenStore(dir), OpenStore(dir)
	keys := make([]Key, 5)
	for i := range keys {
		keys[i] = testKey()
		keys[i].Shard = i
	}
	for _, k := range keys[:3] {
		if err := w1.Save(k, Result{Trace: "MM-4", Mispredicted: uint64(k.Shard)}); err != nil {
			t.Fatal(err)
		}
	}
	torn := indexed(t, w1, keys[2])
	if err := os.Truncate(torn.path, torn.off+int64(torn.n)/2); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[3:] {
		if err := w2.Save(k, Result{Trace: "MM-4", Mispredicted: uint64(k.Shard)}); err != nil {
			t.Fatal(err)
		}
	}
	r := OpenStore(dir)
	for _, k := range keys {
		got, ok := r.Load(k)
		if want := k.Shard != 2; ok != want || ok && got.Mispredicted != uint64(k.Shard) {
			t.Errorf("shard %d: Load = %+v, %v; want hit %v", k.Shard, got, ok, want)
		}
	}
}

func TestStoreFaultPoints(t *testing.T) {
	defer faultinject.Disable()
	s := OpenStore(t.TempDir())
	k := testKey()
	want := Result{Trace: "MM-4", Mispredicted: 3}
	if err := s.Save(k, want); err != nil {
		t.Fatal(err)
	}

	// An injected read fault is a transient miss: no hit, but the entry
	// stays indexed for the next, un-faulted read.
	faultinject.Enable(faultinject.Plan{"sim/store.load": {Nth: []int{1}}})
	if _, ok := s.Load(k); ok {
		t.Fatal("Load hit through an injected fault")
	}
	indexed(t, s, k)
	if got, ok := s.Load(k); !ok || got != want {
		t.Fatalf("Load after fault window = %+v, %v; want %+v", got, ok, want)
	}

	// Write faults surface as Save errors (callers treat Save as
	// best-effort) and leave no entry behind.
	k2 := testKey()
	k2.Budget++
	faultinject.Enable(faultinject.Plan{"sim/store.save": {Nth: []int{1}}})
	if err := s.Save(k2, want); err == nil {
		t.Fatal("Save succeeded through an injected fault")
	}
	if _, ok := s.Load(k2); ok {
		t.Fatal("faulted Save left a readable entry")
	}

	// Same contract for the snapshot layer.
	sk := SnapKey{Engine: EngineVersion, Config: "c", Suite: "s", Trace: "t", Seed: 1, Pos: 10}
	faultinject.Enable(faultinject.Plan{})
	if err := s.SaveSnapshot(sk, []byte("x")); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.Plan{
		"sim/store.loadsnap": {Nth: []int{1}},
		"sim/store.savesnap": {Nth: []int{1}},
	})
	if _, ok := s.LoadSnapshot(sk); ok {
		t.Fatal("LoadSnapshot hit through an injected fault")
	}
	if !s.HasSnapshot(sk) {
		t.Fatal("injected snapshot read fault dropped a healthy snapshot")
	}
	if err := s.SaveSnapshot(sk, []byte("y")); err == nil {
		t.Fatal("SaveSnapshot succeeded through an injected fault")
	}
	if got, ok := s.LoadSnapshot(sk); !ok || string(got) != "x" {
		t.Fatalf("snapshot after fault window = %q, %v; want the original payload", got, ok)
	}
}

func TestStoreMissingDirIsMiss(t *testing.T) {
	s := OpenStore(filepath.Join(t.TempDir(), "never-created"))
	if _, ok := s.Load(testKey()); ok {
		t.Error("missing directory produced a hit")
	}
	if pos := s.SnapshotPositions(SnapKey{Engine: EngineVersion}); len(pos) != 0 {
		t.Errorf("missing directory listed snapshot positions %v", pos)
	}
}

// TestStoreEntriesAreInSegments: entries are frames appended to one
// segment per Store under the engine version directory — no file per
// entry.
func TestStoreEntriesAreInSegments(t *testing.T) {
	dir := t.TempDir()
	s := OpenStore(dir)
	for i := 0; i < 3; i++ {
		k := testKey()
		k.Shard = i
		if err := s.Save(k, Result{}); err != nil {
			t.Fatal(err)
		}
		if err := s.SaveSnapshot(SnapKey{Engine: EngineVersion, Pos: i + 1}, []byte("state")); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != versionDir(EngineVersion) {
		t.Fatalf("store root holds %v (%v), want only %s", ents, err, versionDir(EngineVersion))
	}
	segs, err := os.ReadDir(s.segDir(EngineVersion))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segment directory holds %v (%v), want one segment", segs, err)
	}
	info, err := segs[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	var frames int
	f, err := os.Open(filepath.Join(s.segDir(EngineVersion), segs[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	end, err := frame.Scan(f, 0, info.Size(), maxEntry, func(int64, []byte) bool { frames++; return true })
	if err != nil || end != info.Size() || frames != 6 {
		t.Errorf("segment scan: %d frames, end %d of %d (%v); want 6 frames covering the file", frames, end, info.Size(), err)
	}
}

// TestStoreTwoInstancesShareDirectory: two Stores on one directory —
// the stand-in for two processes — see each other's saves.
func TestStoreTwoInstancesShareDirectory(t *testing.T) {
	dir := t.TempDir()
	a, b := OpenStore(dir), OpenStore(dir)
	ka, kb := testKey(), testKey()
	kb.Shard++
	ra, rb := Result{Trace: "MM-4", Mispredicted: 1}, Result{Trace: "MM-4", Mispredicted: 2}
	sk := SnapKey{Engine: EngineVersion, Config: "c", Suite: "cbp4", Trace: "MM-4", Seed: 1, Pos: 4000}

	if err := a.Save(ka, ra); err != nil {
		t.Fatal(err)
	}
	if got, ok := b.Load(ka); !ok || got != ra {
		t.Fatalf("b.Load(a's key) = %+v, %v", got, ok)
	}
	if err := b.Save(kb, rb); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveSnapshot(sk, []byte("state")); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Load(kb); !ok || got != rb {
		t.Fatalf("a.Load(b's key) = %+v, %v", got, ok)
	}
	if pos := a.SnapshotPositions(sk); len(pos) != 1 || pos[0] != sk.Pos {
		t.Fatalf("a.SnapshotPositions = %v, want [%d]", pos, sk.Pos)
	}
	if got, ok := a.LoadSnapshot(sk); !ok || string(got) != "state" {
		t.Fatalf("a.LoadSnapshot = %q, %v", got, ok)
	}
}

// TestStoreConcurrentAccess runs saves, loads and snapshot calls from
// several goroutines over two Stores sharing one directory; under
// -race it checks the index and segment locking.
func TestStoreConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	stores := []*Store{OpenStore(dir), OpenStore(dir)}
	const goroutines, perG = 6, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := stores[g%len(stores)]
			for i := 0; i < perG; i++ {
				k := testKey()
				k.Shard, k.Budget = i, g
				want := Result{Trace: "MM-4", Mispredicted: uint64(g*perG + i)}
				sk := SnapKey{Engine: EngineVersion, Config: "c", Trace: fmt.Sprint(g), Pos: i + 1}
				payload := []byte(fmt.Sprintf("state %d/%d", g, i))
				if err := s.Save(k, want); err != nil {
					errs <- err
					return
				}
				if err := s.SaveSnapshot(sk, payload); err != nil {
					errs <- err
					return
				}
				if got, ok := s.Load(k); !ok || got != want {
					errs <- fmt.Errorf("goroutine %d: Load = %+v, %v; want %+v", g, got, ok, want)
				}
				if pos := s.SnapshotPositions(sk); len(pos) != i+1 || pos[0] != i+1 {
					errs <- fmt.Errorf("goroutine %d: SnapshotPositions = %v after %d saves", g, pos, i+1)
				}
				if got, ok := s.LoadSnapshot(sk); !ok || string(got) != string(payload) {
					errs <- fmt.Errorf("goroutine %d: LoadSnapshot = %q, %v", g, got, ok)
				}
				// Read another Store's entries too: misses rescan its
				// segment while it is being appended to.
				other := stores[(g+1)%len(stores)]
				other.Load(k)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Afterwards every entry is visible through either Store.
	for _, s := range stores {
		for g := 0; g < goroutines; g++ {
			k := testKey()
			k.Shard, k.Budget = perG-1, g
			if _, ok := s.Load(k); !ok {
				t.Errorf("entry of goroutine %d not visible", g)
			}
		}
	}
}

// TestStoreFailedSaveRacesRescan: a save that fails — abandoning the
// Store's segment — while other goroutines rescan the same Store, and
// a new segment created while they do. Under -race this checks that
// rescans read a segment's fields under the index lock, and afterwards
// that a rescan never replaced the Store's own segment in its table.
func TestStoreFailedSaveRacesRescan(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := OpenStore(t.TempDir())
		k := testKey()
		if err := s.Save(k, Result{Trace: "MM-4"}); err != nil {
			t.Fatal(err)
		}
		// A link to a directory in place of the segment file: the next
		// append fails with an error other than a missing file, while
		// rescans still list the segment.
		path := indexed(t, s, k).path
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Symlink(t.TempDir(), path); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		var scans atomic.Int64
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
						s.rescan(EngineVersion)
						scans.Add(1)
					}
				}
			}()
		}
		for scans.Load() < 10 {
			runtime.Gosched()
		}
		k.Shard++
		if err := s.Save(k, Result{Trace: "MM-4"}); err == nil {
			t.Fatal("Save into a directory succeeded")
		}
		if err := s.Save(k, Result{Trace: "MM-4", Mispredicted: 1}); err != nil {
			t.Fatal(err)
		}
		for n := scans.Load(); scans.Load() < n+10; {
			runtime.Gosched()
		}
		close(done)
		wg.Wait()
		s.wmu.Lock()
		own := s.own[EngineVersion]
		s.wmu.Unlock()
		s.mu.Lock()
		seg := s.segs[own.path]
		s.mu.Unlock()
		if seg != own || !seg.own {
			t.Fatalf("round %d: a rescan replaced the Store's own segment", round)
		}
		if got, ok := s.Load(k); !ok || got.Mispredicted != 1 {
			t.Fatalf("round %d: Load after recovery = %+v, %v", round, got, ok)
		}
	}
}

// age makes a segment look idle for longer than claimAfter.
func age(t *testing.T, path string) {
	t.Helper()
	old := time.Now().Add(-2 * claimAfter)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
}

// segments lists the segment files of the current engine version.
func segments(t *testing.T, s *Store) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(s.segDir(EngineVersion), "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestStoreClaimsIdleSegment: a Store that starts writing claims a
// segment idle for claimAfter instead of adding one, so sequential
// writers share one segment. The previous writer, still alive, keeps
// loading its entries through the rename and writes on in a new
// segment.
func TestStoreClaimsIdleSegment(t *testing.T) {
	dir := t.TempDir()
	a := OpenStore(dir)
	ka, kb := testKey(), testKey()
	kb.Shard++
	if err := a.Save(ka, Result{Trace: "MM-4", Mispredicted: 1}); err != nil {
		t.Fatal(err)
	}
	sk := SnapKey{Engine: EngineVersion, Config: "c", Trace: "MM-4", Pos: 100}
	if err := a.SaveSnapshot(sk, []byte("state")); err != nil {
		t.Fatal(err)
	}
	age(t, segments(t, a)[0])

	b := OpenStore(dir)
	if err := b.Save(kb, Result{Trace: "MM-4", Mispredicted: 2}); err != nil {
		t.Fatal(err)
	}
	if segs := segments(t, b); len(segs) != 1 {
		t.Fatalf("after a claim: %d segments, want 1", len(segs))
	}
	// b indexed what it claimed without a miss.
	if !b.HasSnapshot(sk) || indexed(t, b, ka).path != indexed(t, b, kb).path {
		t.Fatal("claimed frames not indexed in the claimed segment")
	}
	// a's index points at the old name: its loads find the frames again.
	if got, ok := a.Load(ka); !ok || got.Mispredicted != 1 {
		t.Fatalf("a.Load(own entry) after the claim = %+v, %v", got, ok)
	}
	if got, ok := a.LoadSnapshot(sk); !ok || string(got) != "state" {
		t.Fatalf("a.LoadSnapshot after the claim = %q, %v", got, ok)
	}
	// a's next append finds its segment gone and writes a new one.
	kc := testKey()
	kc.Shard += 2
	if err := a.Save(kc, Result{Trace: "MM-4", Mispredicted: 3}); err != nil {
		t.Fatalf("Save after losing the segment: %v", err)
	}
	if segs := segments(t, a); len(segs) != 2 {
		t.Fatalf("after a's new segment: %d segments, want 2", len(segs))
	}
	r := OpenStore(dir)
	for _, k := range []Key{ka, kb, kc} {
		if got, ok := r.Load(k); !ok || got.Mispredicted != uint64(k.Shard-2) {
			t.Errorf("fresh Store: Load(shard %d) = %+v, %v", k.Shard, got, ok)
		}
	}
	// A segment written within claimAfter is not claimed.
	if err := OpenStore(dir).Save(testKey(), Result{}); err != nil {
		t.Fatal(err)
	}
	if segs := segments(t, a); len(segs) != 3 {
		t.Fatalf("busy segments claimed: %d segments, want 3", len(segs))
	}
}

// TestStoreClaimCutsTornTail: a claimed segment whose last frame is
// torn is cut back to its last intact frame before the claimant
// appends, so the claimant's frames are not hidden behind the tear.
func TestStoreClaimCutsTornTail(t *testing.T) {
	dir := t.TempDir()
	a := OpenStore(dir)
	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = testKey()
		keys[i].Shard = i
	}
	for _, k := range keys[:2] {
		if err := a.Save(k, Result{Trace: "MM-4", Mispredicted: uint64(k.Shard)}); err != nil {
			t.Fatal(err)
		}
	}
	torn := indexed(t, a, keys[1])
	if err := os.Truncate(torn.path, torn.off+int64(torn.n)-1); err != nil {
		t.Fatal(err)
	}
	age(t, torn.path)
	if err := OpenStore(dir).Save(keys[2], Result{Trace: "MM-4", Mispredicted: 2}); err != nil {
		t.Fatal(err)
	}
	segs := segments(t, a)
	if len(segs) != 1 {
		t.Fatalf("%d segments, want the claimed one", len(segs))
	}
	if info, err := os.Stat(segs[0]); err != nil || info.Size() != torn.off+int64(torn.n) {
		t.Fatalf("claimed segment: %v, %v; want the torn frame replaced by one of the same size", info, err)
	}
	r := OpenStore(dir)
	for _, k := range keys {
		if _, ok := r.Load(k); ok != (k.Shard != 1) {
			t.Errorf("shard %d: hit %v, want %v", k.Shard, ok, k.Shard != 1)
		}
	}
}

// TestStoreQuarantinesBadSnapshots: a snapshot frame that fails its
// checks is a miss and leaves the index, so SnapshotPositions stops
// offering the position and resume stops probing it.
func TestStoreQuarantinesBadSnapshots(t *testing.T) {
	k := SnapKey{Engine: EngineVersion, Config: "tage-gsc+imli", Suite: "cbp4", Trace: "MM-4", Seed: 1, Pos: 50000}
	payload := []byte("predictor state bytes")
	corruptions := map[string]func(t *testing.T, l loc){
		"truncated-below-frame": func(t *testing.T, l loc) {
			if err := os.Truncate(l.path, l.off+frame.HeaderSize+1); err != nil {
				t.Fatal(err)
			}
		},
		"bad-magic": func(t *testing.T, l loc) { flipByte(t, l, 4) }, // the checksum
		"oversized-key-length": func(t *testing.T, l loc) {
			editFile(t, l.path, func(b []byte) []byte { b[l.off+3] = 0x7f; return b }) // the frame length
		},
		"garbage-key": func(t *testing.T, l loc) { flipByte(t, l, frame.HeaderSize+5) },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := OpenStore(t.TempDir())
			if err := s.SaveSnapshot(k, payload); err != nil {
				t.Fatal(err)
			}
			corrupt(t, indexed(t, s, k))
			if _, ok := s.LoadSnapshot(k); ok {
				t.Fatal("corrupt snapshot served as a hit")
			}
			if s.HasSnapshot(k) {
				t.Fatal("corrupt snapshot still indexed")
			}
			for _, pos := range s.SnapshotPositions(k) {
				if pos == k.Pos {
					t.Fatalf("dropped snapshot position %d still listed", pos)
				}
			}
			if _, ok := OpenStore(s.Dir()).LoadSnapshot(k); ok {
				t.Fatal("fresh Store served the corrupt snapshot")
			}
		})
	}

	// A snapshot frame stored under another key (key mismatch) is
	// dropped too, and the frame's own key still loads.
	s := OpenStore(t.TempDir())
	other := k
	other.Pos = 99999
	if err := s.SaveSnapshot(k, payload); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.put(id(other), s.index[id(k)])
	s.mu.Unlock()
	if _, ok := s.LoadSnapshot(other); ok {
		t.Fatal("key-mismatched snapshot served as a hit")
	}
	if s.HasSnapshot(other) {
		t.Fatal("key-mismatched snapshot still indexed")
	}
	if got, ok := s.LoadSnapshot(k); !ok || string(got) != string(payload) {
		t.Fatalf("original snapshot damaged by dropping its alias: %q, %v", got, ok)
	}
}
