package workload

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/trace"
)

// This file is the materialized-stream layer (DESIGN.md §6): each
// benchmark's deterministic record stream is generated **once** per
// (trace name, seed, budget) into a compact in-memory buffer and
// handed out as a read-only []trace.Record slice, so the simulation
// engine's shards — and every configuration of a batch run sharing the
// cache — stop paying O(shards × budget) regeneration work. Streams
// are prefix-stable (a shorter budget's stream is a prefix of a longer
// one's), so the cache keeps one backing array per (trace name, seed)
// and serves every resident budget as a prefix view of it.

// streamFormatVersion participates in every spill-file name. Bump it
// whenever generator semantics change so stale spilled streams can
// never be loaded.
const streamFormatVersion = 1

// DefaultStreamMemory is the resident-byte bound a zero-configured
// StreamCache uses. At ~24 bytes per record it holds dozens of
// full-size (250K-record) benchmark streams.
const DefaultStreamMemory = 256 << 20

// recordBytes is the accounting cost of one resident trace.Record.
const recordBytes = int64(24) // 2×uint64 + kind + taken + gap, padded

// Stream is the materialized record stream of one benchmark at one
// budget. The slice may run a few records past the budget: generation
// stops at episode granularity (see Generate), and the overshoot is
// part of the deterministic stream an unsharded run measures.
type Stream struct {
	name string
	recs []trace.Record
}

// Name returns the benchmark name the stream was generated from.
func (s *Stream) Name() string { return s.name }

// Records returns the materialized stream. The slice is shared and
// MUST be treated as read-only by all callers.
func (s *Stream) Records() []trace.Record { return s.recs }

// Bytes returns the resident size of the stream's records. Streams
// the cache serves as prefix views share their backing array, which
// the cache accounts once per (trace name, seed).
func (s *Stream) Bytes() int64 { return int64(cap(s.recs)) * recordBytes }

// streamKey identifies one materialized stream: everything generation
// is a pure function of.
type streamKey struct {
	name   string
	seed   uint64
	budget int
}

type streamEntry struct {
	key    streamKey
	ready  chan struct{} // closed once stream is set
	stream *Stream       // read under the cache lock: re-pointed when a longer stream of the group arrives
	elem   *list.Element // position in the LRU list; nil once evicted
}

// groupKey identifies the streams of one benchmark at every budget.
type groupKey struct {
	name string
	seed uint64
}

// streamGroup holds the backing array the resident streams of one
// (trace name, seed) share: the longest of them, of which every other
// one is a prefix.
type streamGroup struct {
	recs    []trace.Record
	members []*streamEntry
}

// view returns the stream of the first n records, its capacity
// clipped so that no holder can append into the shared array.
func (g *streamGroup) view(name string, n int) *Stream {
	return &Stream{name: name, recs: g.recs[:n:n]}
}

// StreamStats counts what a StreamCache did across its lifetime.
type StreamStats struct {
	// Generated is the number of generator materializations (each one
	// full Benchmark.Generate run). A suite run over n benchmarks that
	// shares one cache should generate exactly n streams, regardless
	// of shard and configuration counts.
	Generated uint64
	// Hits is the number of Gets served from a resident stream.
	Hits uint64
	// SpillLoads is the number of streams reloaded from the on-disk
	// spill instead of regenerated.
	SpillLoads uint64
	// ResidentBytes and ResidentStreams describe what the LRU holds.
	ResidentBytes   int64
	ResidentStreams int
}

// StreamCache materializes benchmark streams once and bounds their
// resident memory with an LRU. A cache is safe for concurrent use;
// concurrent Gets of the same stream generate it exactly once (the
// losers block until the winner finishes). When spillDir is set,
// generated streams are also written to disk in the internal/trace
// binary format, so a later cache (or process) reloads them instead of
// regenerating.
type StreamCache struct {
	maxBytes int64
	spillDir string

	mu      sync.Mutex
	entries map[streamKey]*streamEntry
	groups  map[groupKey]*streamGroup
	order   *list.List // front = most recently used
	bytes   int64      // backing arrays of the groups

	generated  uint64
	hits       uint64
	spillLoads uint64
}

// NewStreamCache returns a cache bounded at maxBytes of resident
// stream memory (0 means DefaultStreamMemory). The bound is honoured
// by evicting least-recently-used streams on insert; streams still
// referenced by in-flight simulations stay alive until those
// simulations drop them. spillDir, when non-empty, enables the
// on-disk spill (created lazily; unwritable directories degrade to
// regeneration).
func NewStreamCache(maxBytes int64, spillDir string) *StreamCache {
	if maxBytes == 0 {
		maxBytes = DefaultStreamMemory
	}
	return &StreamCache{
		maxBytes: maxBytes,
		spillDir: spillDir,
		entries:  map[streamKey]*streamEntry{},
		groups:   map[groupKey]*streamGroup{},
		order:    list.New(),
	}
}

// Stats returns cumulative counters and the current resident set.
func (c *StreamCache) Stats() StreamStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return StreamStats{
		Generated:       c.generated,
		Hits:            c.hits,
		SpillLoads:      c.spillLoads,
		ResidentBytes:   c.bytes,
		ResidentStreams: c.order.Len(),
	}
}

// Get returns the materialized stream of b at the given budget,
// generating (or spill-loading) it on first use. It returns nil when
// the stream alone would exceed the cache's memory bound — callers
// must then fall back to streaming generation.
func (c *StreamCache) Get(b Benchmark, budget int) *Stream {
	if budget <= 0 {
		return nil
	}
	// A stream that cannot fit resident at all is not worth
	// materializing: the caller's streaming path runs in O(1) memory.
	if (int64(budget)+64)*recordBytes > c.maxBytes {
		return nil
	}
	key := streamKey{name: b.Name, seed: b.Seed, budget: budget}

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.order.MoveToFront(e.elem)
		}
		c.hits++
		c.mu.Unlock()
		<-e.ready
		c.mu.Lock()
		defer c.mu.Unlock()
		return e.stream
	}
	e := &streamEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	st, spilled := c.load(key)
	if st == nil {
		recs := make([]trace.Record, 0, budget+64)
		b.Generate(budget, func(r trace.Record) { recs = append(recs, r) })
		if cap(recs) > len(recs)+64 {
			// A large final episode forced the buffer to double; trim
			// so resident accounting reflects what is actually held.
			recs = append(make([]trace.Record, 0, len(recs)), recs...)
		}
		st = &Stream{name: b.Name, recs: recs}
	}

	c.mu.Lock()
	if spilled {
		c.spillLoads++
	} else {
		c.generated++
	}
	if st.Bytes() > c.maxBytes {
		// Generation overshoots the budget at episode granularity, so
		// a stream can come out larger than the pre-generation
		// estimate admitted. Hand it to the waiters but do not keep it
		// resident: the bound is a promise.
		delete(c.entries, key)
	} else {
		st = c.joinLocked(e, st.recs)
		e.elem = c.order.PushFront(e)
		c.evictLocked(e)
	}
	e.stream = st
	c.mu.Unlock()
	close(e.ready)
	if !spilled {
		// Spill after publishing: the stream is immutable, and waiting
		// shards must not block on the disk write.
		c.spill(key, st)
	}
	return st
}

// evictLocked drops least-recently-used streams until the resident set
// fits the bound. keep (the entry just inserted) is never evicted: it
// is about to be used, and evicting it would only force an immediate
// regeneration.
func (c *StreamCache) evictLocked(keep *streamEntry) {
	for c.bytes > c.maxBytes && c.order.Len() > 1 {
		back := c.order.Back()
		e := back.Value.(*streamEntry)
		if e == keep {
			break
		}
		c.order.Remove(back)
		e.elem = nil
		delete(c.entries, e.key)
		c.leaveLocked(e)
	}
}

// joinLocked makes e a resident member of its (trace name, seed) group
// and returns e's stream as a view of the group's backing array. A
// stream longer than the backing array becomes the new backing array,
// and the members already resident are re-pointed at prefix views of
// it, so their old arrays are freed once no simulation holds them. A
// shorter one is dropped in favour of a view.
func (c *StreamCache) joinLocked(e *streamEntry, recs []trace.Record) *Stream {
	gk := groupKey{name: e.key.name, seed: e.key.seed}
	g := c.groups[gk]
	if g == nil {
		g = &streamGroup{}
		c.groups[gk] = g
	}
	if len(recs) > len(g.recs) {
		c.bytes += int64(cap(recs)-cap(g.recs)) * recordBytes
		g.recs = recs
		for _, m := range g.members {
			m.stream = g.view(m.key.name, len(m.stream.recs))
		}
	}
	g.members = append(g.members, e)
	return g.view(e.key.name, len(recs))
}

// leaveLocked removes an evicted entry from its group, and the group
// with its backing array once no member is left.
func (c *StreamCache) leaveLocked(e *streamEntry) {
	gk := groupKey{name: e.key.name, seed: e.key.seed}
	g := c.groups[gk]
	for i, m := range g.members {
		if m == e {
			g.members = append(g.members[:i], g.members[i+1:]...)
			break
		}
	}
	if len(g.members) == 0 {
		c.bytes -= int64(cap(g.recs)) * recordBytes
		delete(c.groups, gk)
	}
}

// spillPath names the on-disk form of a stream: a hash of the key and
// the format version, so generator changes orphan (never corrupt) old
// files.
func (c *StreamCache) spillPath(key streamKey) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], streamFormatVersion)
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], key.seed)
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(key.budget))
	h.Write(buf[:])
	h.Write([]byte(key.name))
	return filepath.Join(c.spillDir, hex.EncodeToString(h.Sum(nil)[:16])+".imlt")
}

// load reloads a previously spilled stream. Any failure — missing
// file, codec error, name mismatch, short stream — reads as a miss.
func (c *StreamCache) load(key streamKey) (*Stream, bool) {
	if c.spillDir == "" {
		return nil, false
	}
	f, err := os.Open(c.spillPath(key))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil || r.Name() != key.name {
		return nil, false
	}
	recs, err := r.ReadAll()
	if err != nil || len(recs) < key.budget {
		return nil, false
	}
	if cap(recs) > len(recs)+64 {
		// ReadAll grows by doubling; trim like the generation path so
		// resident accounting reflects what is actually held.
		recs = append(make([]trace.Record, 0, len(recs)), recs...)
	}
	return &Stream{name: key.name, recs: recs}, true
}

// spill writes a stream to disk, best-effort (atomically: temp file +
// rename, so concurrent caches sharing the directory are safe). A
// full disk or unwritable directory simply leaves the stream unspilled.
func (c *StreamCache) spill(key streamKey, st *Stream) {
	if c.spillDir == "" {
		return
	}
	if os.MkdirAll(c.spillDir, 0o755) != nil {
		return
	}
	tmp, err := os.CreateTemp(c.spillDir, ".tmp-*")
	if err != nil {
		return
	}
	w, err := trace.NewWriter(tmp, st.name)
	if err == nil {
		for _, r := range st.recs {
			if err = w.Write(r); err != nil {
				break
			}
		}
		if err == nil {
			err = w.Flush()
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil || os.Rename(tmp.Name(), c.spillPath(key)) != nil {
		os.Remove(tmp.Name())
	}
}
