package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fillStore writes entries results and entries snapshots of snapBytes
// each through segments Stores in turn, as that many processes sharing
// a cache directory would. With aged, each Store finds the previous
// ones idle and claims a segment instead of adding one.
func fillStore(b *testing.B, dir string, segments, entries int, aged bool) {
	b.Helper()
	const snapBytes = 37 << 10 // a tage-gsc+imli snapshot
	payload := make([]byte, snapBytes)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for w, n := 0, 0; w < segments; w++ {
		if aged {
			paths, _ := filepath.Glob(filepath.Join(dir, versionDir(EngineVersion), "seg", "*.seg"))
			old := time.Now().Add(-2 * claimAfter)
			for _, p := range paths {
				_ = os.Chtimes(p, old, old)
			}
		}
		s := OpenStore(dir)
		for ; n < (w+1)*entries/segments; n++ {
			if err := s.Save(benchKey(n), Result{Trace: "MM-4", Instructions: uint64(n)}); err != nil {
				b.Fatal(err)
			}
			if err := s.SaveSnapshot(benchSnapKey(n), payload); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchKey(i int) Key {
	k := testKey()
	k.Budget, k.Shard = 1000+i, 0
	return k
}

func benchSnapKey(i int) SnapKey {
	return SnapKey{Engine: EngineVersion, Config: "tage-gsc+imli", Suite: "cbp4", Trace: fmt.Sprintf("t%d", i%40), Seed: uint64(i / 40), Pos: 1000 + i}
}

// BenchmarkStoreReopen measures a new process's first hit on a filled
// cache directory: the Store indexes every frame before it serves it,
// reading frame headers and keys but no payloads.
func BenchmarkStoreReopen(b *testing.B) {
	const entries = 500
	dir := b.TempDir()
	fillStore(b, dir, 1, entries, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := OpenStore(dir).Load(benchKey(entries / 2)); !ok {
			b.Fatal("miss")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*entries), "ns/frame")
}

// BenchmarkStoreMiss measures a miss on a Store that has indexed every
// frame: one directory listing and one stat per segment of another
// writer. Segments written at once stay apart; sequential writers
// (aged) share one claimed segment.
func BenchmarkStoreMiss(b *testing.B) {
	for _, c := range []struct {
		segments int
		aged     bool
	}{{1, false}, {10, false}, {100, false}, {100, true}} {
		b.Run(fmt.Sprintf("segments=%d/aged=%v", c.segments, c.aged), func(b *testing.B) {
			dir := b.TempDir()
			fillStore(b, dir, c.segments, 200, c.aged)
			s := OpenStore(dir)
			s.Load(benchKey(0))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Load(benchKey(-1 - i)); ok {
					b.Fatal("hit")
				}
			}
		})
	}
}
