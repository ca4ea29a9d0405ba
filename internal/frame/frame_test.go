package frame

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func scanAll(t *testing.T, log []byte, max int) ([]string, int64) {
	t.Helper()
	var got []string
	end, err := Scan(bytes.NewReader(log), 0, int64(len(log)), max, func(_ int64, p []byte) bool {
		got = append(got, string(p))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, end
}

func TestAppendParseScan(t *testing.T) {
	var log []byte
	for _, p := range []string{"alpha", "", "gamma"} {
		log = Append(log, []byte(p))
	}
	first := log[:HeaderSize+5]
	if p, ok := Parse(first); !ok || string(p) != "alpha" {
		t.Fatalf("Parse(first frame) = %q, %v", p, ok)
	}
	if _, ok := Parse(log); ok {
		t.Error("Parse accepted three frames as one")
	}
	got, end := scanAll(t, log, 1<<10)
	if len(got) != 3 || got[0] != "alpha" || got[1] != "" || got[2] != "gamma" || end != int64(len(log)) {
		t.Fatalf("Scan = %q, end %d of %d", got, end, len(log))
	}
}

// TestScanStopsAtTornOrCorruptTail: every way the last frame can be
// damaged ends the scan after the intact frames before it.
func TestScanStopsAtTornOrCorruptTail(t *testing.T) {
	good := Append(nil, []byte("kept"))
	tail := Append(nil, []byte("the last frame"))
	cases := map[string][]byte{
		"torn header":  tail[:HeaderSize-1],
		"torn payload": tail[:len(tail)-1],
		"bad checksum": func() []byte { b := bytes.Clone(tail); b[HeaderSize] ^= 1; return b }(),
		"over bound": func() []byte {
			b := bytes.Clone(tail)
			binary.LittleEndian.PutUint32(b, 1<<30)
			return b
		}(),
	}
	for name, bad := range cases {
		got, end := scanAll(t, append(bytes.Clone(good), bad...), 1<<10)
		if len(got) != 1 || got[0] != "kept" || end != int64(len(good)) {
			t.Errorf("%s: Scan = %q, end %d; want the first frame only, end %d", name, got, end, len(good))
		}
	}
	// A length within the bound but past the end of the log is torn
	// too, and is rejected before a buffer of that size is made.
	log := append(bytes.Clone(good), tail...)
	binary.LittleEndian.PutUint32(log[len(good):], uint32(len(tail)))
	if got, end := scanAll(t, log, 1<<20); len(got) != 1 || end != int64(len(good)) {
		t.Errorf("length past the end: Scan = %q, end %d", got, end)
	}
}

func TestScanStopsWhenRejected(t *testing.T) {
	log := Append(Append(nil, []byte("a")), []byte("b"))
	end, err := Scan(bytes.NewReader(log), 0, int64(len(log)), 16, func(_ int64, p []byte) bool { return string(p) == "a" })
	if err != nil || end != HeaderSize+1 {
		t.Fatalf("Scan = %d, %v; want the offset after the accepted frame", end, err)
	}
}

// TestWalkMatchesScan: Walk reports every frame Scan does — offset,
// length and the first peek payload bytes — across frames smaller and
// larger than its read window, and stops where Scan stops on a torn
// tail or an over-bound length.
func TestWalkMatchesScan(t *testing.T) {
	const peek = 16
	var log []byte
	var payloads [][]byte
	for i, n := range []int{3, 0, 40, 9000, 1, 20000, peek, peek + 1} {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		payloads = append(payloads, p)
		log = Append(log, p)
	}
	walk := func(log []byte, max int) (offs []int64, heads []string, end int64) {
		end, err := Walk(bytes.NewReader(log), 0, int64(len(log)), max, peek, func(off int64, n int, head []byte) bool {
			offs = append(offs, off)
			heads = append(heads, string(head))
			if p, ok := Parse(log[off : off+HeaderSize+int64(n)]); !ok || !bytes.HasPrefix(p, head) {
				t.Fatalf("frame at %d: length %d or head %q disagrees with the frame", off, n, head)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return offs, heads, end
	}
	offs, heads, end := walk(log, 1<<20)
	if len(offs) != len(payloads) || end != int64(len(log)) {
		t.Fatalf("Walk saw %d frames ending at %d; want %d ending at %d", len(offs), end, len(payloads), len(log))
	}
	for i, p := range payloads {
		if want := string(p[:min(len(p), peek)]); heads[i] != want {
			t.Errorf("frame %d: head %q, want %q", i, heads[i], want)
		}
	}
	last := offs[len(offs)-1]
	if _, _, end := walk(log[:len(log)-1], 1<<20); end != last {
		t.Errorf("torn tail: Walk ended at %d, want %d", end, last)
	}
	if _, _, end := walk(log, 10000); end != offs[5] {
		t.Errorf("over-bound frame: Walk ended at %d, want %d", end, offs[5])
	}
}
