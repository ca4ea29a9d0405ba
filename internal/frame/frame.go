// Package frame is the one framed, checksummed, torn-tail-safe append
// log format of the repository. The job journal (internal/journal) and
// the result store's segments (internal/sim) are both sequences of
//
//	[u32 payload length][u32 CRC-32 (IEEE) of payload][payload]
//
// frames, little-endian. A crash can tear the last frame of a log; a
// reader stops at the first frame that is short, claims more bytes
// than its bound or than the log still holds, or (for Scan, which
// reads whole frames) fails its checksum, so a torn tail reads as the
// end of the log. Walk reads headers only and leaves the checksum to
// Parse, when a frame it found is read. The length bound is checked
// before any allocation, so a corrupt length field cannot force a huge
// one.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// HeaderSize is the byte size of a frame header.
const HeaderSize = 8

// Begin appends an empty frame header to buf. The caller appends the
// payload after it and then calls End with len(buf) as it was before
// Begin, so a frame is built in place, without copying its payload.
func Begin(buf []byte) []byte {
	return append(buf, make([]byte, HeaderSize)...)
}

// End fills in the header of the frame that starts at buf[start:] and
// runs to the end of buf.
func End(buf []byte, start int) {
	payload := buf[start+HeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
}

// Append appends one frame holding payload to buf.
func Append(buf, payload []byte) []byte {
	start := len(buf)
	buf = append(Begin(buf), payload...)
	End(buf, start)
	return buf
}

// Parse checks that b is exactly one intact frame and returns its
// payload, which aliases b.
func Parse(b []byte) ([]byte, bool) {
	if len(b) < HeaderSize || int64(binary.LittleEndian.Uint32(b)) != int64(len(b)-HeaderSize) {
		return nil, false
	}
	payload := b[HeaderSize:]
	return payload, crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(b[4:])
}

// Scan reads the frames stored in r between offsets off and end, in
// order, and calls fn with each frame's offset and payload. The payload
// is only valid during the call. Scan stops at the first frame that is
// short, claims more than max payload bytes or more than remain before
// end, or fails its checksum, and when fn returns false. It returns the
// offset just past the last frame fn accepted, where the next append
// belongs. The error is non-nil only when reading r fails for another
// reason than running out of bytes.
func Scan(r io.ReaderAt, off, end int64, max int, fn func(off int64, payload []byte) bool) (int64, error) {
	br := bufio.NewReaderSize(io.NewSectionReader(r, off, end-off), 32<<10)
	var hdr [HeaderSize]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return off, readErr(err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:]))
		if n > int64(max) || n > end-off-HeaderSize {
			return off, nil
		}
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return off, readErr(err)
		}
		if crc32.ChecksumIEEE(buf) != binary.LittleEndian.Uint32(hdr[4:]) || !fn(off, buf) {
			return off, nil
		}
		off += HeaderSize + n
	}
}

// Walk is Scan without reading whole payloads: it calls fn with each
// frame's offset, payload length and up to peek leading payload bytes
// (head, valid only during the call), and leaves the checksum to
// whoever reads the frame later through Parse. It stops at the first
// frame whose header is short or claims more than max payload bytes or
// more than remain before end, and when fn returns false, and returns
// the offset just past the last frame fn accepted. Frames lying within
// one read window of each other share a read, so a log of small frames
// costs few reads and a log of large ones one read per frame, whatever
// their payload bytes.
func Walk(r io.ReaderAt, off, end int64, max, peek int, fn func(off int64, n int, head []byte) bool) (int64, error) {
	win := make([]byte, 0, HeaderSize+peek+4<<10)
	var winOff int64 // the offset win[0] was read from
	for end-off >= HeaderSize {
		need := min(int64(HeaderSize+peek), end-off)
		if off < winOff || off+need > winOff+int64(len(win)) {
			win = win[:min(int64(cap(win)), end-off)]
			n, err := r.ReadAt(win, off)
			if err != nil && !errors.Is(err, io.EOF) {
				return off, err
			}
			win, winOff = win[:n], off
			if n < HeaderSize {
				return off, nil
			}
		}
		h := win[off-winOff:]
		n := int64(binary.LittleEndian.Uint32(h))
		if n > int64(max) || n > end-off-HeaderSize {
			return off, nil
		}
		if !fn(off, int(n), h[HeaderSize:min(int64(len(h)), HeaderSize+min(n, int64(peek)))]) {
			return off, nil
		}
		off += HeaderSize + n
	}
	return off, nil
}

// readErr drops the errors that only mean the log ended (cleanly or
// torn).
func readErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}
