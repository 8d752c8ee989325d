package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Segment file format:
//
//	magic   8 bytes  "SEEDSEG1"
//	index   8 bytes  uint64 little-endian, must match the file name
//	record  repeated:
//	    length  uint32 little-endian (payload bytes)
//	    crc     uint32 little-endian, CRC-32 (IEEE) of payload
//	    payload length bytes
//	seal    optional 8-byte marker (length=sealLen, crc=sealCRC)
//
// The seal marker is written when the segment is rotated out: a sealed
// segment is immutable and promises that a successor segment exists. Replay
// uses it to tell benign torn tails (only ever in the unsealed last
// segment) from real corruption: a non-last segment that does not end in a
// seal marker, or a sealed last segment whose successor is missing, means
// acked records were lost and surfaces ErrCorrupt.

var segMagic = [8]byte{'S', 'E', 'E', 'D', 'S', 'E', 'G', '1'}

const (
	segHeaderSize    = 16 // magic + index
	recordHeaderSize = 8  // length + crc

	// Seal marker: a record header that can never occur naturally
	// (length far above MaxRecord) with a fixed recognizer in the crc slot.
	sealLen = 0xFFFFFFFF
	sealCRC = 0x5EA1C0DE
)

// MaxRecord bounds a single log record (64 MiB).
const MaxRecord = 64 << 20

// SegmentFile returns the file name of WAL segment n within a store
// directory.
func SegmentFile(n uint64) string { return fmt.Sprintf("wal-%06d.seed", n) }

// parseSegmentName extracts the index from a canonical segment file name.
// Non-canonical spellings (wal-1.seed, wal-0000001.seed) are rejected —
// they would alias an index and break the contiguity check.
func parseSegmentName(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".seed")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil || n == 0 || SegmentFile(n) != name {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment indexes present in dir, sorted.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range entries {
		if n, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// segment is one open WAL segment file.
type segment struct {
	index uint64
	path  string
	f     *os.File
	w     *bufio.Writer
	size  int64 // logical size including buffered bytes
}

// createSegment creates segment n in dir, writes its header durably, and
// fsyncs the directory so the file survives a crash.
func createSegment(dir string, n uint64) (*segment, error) {
	path := filepath.Join(dir, SegmentFile(n))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	var header [segHeaderSize]byte
	copy(header[:8], segMagic[:])
	binary.LittleEndian.PutUint64(header[8:16], n)
	if _, err := f.Write(header[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return &segment{index: n, path: path, f: f, w: bufio.NewWriter(f), size: segHeaderSize}, nil
}

// openTailSegment opens segment n for appending after replay reported good
// as the offset just past the last intact record; a torn tail beyond it is
// truncated away.
func openTailSegment(dir string, n uint64, good int64) (*segment, error) {
	path := filepath.Join(dir, SegmentFile(n))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &segment{index: n, path: path, f: f, w: bufio.NewWriter(f), size: good}, nil
}

// append writes one record into the segment buffer.
func (s *segment) append(payload []byte) error {
	var header [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
	if _, err := s.w.Write(header[:]); err != nil {
		return err
	}
	if _, err := s.w.Write(payload); err != nil {
		return err
	}
	s.size += recordHeaderSize + int64(len(payload))
	return nil
}

// sync flushes buffered records and fsyncs the file.
func (s *segment) sync() error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

// seal appends the seal marker and makes the segment durable. A sealed
// segment is immutable.
func (s *segment) seal() error {
	var marker [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(marker[0:4], sealLen)
	binary.LittleEndian.PutUint32(marker[4:8], sealCRC)
	if _, err := s.w.Write(marker[:]); err != nil {
		return err
	}
	s.size += recordHeaderSize
	return s.sync()
}

// replaySegment validates the header of segment n and streams every intact
// record to fn. It returns the offset just past the last intact record and
// whether the segment ends in a seal marker. Torn or checksum-failing tails
// do not error here — the caller decides whether they are benign (unsealed
// last segment) or corruption.
func replaySegment(dir string, n uint64, fn func([]byte) error) (good int64, sealed bool, err error) {
	f, err := os.Open(filepath.Join(dir, SegmentFile(n)))
	if err != nil {
		return 0, false, err
	}
	defer f.Close()

	r := bufio.NewReader(f)
	var header [segHeaderSize]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return 0, false, fmt.Errorf("%w: segment %d header", ErrCorrupt, n)
	}
	if [8]byte(header[:8]) != segMagic {
		return 0, false, fmt.Errorf("%w: segment %d", ErrBadMagic, n)
	}
	if idx := binary.LittleEndian.Uint64(header[8:16]); idx != n {
		return 0, false, fmt.Errorf("%w: segment file %d claims index %d", ErrCorrupt, n, idx)
	}

	good, sealed, err = scanRecords(r, fn)
	if err != nil || !sealed {
		return good, sealed, err
	}
	// Sealed: nothing may follow the marker.
	if _, err := r.ReadByte(); err != io.EOF {
		return 0, false, fmt.Errorf("%w: segment %d has data after seal", ErrCorrupt, n)
	}
	return good, true, nil
}

// scanRecords streams the length+crc framed records that follow a segment
// header from r to fn, and stops at a torn or checksum-failing tail (never
// an error — the caller decides whether that is benign). A seal marker ends
// the scan with sealed true.
func scanRecords(r *bufio.Reader, fn func([]byte) error) (good int64, sealed bool, err error) {
	offset := int64(segHeaderSize)
	var rh [recordHeaderSize]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(r, rh[:]); err != nil {
			return offset, false, nil // clean or torn end
		}
		length := binary.LittleEndian.Uint32(rh[0:4])
		crc := binary.LittleEndian.Uint32(rh[4:8])
		if length == sealLen && crc == sealCRC {
			return offset + recordHeaderSize, true, nil
		}
		if length > MaxRecord {
			return offset, false, nil // absurd length: torn tail
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, err := io.ReadFull(r, buf); err != nil {
			return offset, false, nil
		}
		if crc32.ChecksumIEEE(buf) != crc {
			return offset, false, nil
		}
		if fn != nil {
			if err := fn(buf); err != nil {
				return 0, false, err
			}
		}
		offset += recordHeaderSize + int64(length)
	}
}

// syncDir fsyncs a directory so renames and file creations within it are
// durable. Windows cannot fsync a directory handle (and NTFS metadata
// updates do not need it), so it is a no-op there.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
