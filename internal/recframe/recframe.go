// Package recframe is what the repository's two logs — the lineage
// segments of internal/checkpoint and the pack log of
// internal/blockstore — are written by: one record framing (this file:
// the header put/parse and the verifying, resynchronising scan) and one
// durability protocol (durable.go: the append-or-leave-no-trace frame
// write, the torn-tail cut, durable file creation, the rename commit,
// and the fault seam all of it runs through). What a frame contains,
// when a log rolls and what a store does once its log has fail-stopped
// belong to the stores.
//
// A log is a plain concatenation of records — no file header, so an
// empty file is an empty log. Every record is a fixed header followed
// by its payload, little-endian:
//
//	u32  magic (the user's, e.g. "GCKR" for a lineage segment)
//	u8   kind (the user's)
//	u8   more (1: the next record belongs to the same frame; 0: this
//	     record commits its frame)
//	u16  zero
//	u32  A  \ two fields the user defines (a lineage segment stores
//	u32  B  / the checkpoint id and the end watermark here)
//	u32  payload length
//	u32  CRC32C(payload)
//	u32  CRC32C(the 24 header bytes above)
//
// A frame is the unit of atomicity: the records one append writes
// with one fsync, all but the last flagged more. The two checksums
// split the failure modes: the header CRC lets a scan find record
// boundaries again after damage (it resynchronizes on the next header
// that verifies), the payload CRC pins the bytes.
package recframe

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
)

// HdrSize is the byte length of a record header.
const HdrSize = 28

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Header is one record header; a scan also fills in where it sits.
type Header struct {
	Off  int64 // of the header
	Kind byte
	More bool
	A, B uint32
	Len  uint32 // of the payload
	CRC  uint32 // of the payload
}

// Next returns the offset just past the record.
func (h Header) Next() int64 { return h.Off + HdrSize + int64(h.Len) }

// Format is one user of the framing: its magic and what it accepts
// beyond the structural checks — the validation of kind, A, B and Len
// that only the user can do.
type Format struct {
	Magic  [4]byte
	Accept func(Header) bool
}

// Put writes the header of a record whose payload has length n and
// checksum crc into b[:HdrSize].
func (f Format) Put(b []byte, kind byte, more bool, a, bb, n, crc uint32) {
	copy(b, f.Magic[:])
	b[4], b[5], b[6], b[7] = kind, 0, 0, 0
	if more {
		b[5] = 1
	}
	binary.LittleEndian.PutUint32(b[8:], a)
	binary.LittleEndian.PutUint32(b[12:], bb)
	binary.LittleEndian.PutUint32(b[16:], n)
	binary.LittleEndian.PutUint32(b[20:], crc)
	binary.LittleEndian.PutUint32(b[24:], crc32.Checksum(b[:24], castagnoli))
}

// Parse decodes and verifies a record header at the start of b. ok is
// false for anything a writer could not have produced: short input,
// wrong magic, a failed header CRC, or fields the format refuses.
func (f Format) Parse(b []byte) (h Header, ok bool) {
	if len(b) < HdrSize || !bytes.Equal(b[:4], f.Magic[:]) ||
		binary.LittleEndian.Uint32(b[24:]) != crc32.Checksum(b[:24], castagnoli) {
		return h, false
	}
	h = Header{
		Kind: b[4],
		More: b[5] == 1,
		A:    binary.LittleEndian.Uint32(b[8:]),
		B:    binary.LittleEndian.Uint32(b[12:]),
		Len:  binary.LittleEndian.Uint32(b[16:]),
		CRC:  binary.LittleEndian.Uint32(b[20:]),
	}
	return h, b[5] <= 1 && b[6] == 0 && b[7] == 0 && f.Accept(h)
}

// Scan walks a log image of size bytes and returns every record that
// verifies — header CRC, payload inside the image, payload CRC — in
// file order, cut at committed: the offset up to which the log is
// known to have been durably written.
//
// The walk classifies damage by what follows it. A region that fails
// verification but is followed by a record that verifies is rot in
// data that was already committed: the scan resynchronizes on the
// later record and drops nothing else. A region that reaches the end
// of the image — or a trailing frame whose committing record never
// made it — is an append that died mid-write: everything past
// committed belongs to a batch nobody was told about, and the caller
// truncates it. Rot that happens to sit in the very last frame is
// indistinguishable from such a torn write and is truncated with it.
//
// A sealed image is one its writer has moved on from (a later log file
// exists), so nothing in it is an append in flight: damage that reaches
// its end is rot like any other, every verified record is kept and
// committed is size.
func (f Format) Scan(r io.ReaderAt, size int64, sealed bool) (recs []Header, committed int64, err error) {
	var (
		hdr   [HdrSize]byte
		chunk = make([]byte, min(size, 64<<10)+1) // payload verification, piece by piece
		crcer = crc32.New(castagnoli)
	)
	// valid reports whether a whole record verifies at offset at.
	valid := func(at int64) (Header, bool, error) {
		n, err := r.ReadAt(hdr[:], at)
		if err != nil && err != io.EOF {
			return Header{}, false, err
		}
		rec, ok := f.Parse(hdr[:n])
		rec.Off = at
		if !ok || rec.Next() > size {
			return rec, false, nil
		}
		crcer.Reset()
		if _, err := io.CopyBuffer(crcer, io.NewSectionReader(r, at+HdrSize, int64(rec.Len)), chunk); err != nil {
			return rec, false, err
		}
		return rec, crcer.Sum32() == rec.CRC, nil
	}
	// resync returns the offset of the first record at or after from
	// that verifies, -1 when there is none.
	var win []byte
	resync := func(from int64) (int64, error) {
		if win == nil {
			win = make([]byte, min(size, 64<<10))
		}
		for from+HdrSize <= size {
			n, err := r.ReadAt(win, from)
			if err != nil && err != io.EOF {
				return -1, err
			}
			if n < HdrSize {
				break
			}
			for i := 0; ; i++ {
				j := bytes.Index(win[i:n], f.Magic[:])
				if j < 0 {
					break
				}
				i += j
				if _, ok, err := valid(from + int64(i)); err != nil || ok {
					return from + int64(i), err
				}
			}
			from += int64(n - len(f.Magic) + 1) // a magic may straddle the window edge
		}
		return -1, nil
	}

	nRecs := 0 // len(recs) as of committed
	for off := int64(0); off < size; {
		rec, ok, err := valid(off)
		if err != nil {
			return nil, 0, err
		}
		if ok {
			recs = append(recs, rec)
			off = rec.Next()
			if !rec.More {
				committed, nRecs = off, len(recs)
			}
			continue
		}
		next, err := resync(off + 1)
		if err != nil {
			return nil, 0, err
		}
		if next < 0 {
			break // the damage reaches the end of the image
		}
		// Something valid was written after the damage, so what came
		// before it was committed.
		off, committed, nRecs = next, next, len(recs)
	}
	if sealed {
		return recs, size, nil
	}
	return recs[:nRecs], committed, nil
}
