// Package checkpoint defines the wire format of incremental checkpoint
// differences and the checkpoint record (lineage) that stores and
// restores them.
//
// A Diff is the "consolidated difference" of the paper (Tan et al.,
// ICPP 2023, §2.1): a small header, compact metadata describing
// first-time occurrences and shifted duplicates, and a contiguous data
// section holding the gathered bytes of the first-time occurrences —
// exactly the object that is serialized on the GPU and shipped to host
// memory in a single transfer.
//
// A Record is the per-process checkpoint lineage (§1: "the entire
// checkpoint record"): it retains every Diff and can reconstruct the
// application buffer at any checkpoint, resolving shifted-duplicate
// references across checkpoints ("assemble the shifted duplicates from
// the corresponding checkpoint ID", §2.2).
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Method identifies the de-duplication strategy that produced a Diff.
type Method uint8

const (
	// MethodFull stores the complete buffer every checkpoint.
	MethodFull Method = iota
	// MethodBasic stores a change bitmap plus changed chunks (dirty
	// chunk tracking against the same offset of the previous
	// checkpoint only).
	MethodBasic
	// MethodList stores per-chunk first-occurrence and
	// shifted-duplicate entries with no metadata compaction.
	MethodList
	// MethodTree is the paper's contribution: Merkle-tree compacted
	// region metadata.
	MethodTree
)

// String returns the method name used throughout the paper's figures.
func (m Method) String() string {
	switch m {
	case MethodFull:
		return "Full"
	case MethodBasic:
		return "Basic"
	case MethodList:
		return "List"
	case MethodTree:
		return "Tree"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// Methods lists all implemented methods in the order the paper
// introduces them.
func Methods() []Method {
	return []Method{MethodFull, MethodBasic, MethodList, MethodTree}
}

// ShiftRegion describes one shifted-duplicate region: the tree node it
// covers in the current checkpoint and the (node, checkpoint) of the
// region recorded in the historical record of unique hashes that it
// repeats. The source is either at least as long as the destination,
// whose bytes are its prefix, or — a fill, a run of identical chunks —
// shorter and a whole divisor of it, the destination being the source
// repeated.
type ShiftRegion struct {
	Node    uint32
	SrcNode uint32
	SrcCkpt uint32
}

// FirstList is a list of first-occurrence nodes in its wire form: 4
// little-endian bytes per node, exactly as the format lays the list
// out. A decoded diff's list aliases the bytes it was decoded from, and
// every hop writes it by reference.
type FirstList []byte

// Len returns the number of nodes in l.
//
//ckptlint:noalloc
func (l FirstList) Len() int { return len(l) / 4 }

// At returns node i of l.
//
//ckptlint:noalloc
func (l FirstList) At(i int) uint32 { return binary.LittleEndian.Uint32(l[4*i:]) }

// Append appends node to l.
//
//ckptlint:noalloc
func (l FirstList) Append(node uint32) FirstList { return binary.LittleEndian.AppendUint32(l, node) }

// ShiftList is a list of shifted-duplicate regions in its wire form: 12
// little-endian bytes per region (node, source node, source checkpoint),
// held like FirstList.
type ShiftList []byte

// Len returns the number of regions in l.
//
//ckptlint:noalloc
func (l ShiftList) Len() int { return len(l) / 12 }

// At returns region i of l.
//
//ckptlint:noalloc
func (l ShiftList) At(i int) ShiftRegion {
	b := l[12*i : 12*i+12]
	return ShiftRegion{
		Node:    binary.LittleEndian.Uint32(b),
		SrcNode: binary.LittleEndian.Uint32(b[4:]),
		SrcCkpt: binary.LittleEndian.Uint32(b[8:]),
	}
}

// Append appends s to l.
//
//ckptlint:noalloc
func (l ShiftList) Append(s ShiftRegion) ShiftList {
	l = binary.LittleEndian.AppendUint32(l, s.Node)
	l = binary.LittleEndian.AppendUint32(l, s.SrcNode)
	return binary.LittleEndian.AppendUint32(l, s.SrcCkpt)
}

// Diff is one incremental checkpoint difference.
type Diff struct {
	Method    Method
	CkptID    uint32
	DataLen   uint64
	ChunkSize uint32

	// FirstOcur lists the tree nodes of first-occurrence regions, in
	// ascending chunk order; Data holds their bytes in the same order.
	// For MethodFull it is empty and Data is the whole buffer. For
	// MethodBasic it is empty and Bitmap+Data describe changed chunks.
	FirstOcur FirstList

	// ShiftDupl lists shifted-duplicate regions (MethodList and
	// MethodTree), in ascending chunk order. A Tree diff's may include
	// fills, whose source tiles a longer destination (see ShiftRegion).
	ShiftDupl ShiftList

	// Bitmap marks changed chunks for MethodBasic, one bit per chunk,
	// LSB-first within each byte.
	Bitmap []byte

	// DataCodec identifies the codec compressing the Data section
	// (0 = uncompressed). Compressing the first-time occurrences
	// inside the difference is the §5 future-work extension
	// ("combining our method with compression techniques").
	DataCodec uint8

	// RawDataLen is the uncompressed length of the data section when
	// DataCodec != 0 (equal to len(Data) otherwise).
	RawDataLen uint64

	// Data is the gathered data section (compressed when DataCodec is
	// set).
	Data []byte
}

const (
	diffMagic     = 0x50_4b_43_47 // "GCKP" little-endian
	formatVersion = 2
	headerSize    = 4 + 1 + 1 + 4 + 8 + 4 + 4 + 4 + 4 + 8 + 1 + 8 // see Encode
)

// MetadataBytes returns the size of the serialized metadata sections
// (everything except the header and the data payload). This is the
// quantity whose "explosion" the Tree method exists to prevent (§2.2).
func (d *Diff) MetadataBytes() int64 {
	return int64(len(d.FirstOcur) + len(d.ShiftDupl) + len(d.Bitmap))
}

// TotalBytes returns the full serialized size of the diff: header,
// metadata and data. Checkpoint sizes and de-duplication ratios in the
// benchmarks are computed from this.
func (d *Diff) TotalBytes() int64 {
	return headerSize + d.MetadataBytes() + int64(len(d.Data))
}

// encodeBufPool recycles the staging buffers in which Encode stages a
// diff's fixed-size header. Pointers to slices are pooled (not slices)
// so Put does not itself allocate.
var encodeBufPool sync.Pool

// errBadMetadata reports a Diff whose region lists hold a part of an
// entry or cannot be expressed in the format's 32-bit counts.
var errBadMetadata = errors.New("checkpoint: region metadata is ragged or exceeds format limits")

// ErrNonCanonical reports a diff header that spells a value in a form
// the encoder never writes: a raw data length other than the data
// section's with no codec set. Each diff has one encoding, so the
// bytes a store holds are the bytes that arrived, and a checksum of
// either names both.
var ErrNonCanonical = errors.New("checkpoint: diff header is not in canonical form")

// Encode writes the canonical little-endian serialization of d: the
// header, then the region lists, the bitmap and the data section, each
// written from where it lies.
//
//ckptlint:noalloc
func (d *Diff) Encode(w io.Writer) error {
	bp, _ := encodeBufPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	defer encodeBufPool.Put(bp)
	hdr, err := d.AppendHeader((*bp)[:0])
	*bp = hdr
	if err != nil {
		return err
	}
	for _, sec := range [...][]byte{hdr, d.FirstOcur, d.ShiftDupl, d.Bitmap, d.Data} {
		if len(sec) == 0 {
			continue
		}
		if _, err := w.Write(sec); err != nil {
			return fmt.Errorf("checkpoint: write diff %d: %w", d.CkptID, err)
		}
	}
	return nil
}

// PrefixBytes returns the encoded length of everything before the data
// section — the split point of the block-mapped container, which
// stores the prefix verbatim and replaces the data section with block
// references.
func (d *Diff) PrefixBytes() int64 { return headerSize + d.MetadataBytes() }

// AppendHeader appends d's fixed-size header to buf and returns the
// extended slice. The sections follow it in the encoding exactly as d
// holds them — FirstOcur, ShiftDupl, Bitmap, Data — so a writer stages
// these bytes and writes the sections behind them by reference: the
// streaming push (writev), the stores' records.
//
//ckptlint:noalloc
func (d *Diff) AppendHeader(buf []byte) ([]byte, error) {
	if len(d.FirstOcur)%4 != 0 || len(d.ShiftDupl)%12 != 0 ||
		uint64(d.FirstOcur.Len()) > math.MaxUint32 ||
		uint64(d.ShiftDupl.Len()) > math.MaxUint32 ||
		uint64(len(d.Bitmap)) > math.MaxUint32 {
		return buf, errBadMetadata
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], diffMagic)
	hdr[4] = formatVersion
	hdr[5] = uint8(d.Method)
	binary.LittleEndian.PutUint32(hdr[6:], d.CkptID)
	binary.LittleEndian.PutUint64(hdr[10:], d.DataLen)
	binary.LittleEndian.PutUint32(hdr[18:], d.ChunkSize)
	binary.LittleEndian.PutUint32(hdr[22:], uint32(d.FirstOcur.Len()))
	binary.LittleEndian.PutUint32(hdr[26:], uint32(d.ShiftDupl.Len()))
	binary.LittleEndian.PutUint32(hdr[30:], uint32(len(d.Bitmap)))
	binary.LittleEndian.PutUint64(hdr[34:], uint64(len(d.Data)))
	hdr[42] = d.DataCodec
	binary.LittleEndian.PutUint64(hdr[43:], d.rawLen())
	return append(buf, hdr[:]...), nil
}

// sectionLens are the section lengths a diff header declares.
type sectionLens struct {
	nFirst, nShift, nBitmap uint32
	nData                   uint64
}

// metaLen is the byte length of the region lists, tailLen that of the
// bitmap and data sections behind them. The counts are bounded by
// parseHeader, so neither sum can wrap.
func (c sectionLens) metaLen() uint64 { return 4*uint64(c.nFirst) + 12*uint64(c.nShift) }
func (c sectionLens) tailLen() uint64 { return uint64(c.nBitmap) + c.nData }

// parseHeader parses the fixed-size header and validates the section
// lengths it declares against the geometry it declares — before
// anything is sized from them, so a corrupt or hostile header cannot
// demand huge buffers (found by the decode-robustness fuzz test).
func parseHeader(hdr []byte) (*Diff, sectionLens, error) {
	var c sectionLens
	if binary.LittleEndian.Uint32(hdr[0:]) != diffMagic {
		return nil, c, errors.New("checkpoint: bad magic")
	}
	if hdr[4] != formatVersion {
		return nil, c, fmt.Errorf("checkpoint: unsupported version %d", hdr[4])
	}
	if Method(hdr[5]) > MethodTree {
		return nil, c, fmt.Errorf("checkpoint: unknown method %d", hdr[5])
	}
	d := &Diff{
		Method:     Method(hdr[5]),
		CkptID:     binary.LittleEndian.Uint32(hdr[6:]),
		DataLen:    binary.LittleEndian.Uint64(hdr[10:]),
		ChunkSize:  binary.LittleEndian.Uint32(hdr[18:]),
		DataCodec:  hdr[42],
		RawDataLen: binary.LittleEndian.Uint64(hdr[43:]),
	}
	c = sectionLens{
		nFirst:  binary.LittleEndian.Uint32(hdr[22:]),
		nShift:  binary.LittleEndian.Uint32(hdr[26:]),
		nBitmap: binary.LittleEndian.Uint32(hdr[30:]),
		nData:   binary.LittleEndian.Uint64(hdr[34:]),
	}
	const maxDataLen = 1 << 42
	if d.DataLen > maxDataLen {
		return nil, c, fmt.Errorf("checkpoint: implausible data length %d", d.DataLen)
	}
	if d.ChunkSize == 0 && (c.nFirst > 0 || c.nShift > 0 || c.nBitmap > 0) {
		return nil, c, errors.New("checkpoint: zero chunk size with chunk metadata")
	}
	var numNodes uint64 = 1
	if d.ChunkSize > 0 {
		numNodes = 2*uint64(NumChunksU64(d.DataLen, uint64(d.ChunkSize))) - 1
	}
	if uint64(c.nFirst) > numNodes || uint64(c.nShift) > numNodes {
		return nil, c, fmt.Errorf("checkpoint: %d+%d regions exceed %d tree nodes", c.nFirst, c.nShift, numNodes)
	}
	if d.ChunkSize > 0 {
		maxBitmap := (NumChunksU64(d.DataLen, uint64(d.ChunkSize)) + 7) / 8
		if uint64(c.nBitmap) > maxBitmap {
			return nil, c, fmt.Errorf("checkpoint: bitmap %d bytes exceeds %d chunks", c.nBitmap, maxBitmap*8)
		}
	}
	if c.nData > d.DataLen+headerSize {
		return nil, c, fmt.Errorf("checkpoint: data section %d exceeds buffer length %d", c.nData, d.DataLen)
	}
	if d.DataCodec != 0 && d.RawDataLen > d.DataLen {
		return nil, c, fmt.Errorf("checkpoint: raw data length %d exceeds buffer length %d", d.RawDataLen, d.DataLen)
	}
	if d.DataCodec == 0 && d.RawDataLen != c.nData {
		return nil, c, fmt.Errorf("%w: raw data length %d but a %d-byte data section and no codec", ErrNonCanonical, d.RawDataLen, c.nData)
	}
	return d, c, nil
}

// setSections fills d's sections from meta and tail, which hold
// exactly c.metaLen() and c.tailLen() bytes. Every section aliases
// them, capped at its length.
func (d *Diff) setSections(c sectionLens, meta, tail []byte) {
	nf, nb := 4*int(c.nFirst), int(c.nBitmap)
	if nf > 0 {
		d.FirstOcur = FirstList(meta[:nf:nf])
	}
	if len(meta) > nf {
		d.ShiftDupl = ShiftList(meta[nf:len(meta):len(meta)])
	}
	if nb > 0 {
		d.Bitmap = tail[:nb:nb]
	}
	if len(tail) > nb {
		d.Data = tail[nb:len(tail):len(tail)]
	}
}

// DecodeBytes parses b, the complete encoding of one diff, by
// reference: every section of the returned diff aliases b, so it is
// valid only while b is — a caller that keeps it longer takes
// ownership with Own or Record.Keep. Every length the header declares
// is checked against len(b) before anything is allocated, and b must
// hold the diff and nothing else.
func DecodeBytes(b []byte) (*Diff, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("checkpoint: read header: %d bytes: %w", len(b), io.ErrUnexpectedEOF)
	}
	d, c, err := parseHeader(b[:headerSize])
	if err != nil {
		return nil, err
	}
	body, want := b[headerSize:], c.metaLen()+c.tailLen()
	if uint64(len(body)) < want {
		return nil, fmt.Errorf("checkpoint: read sections: header declares %d bytes, %d follow: %w", want, len(body), io.ErrUnexpectedEOF)
	} else if uint64(len(body)) > want {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after the diff", uint64(len(body))-want)
	}
	d.setSections(c, body[:c.metaLen()], body[c.metaLen():])
	return d, nil
}

// DecodeCheckpoint is DecodeBytes for a caller that knows which
// checkpoint b must hold: a diff carrying any other id is an error.
func DecodeCheckpoint(ck int, b []byte) (*Diff, error) {
	d, err := DecodeBytes(b)
	if err == nil && int(d.CkptID) != ck {
		err = fmt.Errorf("checkpoint: bytes of checkpoint %d hold diff %d", ck, d.CkptID)
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// OwnedDiffs returns a consumer of encoded checkpoints, in the shape a
// span pull hands them over, for a caller that keeps the diffs: each is
// decoded where it lies, its id cross-checked, given memory of its own
// (the buffer it arrived in is about to be reused) and appended to *out.
// A pull replayed after a transport failure hands its span over from the
// start again; what *out holds from that id on is dropped first.
func OwnedDiffs(out *[]*Diff) func(ck int, encoded []byte) error {
	return func(ck int, encoded []byte) error {
		d, err := DecodeCheckpoint(ck, encoded)
		if err != nil {
			return err
		}
		d.Own()
		if n := len(*out); n > 0 && ck <= int((*out)[n-1].CkptID) {
			*out = (*out)[:max(0, ck-int((*out)[0].CkptID))]
		}
		*out = append(*out, d)
		return nil
	}
}

// Own gives d memory of its own: the sections DecodeBytes left aliasing
// the decoded buffer are copied, all four into one exact-size
// allocation, after which that buffer may be reused.
func (d *Diff) Own() {
	d.moveSections(make([]byte, d.sectionBytes()))
}

// sectionBytes is the total length of d's variable-size sections.
func (d *Diff) sectionBytes() int {
	return len(d.FirstOcur) + len(d.ShiftDupl) + len(d.Bitmap) + len(d.Data)
}

// moveSections copies d's sections back to back into mem, which holds
// exactly sectionBytes, each capped at its length so that an append to
// one never writes into its neighbour.
func (d *Diff) moveSections(mem []byte) {
	mem, d.FirstOcur = moveSection(mem, d.FirstOcur)
	mem, d.ShiftDupl = moveSection(mem, d.ShiftDupl)
	mem, d.Bitmap = moveSection(mem, d.Bitmap)
	_, d.Data = moveSection(mem, d.Data)
}

// moveSection copies s to the front of mem and returns the rest of mem
// and the copy.
func moveSection[S ~[]byte](mem []byte, s S) ([]byte, S) {
	n := copy(mem, s)
	if n == 0 {
		return mem, s[:0:0]
	}
	return mem[n:], S(mem[:n:n])
}

// Decode reads a Diff previously written by Encode from a stream: the
// header, then exactly the bytes it declares — read without trusting
// the declaration for an allocation — parsed as DecodeBytes parses
// them. The diff owns its memory.
func Decode(r io.Reader) (*Diff, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: read header: %w", err)
	}
	d, c, err := parseHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	meta, err := readExactly(r, c.metaLen())
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read metadata: %w", err)
	}
	tail, err := readExactly(r, c.tailLen())
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read bitmap and data: %w", err)
	}
	d.setSections(c, meta, tail)
	return d, nil
}

// readExactly reads exactly n bytes without trusting n for the initial
// allocation: the buffer grows only as bytes actually arrive, so a
// lying header fails with ErrUnexpectedEOF instead of a giant make().
func readExactly(r io.Reader, n uint64) ([]byte, error) {
	var buf bytes.Buffer
	copied, err := io.Copy(&buf, io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, err
	}
	if uint64(copied) != n {
		return nil, io.ErrUnexpectedEOF
	}
	return buf.Bytes(), nil
}

// NumChunksU64 is NumChunks for unvalidated 64-bit geometry.
func NumChunksU64(dataLen, chunkSize uint64) uint64 {
	if dataLen == 0 {
		return 1
	}
	return (dataLen + chunkSize - 1) / chunkSize
}

// BitmapSet marks chunk i as changed in bm.
func BitmapSet(bm []byte, i int) { bm[i/8] |= 1 << (i % 8) }

// BitmapGet reports whether chunk i is marked changed in bm.
func BitmapGet(bm []byte, i int) bool { return bm[i/8]&(1<<(i%8)) != 0 }

// BitmapLen returns the byte length of a bitmap for n chunks.
func BitmapLen(n int) int { return (n + 7) / 8 }

// rawLen returns the uncompressed data-section length.
func (d *Diff) rawLen() uint64 {
	if d.DataCodec != 0 {
		return d.RawDataLen
	}
	return uint64(len(d.Data))
}
