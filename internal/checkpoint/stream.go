package checkpoint

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
)

// ReadStream decodes the n-byte encoding of one diff as it arrives on
// r, and consumes exactly those n bytes whatever they hold, so the
// stream stays framed: the header into d, the region lists and the
// bitmap appended to meta — d's sections alias what was appended, and
// meta grows only as those bytes arrive — and the data section handed
// to data, if it is not nil, piece by piece straight out of r's buffer:
// every piece but the last is a whole multiple of cut bytes long, so
// cutting each at cut bytes cuts the section where cutting it whole
// would. A piece is valid only for the call. d.Data stays nil.
//
// It accepts exactly what DecodeBytes accepts, with its errors. A
// malformed diff, or the first error data returns (after which data is
// not called again), comes back as bad once the n bytes are consumed;
// err is a read failure of r, after which the stream is torn. crc is
// the CRC32C of the bytes consumed, all n of them unless err is set.
// cut must be at least 1 and at most r.Size().
func ReadStream(r *bufio.Reader, n int64, d *Diff, meta []byte, cut int, data func([]byte) error) (_ []byte, crc uint32, bad, err error) {
	// take consumes k bytes into crc, handing each piece to use.
	take := func(k uint64, use func([]byte)) error {
		for k > 0 {
			p, err := r.Peek(int(min(k, uint64(r.Size()))))
			if len(p) == 0 {
				return truncated(err)
			}
			crc = crc32.Update(crc, castagnoli, p)
			if use != nil {
				use(p)
			}
			r.Discard(len(p))
			k -= uint64(len(p))
		}
		return nil
	}
	if n < headerSize {
		bad = fmt.Errorf("checkpoint: read header: %d bytes: %w", n, io.ErrUnexpectedEOF)
	}
	rest := uint64(max(n, 0))
	defer func() {
		if err == nil && bad != nil { // consume what the diff did not
			err = take(rest, nil)
		}
	}()
	if bad != nil {
		return meta, crc, bad, nil
	}
	hdr, err := r.Peek(headerSize)
	if err != nil {
		return meta, crc, nil, truncated(err)
	}
	crc = crc32.Update(crc, castagnoli, hdr)
	c, bad := d.parseHeader(hdr)
	r.Discard(headerSize)
	rest -= headerSize
	switch want := c.metaLen() + c.tailLen(); {
	case bad != nil:
		return meta, crc, bad, nil
	case rest < want:
		return meta, crc, fmt.Errorf("checkpoint: read sections: header declares %d bytes, %d follow: %w", want, rest, io.ErrUnexpectedEOF), nil
	case rest > want:
		return meta, crc, fmt.Errorf("checkpoint: %d trailing bytes after the diff", rest-want), nil
	}
	at, lists := len(meta), c.metaLen()+uint64(c.nBitmap)
	if err := take(lists, func(p []byte) { meta = append(meta, p...) }); err != nil {
		return meta, crc, nil, err
	}
	rest -= lists
	d.setSections(c, meta[at:at+int(c.metaLen())], meta[at+int(c.metaLen()):])
	for rest > 0 {
		// At least one whole cut, or the short end of the section; then
		// what r holds beyond it, cut down to whole cuts.
		if _, err := r.Peek(int(min(rest, uint64(cut)))); err != nil {
			return meta, crc, nil, truncated(err)
		}
		k := min(rest, uint64(r.Buffered()))
		if k < rest {
			k -= k % uint64(cut)
		}
		p, _ := r.Peek(int(k))
		crc = crc32.Update(crc, castagnoli, p)
		if data != nil && bad == nil {
			bad = data(p)
		}
		r.Discard(int(k))
		rest -= k
	}
	return meta, crc, bad, nil
}

// truncated is a read failure inside a diff whose length was declared:
// EOF there is an unexpected one.
func truncated(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("checkpoint: read diff: %w", err)
}
