package compress

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
)

// deflateCodec wraps the standard library DEFLATE implementation. At
// default level it stands in for nvCOMP's Deflate backend; at maximum
// level it serves as the high-ratio stand-in for Zstd (the stdlib has
// no zstd — see DESIGN.md §1), which the paper shows beating
// de-duplication at low checkpoint frequency (§3.3).
type deflateCodec struct {
	name  string
	level int
	rate  float64
}

// NewDeflate returns the Deflate baseline (default compression level).
func NewDeflate() Codec {
	return deflateCodec{name: "Deflate", level: flate.DefaultCompression, rate: 6e9}
}

// NewZstdProxy returns the maximum-effort Deflate configuration used
// as the Zstd ratio stand-in. The name carries the asterisk into every
// report so the substitution stays visible.
func NewZstdProxy() Codec {
	return deflateCodec{name: "Zstd*", level: flate.BestCompression, rate: 2.5e9}
}

func (d deflateCodec) Name() string         { return d.name }
func (d deflateCodec) ModeledRate() float64 { return d.rate }

func (d deflateCodec) Compress(src []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, d.level)
	if err != nil {
		return nil, fmt.Errorf("deflate: %w", err)
	}
	if _, err := w.Write(src); err != nil {
		return nil, fmt.Errorf("deflate: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("deflate: %w", err)
	}
	return buf.Bytes(), nil
}

func (d deflateCodec) Decompress(src []byte, dstLen int) ([]byte, error) {
	if dstLen < 0 {
		return nil, fmt.Errorf("deflate: negative output length %d", dstLen)
	}
	r := flate.NewReader(bytes.NewReader(src))
	defer r.Close()
	dst := make([]byte, 0, dstLen)
	buf := make([]byte, 64<<10)
	for {
		n, err := r.Read(buf)
		if len(dst)+n > dstLen {
			return nil, fmt.Errorf("deflate: output overruns %d bytes", dstLen)
		}
		dst = append(dst, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("deflate: %w", err)
		}
	}
	if len(dst) != dstLen {
		return nil, fmt.Errorf("deflate: decompressed %d bytes, want %d", len(dst), dstLen)
	}
	return dst, nil
}
