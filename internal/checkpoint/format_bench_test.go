package checkpoint

import (
	"bytes"
	"io"
	"testing"
)

func benchDiff() *Diff {
	var firsts FirstList
	var shifts ShiftList
	var dataLen int
	for i := range 96 {
		firsts = firsts.Append(uint32(1023 + 4*i)) // leaves of a 1024-leaf tree
		dataLen += 128
	}
	for i := range 32 {
		shifts = shifts.Append(ShiftRegion{Node: uint32(1023 + 4*96 + i), SrcNode: 1023, SrcCkpt: 0})
	}
	data := make([]byte, dataLen)
	for i := range data {
		data[i] = byte(i)
	}
	return &Diff{
		Method:    MethodTree,
		CkptID:    3,
		DataLen:   1024 * 128,
		ChunkSize: 128,
		FirstOcur: firsts,
		ShiftDupl: shifts,
		Data:      data,
	}
}

// TestEncodeSteadyStateAllocs proves the pooled staging buffer makes
// Encode allocation-free once warm.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	d := benchDiff()
	// Warm the buffer pool.
	for i := 0; i < 10; i++ {
		if err := d.Encode(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := d.Encode(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if avg >= 1 {
		t.Errorf("Encode allocates %.2f per op steady-state, want 0", avg)
	}
}

func BenchmarkDiffEncode(b *testing.B) {
	d := benchDiff()
	b.SetBytes(d.TotalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Encode(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiffRoundTrip(b *testing.B) {
	d := benchDiff()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	wire := buf.Bytes()
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := Decode(bytes.NewReader(wire))
		if err != nil {
			b.Fatal(err)
		}
		if got.CkptID != d.CkptID || got.FirstOcur.Len() != d.FirstOcur.Len() {
			b.Fatal("round trip mismatch")
		}
	}
}
