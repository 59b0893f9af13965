package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"github.com/gpuckpt/gpuckpt/internal/recframe"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	cases := []Manifest{
		{},
		{Base: 0, Generation: 1},
		{Base: 7, Generation: 42},
		{Base: 8, Generation: 3, segment: 2},
	}
	for _, m := range cases {
		got, err := DecodeManifest(m.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if !reflect.DeepEqual(*got, m) {
			t.Fatalf("round trip: got %+v, want %+v", *got, m)
		}
	}
}

// TestManifestParentCommitBytes pins the v2 manifest bytes across the
// removal of pins: a pin-less manifest as the parent commit wrote it
// (pin count 0 at offset 21) decodes and re-encodes byte-identically,
// and one that does carry pins — only a test could ever write it — is
// refused typed, not read as if the pins were not there.
func TestManifestParentCommitBytes(t *testing.T) {
	// (&Manifest{Base: 8, Generation: 3, segment: 2}).Encode() at f130f1d,
	// and the same with Pins: []uint32{8, 12, 60}.
	plain, _ := hex.DecodeString("47434c4d020800000003000000000000000200000000000000")
	pinned, _ := hex.DecodeString("47434c4d020800000003000000000000000200000003000000080000000c0000003c000000")
	m, err := DecodeManifest(plain)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Manifest{Base: 8, Generation: 3, segment: 2}); *m != want {
		t.Fatalf("decoded %+v, want %+v", *m, want)
	}
	if got := m.Encode(); !bytes.Equal(got, plain) {
		t.Fatalf("re-encoded %x, want %x", got, plain)
	}
	if _, err := DecodeManifest(pinned); !errors.Is(err, ErrManifestReserved) {
		t.Fatalf("pinned manifest: %v, want ErrManifestReserved", err)
	}
}

func TestManifestDecodeDefensive(t *testing.T) {
	valid := (&Manifest{Base: 2, Generation: 1}).Encode()
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return f(b)
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"truncated header", valid[:manifestSize-1]},
		{"bad magic", mutate(func(b []byte) []byte { b[0] ^= 0xFF; return b })},
		{"bad version", mutate(func(b []byte) []byte { b[4] = 99; return b })},
		{"reserved field set", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[21:], 1<<30)
			return b
		})},
		{"trailing garbage", append(append([]byte(nil), valid...), 0)},
	}
	for _, tc := range cases {
		if _, err := DecodeManifest(tc.b); err == nil {
			t.Errorf("%s: decoded", tc.name)
		}
	}
}

func TestManifestFileIO(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestFileName)
	want := &Manifest{Base: 5, Generation: 2, segment: 1}
	if renamed, err := recframe.Commit(nil, path, want.Encode()); err != nil || !renamed {
		t.Fatal(renamed, err)
	}
	got, err := ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	// The atomic write must leave no temp debris behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("staging file left behind: %v", entries)
	}
	// A missing manifest surfaces as os.IsNotExist so the store can
	// treat it as "never compacted, base 0".
	if _, err := ReadManifestFile(filepath.Join(dir, "absent")); !os.IsNotExist(err) {
		t.Fatalf("missing manifest: got %v, want not-exist", err)
	}
}
