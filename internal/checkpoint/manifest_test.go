package checkpoint

import (
	"encoding/binary"
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
		{Base: 8, Generation: 3, Pins: []uint32{8, 12, 60}, segment: 2},
	}
	for _, m := range cases {
		b, err := m.Encode()
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		got, err := DecodeManifest(b)
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if !reflect.DeepEqual(*got, m) {
			t.Fatalf("round trip: got %+v, want %+v", *got, m)
		}
	}
}

func TestManifestEncodeRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		m    Manifest
	}{
		{"pin below base", Manifest{Base: 10, Pins: []uint32{5}}},
		{"unsorted pins", Manifest{Pins: []uint32{9, 3}}},
		{"duplicate pins", Manifest{Pins: []uint32{3, 3}}},
	}
	for _, tc := range cases {
		if _, err := tc.m.Encode(); err == nil {
			t.Errorf("%s: encoded", tc.name)
		}
	}
}

func TestManifestDecodeDefensive(t *testing.T) {
	valid, err := (&Manifest{Base: 2, Generation: 1, Pins: []uint32{4}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return f(b)
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"truncated header", valid[:manifestHdrSize-1]},
		{"bad magic", mutate(func(b []byte) []byte { b[0] ^= 0xFF; return b })},
		{"bad version", mutate(func(b []byte) []byte { b[4] = 99; return b })},
		{"pin count over payload", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[21:], 1<<30)
			return b
		})},
		{"trailing garbage", append(append([]byte(nil), valid...), 0)},
		{"pin below base", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[manifestHdrSize:], 1)
			return b
		})},
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
	want := &Manifest{Base: 5, Generation: 2, Pins: []uint32{6, 9}, segment: 1}
	if renamed, err := writeManifestFile(path, want, nil); err != nil || !renamed {
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

func TestDiffRebase(t *testing.T) {
	d := &Diff{
		Method: MethodTree, CkptID: 57, DataLen: 64, ChunkSize: 8,
		ShiftDupl: []ShiftRegion{{Node: 1, SrcNode: 2, SrcCkpt: 50}, {Node: 3, SrcNode: 4, SrcCkpt: 57}},
	}
	if err := d.Rebase(-50); err != nil {
		t.Fatal(err)
	}
	if d.CkptID != 7 || d.ShiftDupl[0].SrcCkpt != 0 || d.ShiftDupl[1].SrcCkpt != 7 {
		t.Fatalf("rebase result wrong: %+v", d)
	}
	if err := d.Rebase(50); err != nil {
		t.Fatal(err)
	}
	if d.CkptID != 57 || d.ShiftDupl[0].SrcCkpt != 50 {
		t.Fatalf("rebase not symmetric: %+v", d)
	}

	// A shift out of uint32 range fails atomically: no field changes.
	bad := &Diff{
		CkptID:    10,
		ShiftDupl: []ShiftRegion{{SrcCkpt: 10}, {SrcCkpt: 3}},
	}
	if err := bad.Rebase(-5); err == nil {
		t.Fatal("out-of-range rebase accepted")
	}
	if bad.CkptID != 10 || bad.ShiftDupl[0].SrcCkpt != 10 || bad.ShiftDupl[1].SrcCkpt != 3 {
		t.Fatalf("failed rebase mutated the diff: %+v", bad)
	}
}

func TestDiffCloneShallow(t *testing.T) {
	d := &Diff{
		CkptID:    4,
		ShiftDupl: []ShiftRegion{{SrcCkpt: 2}},
		Data:      []byte{1, 2, 3},
	}
	cp := d.CloneShallow()
	if err := cp.Rebase(10); err != nil {
		t.Fatal(err)
	}
	if d.CkptID != 4 || d.ShiftDupl[0].SrcCkpt != 2 {
		t.Fatalf("rebase of clone mutated original: %+v", d)
	}
	if &cp.Data[0] != &d.Data[0] {
		t.Fatal("clone copied the data section")
	}
}
