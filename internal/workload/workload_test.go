package workload

import (
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/compress"
	"github.com/gpuckpt/gpuckpt/internal/graph"
	"github.com/gpuckpt/gpuckpt/internal/oranges"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

func testSeries(t *testing.T, n int) *Series {
	t.Helper()
	g, err := graph.Bubbles(36, 36, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildGDVSeries(g, n, 4, parallel.NewPool(4))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildGDVSeries(t *testing.T) {
	s := testSeries(t, 6)
	if len(s.Images) != 6 || len(s.Digests) != 6 {
		t.Fatalf("series has %d images", len(s.Images))
	}
	want := ((36*36 + oranges.VertexPad - 1) / oranges.VertexPad) * oranges.VertexPad * oranges.NumOrbits * 4
	if s.DataLen != want {
		t.Fatalf("data len %d want %d", s.DataLen, want)
	}
	for _, img := range s.Images {
		if len(img) != want {
			t.Fatal("image size mismatch")
		}
	}
	if s.Graph != "Hugebubbles" {
		t.Fatalf("graph name %q", s.Graph)
	}
	// Images must be distinct snapshots (counters grow).
	if s.Digests[0] == s.Digests[5] {
		t.Fatal("first and last snapshots identical")
	}
}

func TestSubsample(t *testing.T) {
	s := testSeries(t, 8)
	sub, err := s.Subsample(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Images) != 4 {
		t.Fatalf("subsample has %d images", len(sub.Images))
	}
	// Snapshot j of the subseries is image (j+1)*2-1 of the base.
	for j := 0; j < 4; j++ {
		if sub.Digests[j] != s.Digests[(j+1)*2-1] {
			t.Fatalf("subsample image %d mismatched", j)
		}
	}
	// Last snapshots coincide (full progress).
	if sub.Digests[3] != s.Digests[7] {
		t.Fatal("final snapshot mismatch")
	}
	if _, err := s.Subsample(3); err == nil {
		t.Fatal("non-divisor subsample accepted")
	}
	if _, err := s.Subsample(0); err == nil {
		t.Fatal("zero subsample accepted")
	}
}

func TestRunMethodAllMethods(t *testing.T) {
	s := testSeries(t, 5)
	opts := Options{VerifyRestore: true} // chunk size 128, the default
	rows := map[checkpoint.Method]Row{}
	for _, m := range checkpoint.Methods() {
		row, err := RunMethod(s, m, opts)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !row.RestoreVerified {
			t.Fatalf("%v: restore not verified", m)
		}
		if row.InputBytes != int64(s.DataLen)*4 { // ckpts 1..4
			t.Fatalf("%v: input bytes %d", m, row.InputBytes)
		}
		if row.Ratio <= 0 || row.Throughput <= 0 {
			t.Fatalf("%v: degenerate row %+v", m, row)
		}
		rows[m] = row
	}
	full := rows[checkpoint.MethodFull]
	tree := rows[checkpoint.MethodTree]
	basic := rows[checkpoint.MethodBasic]
	list := rows[checkpoint.MethodList]
	if full.Ratio > 1.01 {
		t.Fatalf("Full ratio %.3f > 1", full.Ratio)
	}
	// Incremental methods beat Full on GDV series; Tree stores no more
	// than List (same data, compacted metadata).
	if basic.Ratio <= full.Ratio || list.Ratio <= full.Ratio || tree.Ratio <= full.Ratio {
		t.Fatalf("incremental ratios not above Full: basic %.2f list %.2f tree %.2f full %.2f",
			basic.Ratio, list.Ratio, tree.Ratio, full.Ratio)
	}
	if tree.StoredBytes > list.StoredBytes {
		t.Fatalf("Tree stored %d > List %d", tree.StoredBytes, list.StoredBytes)
	}
	if tree.MetaBytes > list.MetaBytes {
		t.Fatalf("Tree metadata %d > List %d", tree.MetaBytes, list.MetaBytes)
	}
}

func TestRunCodec(t *testing.T) {
	s := testSeries(t, 4)
	for _, c := range compress.Registry() {
		row, err := RunCodec(s, c, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if row.Ratio <= 1 {
			t.Fatalf("%s: ratio %.2f on sparse GDV data", c.Name(), row.Ratio)
		}
		if row.Throughput <= 0 {
			t.Fatalf("%s: no throughput", c.Name())
		}
		if row.Label != c.Name() || row.Graph != s.Graph {
			t.Fatalf("%s: row identity wrong: %+v", c.Name(), row)
		}
	}
}

func TestChunkSweep(t *testing.T) {
	s := testSeries(t, 4)
	methods := []checkpoint.Method{checkpoint.MethodFull, checkpoint.MethodTree}
	rows, err := ChunkSweep(s, methods, []int{64, 256}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	// Tree at 64 B chunks should de-duplicate at least as well as at
	// 256 B (finer granularity finds more redundancy).
	var tree64, tree256 float64
	for _, r := range rows {
		if r.Label == "Tree" && r.ChunkSize == 64 {
			tree64 = r.Ratio
		}
		if r.Label == "Tree" && r.ChunkSize == 256 {
			tree256 = r.Ratio
		}
	}
	if tree64 < tree256*0.9 {
		t.Fatalf("Tree ratio at 64 B (%.2f) much worse than at 256 B (%.2f)", tree64, tree256)
	}
}

func TestFrequencyTemporalRedundancy(t *testing.T) {
	s := testSeries(t, 16)
	methods := []checkpoint.Method{checkpoint.MethodTree}
	codecs := []compress.Codec{compress.NewCascaded()}
	rows, err := Frequency(s, []int{4, 16}, methods, codecs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var tree4, tree16 float64
	for _, r := range rows {
		if r.Label == "Tree" {
			switch r.NumCkpts {
			case 4:
				tree4 = r.Ratio
			case 16:
				tree16 = r.Ratio
			}
		}
	}
	// §3.3: increasing checkpoint frequency increases the temporal
	// redundancy de-duplication can exploit.
	if tree16 <= tree4 {
		t.Fatalf("Tree ratio at N=16 (%.2f) not above N=4 (%.2f)", tree16, tree4)
	}
}

func TestScalingReduction(t *testing.T) {
	g, err := graph.DelaunayLike(30, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Scaling(ScalingConfig{
		Graph:           g,
		ProcCounts:      []int{1, 4},
		GPUsPerNode:     8,
		NumCheckpoints:  4,
		MaxGraphletSize: 4,
		Methods:         []checkpoint.Method{checkpoint.MethodFull, checkpoint.MethodTree},
		Options:         Options{}, // chunk size 128, the default
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	get := func(procs int, m string) ScalingRow {
		for _, r := range rows {
			if r.Procs == procs && r.Method == m {
				return r
			}
		}
		t.Fatalf("row %d/%s missing", procs, m)
		return ScalingRow{}
	}
	padded := (g.NumVertices() + oranges.VertexPad - 1) / oranges.VertexPad * oranges.VertexPad
	gdvBytes := int64(padded * oranges.NumOrbits * 4)
	f1 := get(1, "Full")
	f4 := get(4, "Full")
	t1 := get(1, "Tree")
	t4 := get(4, "Tree")
	// Full checkpoint volume scales with process count.
	if f1.TotalInput != 4*gdvBytes || f4.TotalInput != 16*gdvBytes {
		t.Fatalf("full input %d/%d, want %d/%d", f1.TotalInput, f4.TotalInput, 4*gdvBytes, 16*gdvBytes)
	}
	if f4.TotalStored < f4.TotalInput {
		t.Fatalf("Full stored %d below input %d", f4.TotalStored, f4.TotalInput)
	}
	// Tree shrinks the record, and the reduction grows with scale
	// (each process's updates get sparser).
	if t1.Ratio <= 1 || t4.Ratio <= t1.Ratio {
		t.Fatalf("Tree scaling ratios not increasing: %0.2f -> %0.2f", t1.Ratio, t4.Ratio)
	}
	if t4.TotalStored >= f4.TotalStored {
		t.Fatal("Tree did not reduce total checkpoint size at scale")
	}
	if t4.Throughput <= 0 || f4.Throughput <= 0 {
		t.Fatal("degenerate throughput")
	}
}

func TestScalingValidation(t *testing.T) {
	if _, err := Scaling(ScalingConfig{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g, _ := graph.Bubbles(4, 4, 7)
	if _, err := Scaling(ScalingConfig{Graph: g, ProcCounts: []int{0}}); err == nil {
		t.Fatal("zero procs accepted")
	}
}
