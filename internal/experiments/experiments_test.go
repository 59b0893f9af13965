package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// smallCfg keeps the suite fast: tiny graphs, k=3, few points.
func smallCfg() Config {
	return Config{
		TargetVertices:  1200,
		MaxGraphletSize: 3,
		ChunkSizes:      []int{64, 256},
		Frequencies:     []int{2, 4},
		ProcCounts:      []int{1, 2},
		NumCheckpoints:  4,
		VerifyRestore:   true,
	}
}

func TestDefaultConfig(t *testing.T) {
	d := DefaultConfig()
	if d.TargetVertices <= 0 || len(d.ChunkSizes) != 5 || len(d.Frequencies) != 3 {
		t.Fatalf("defaults wrong: %+v", d)
	}
	// withDefaults fills empty fields.
	c := Config{}.withDefaults()
	if c.NumCheckpoints != d.NumCheckpoints || c.ChunkSize != d.ChunkSize {
		t.Fatal("withDefaults incomplete")
	}
}

func TestTable1(t *testing.T) {
	tb, err := Table1(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(tb.Rows))
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"Message Race", "Asia OSM", "Delaunay N24"} {
		if !strings.Contains(out, name) {
			t.Fatalf("table missing %s:\n%s", name, out)
		}
	}
}

func TestFig4(t *testing.T) {
	tb, rows, err := Fig4(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// 4 graphs x 2 chunk sizes x 4 methods.
	if len(rows) != 4*2*4 {
		t.Fatalf("%d rows, want %d", len(rows), 4*2*4)
	}
	if len(tb.Rows) != len(rows) {
		t.Fatal("table/row mismatch")
	}
	// Tree must beat Full's ratio on every graph at every chunk size.
	ratios := map[string]map[int]map[string]float64{}
	for _, r := range rows {
		if ratios[r.Graph] == nil {
			ratios[r.Graph] = map[int]map[string]float64{}
		}
		if ratios[r.Graph][r.ChunkSize] == nil {
			ratios[r.Graph][r.ChunkSize] = map[string]float64{}
		}
		ratios[r.Graph][r.ChunkSize][r.Label] = r.Ratio
		if !r.RestoreVerified {
			t.Fatalf("row %s/%s not restore-verified", r.Graph, r.Label)
		}
	}
	for g, byChunk := range ratios {
		for cs, byMethod := range byChunk {
			if byMethod["Tree"] <= byMethod["Full"] {
				t.Errorf("%s chunk %d: Tree ratio %.2f <= Full %.2f", g, cs, byMethod["Tree"], byMethod["Full"])
			}
		}
	}
}

func TestFig5(t *testing.T) {
	cfg := smallCfg()
	_, rows, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 graphs x 2 frequencies x (4 methods + 5 codecs).
	want := 4 * 2 * (4 + 5)
	if len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	// Every codec row has a ratio above 1 on GDV data.
	for _, r := range rows {
		if r.Label == "Zstd*" && r.Ratio <= 1 {
			t.Fatalf("Zstd* ratio %.2f", r.Ratio)
		}
	}
}

func TestFig5RejectsNonDivisorFrequencies(t *testing.T) {
	cfg := smallCfg()
	cfg.Frequencies = []int{3, 4}
	if _, _, err := Fig5(cfg); err == nil {
		t.Fatal("non-divisor frequencies accepted")
	}
}

func TestFig6(t *testing.T) {
	tb, rows, err := Fig6(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 proc counts x 2 methods
		t.Fatalf("%d rows, want 4", len(rows))
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Method == "Tree" && r.Ratio <= 1 {
			t.Fatalf("Tree scaling ratio %.2f at %d procs", r.Ratio, r.Procs)
		}
	}
}

func TestAblation(t *testing.T) {
	tb, rows, err := Ablation(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 || len(tb.Rows) != 6 {
		t.Fatalf("%d ablation rows", len(rows))
	}
	base := rows[0]  // paper config
	list := rows[1]  // no compaction
	crypt := rows[5] // expensive hash
	if base.MetaBytes > list.MetaBytes {
		t.Fatalf("compaction increased metadata: %d vs %d", base.MetaBytes, list.MetaBytes)
	}
	if crypt.Throughput >= base.Throughput {
		t.Fatalf("MD5-class hash (%.2e B/s) not slower than Murmur3 (%.2e B/s)",
			crypt.Throughput, base.Throughput)
	}
}

func TestOverhead(t *testing.T) {
	tb, results, err := Overhead(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 || len(results) != 4 {
		t.Fatalf("%d rows, %d results", len(tb.Rows), len(results))
	}
	full := results["Full"]
	tree := results["Tree"]
	// The paper's architecture claim: Full hits host-buffer
	// backpressure at paper-scale sizes; Tree does not.
	if full.SpaceStall == 0 {
		t.Fatal("Full never stalled on host-buffer space")
	}
	if tree.SpaceStall > 0 {
		t.Fatalf("Tree stalled %v on host-buffer space", tree.SpaceStall)
	}
	if tree.IOOverhead() >= full.IOOverhead() {
		t.Fatalf("Tree I/O overhead %v not below Full %v", tree.IOOverhead(), full.IOOverhead())
	}
	if tree.BytesToPFS >= full.BytesToPFS {
		t.Fatal("Tree shipped more bytes than Full")
	}
	if full.Makespan <= 0 || tree.AllFlushed < tree.Makespan {
		t.Fatal("implausible timeline")
	}
}

func TestExtensions(t *testing.T) {
	tb, rows, err := Extensions(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 || len(tb.Rows) != 7 {
		t.Fatalf("%d extension rows", len(rows))
	}
	base := rows[0]
	for _, r := range rows[1:] {
		if !r.RestoreVerified {
			t.Fatalf("%s not restore-verified", r.Label)
		}
	}
	// Compressing first occurrences must not grow the record.
	for _, i := range []int{1, 2, 3} {
		if rows[i].StoredBytes > base.StoredBytes {
			t.Fatalf("%s stored %d > baseline %d", rows[i].Label, rows[i].StoredBytes, base.StoredBytes)
		}
	}
	// Streaming must not reduce throughput.
	if rows[4].Throughput < base.Throughput {
		t.Fatalf("streaming throughput %.2e below baseline %.2e", rows[4].Throughput, base.Throughput)
	}
	// Verification changes nothing on collision-free input.
	if rows[6].StoredBytes != base.StoredBytes {
		t.Fatalf("verification changed stored bytes: %d vs %d", rows[6].StoredBytes, base.StoredBytes)
	}
}

func TestAdjoint(t *testing.T) {
	cfg := smallCfg()
	tb, rows, err := Adjoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 || len(tb.Rows) != 8 { // 2 solvers x 4 methods
		t.Fatalf("%d adjoint rows", len(rows))
	}
	for _, solver := range []string{"heat2d", "wave2d"} {
		full, ok1 := adjointRowsByMethod(rows, solver, "Full")
		tree, ok2 := adjointRowsByMethod(rows, solver, "Tree")
		if !ok1 || !ok2 {
			t.Fatalf("%s rows missing", solver)
		}
		if tree.Stored >= full.Stored {
			t.Fatalf("%s: Tree stored %d not below Full %d", solver, tree.Stored, full.Stored)
		}
		if tree.Ratio <= 1 || tree.Throughput <= 0 {
			t.Fatalf("%s: degenerate tree row %+v", solver, tree)
		}
	}
}

func TestHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// The shape-regression harness needs a scale where the paper's
	// trends are visible; 6000 vertices / maxk 4 suffices and runs in
	// a few seconds.
	cfg := Config{
		TargetVertices:  6000,
		MaxGraphletSize: 4,
		ChunkSizes:      []int{32, 128, 512},
		Frequencies:     []int{5, 10, 20},
		ProcCounts:      []int{1, 8},
		NumCheckpoints:  10,
	}
	tb, claims, err := Headline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) != 7 || len(tb.Rows) != 7 {
		t.Fatalf("%d claims", len(claims))
	}
	for _, c := range claims {
		if !c.Pass {
			t.Errorf("claim %s failed: %s (%s)", c.ID, c.Text, c.Detail)
		}
	}
}

// adjointRowsByMethod indexes results for assertions and reports.
func adjointRowsByMethod(rows []AdjointResult, solver, method string) (AdjointResult, bool) {
	for _, r := range rows {
		if r.Solver == solver && r.Method == method {
			return r, true
		}
	}
	return AdjointResult{}, false
}
