package oranges

import (
	"math/bits"
	"math/rand"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/graph"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

func TestTableTotals(t *testing.T) {
	tb := DefaultTables()
	if len(tb.Classes) != NumGraphlets {
		t.Fatalf("%d classes, want %d", len(tb.Classes), NumGraphlets)
	}
	perSizeGraphlets := map[int]int{}
	perSizeOrbits := map[int]int{}
	totalOrbits := 0
	for _, c := range tb.Classes {
		perSizeGraphlets[c.Size]++
		perSizeOrbits[c.Size] += c.NumOrbits
		totalOrbits += c.NumOrbits
	}
	// Known counts: connected graphs on 2/3/4/5 vertices and their
	// automorphism orbit totals (Pržulj).
	wantGraphlets := map[int]int{2: 1, 3: 2, 4: 6, 5: 21}
	wantOrbits := map[int]int{2: 1, 3: 3, 4: 11, 5: 58}
	for k := 2; k <= 5; k++ {
		if perSizeGraphlets[k] != wantGraphlets[k] {
			t.Errorf("size %d: %d graphlets, want %d", k, perSizeGraphlets[k], wantGraphlets[k])
		}
		if perSizeOrbits[k] != wantOrbits[k] {
			t.Errorf("size %d: %d orbits, want %d", k, perSizeOrbits[k], wantOrbits[k])
		}
	}
	if totalOrbits != NumOrbits {
		t.Fatalf("total orbits %d, want %d", totalOrbits, NumOrbits)
	}
	// Classes are sorted and ids sequential.
	for i, c := range tb.Classes {
		if c.ID != i {
			t.Fatalf("class %d has id %d", i, c.ID)
		}
		if i > 0 {
			p := tb.Classes[i-1]
			if c.Size < p.Size || (c.Size == p.Size && c.Edges < p.Edges) {
				t.Fatalf("classes not sorted at %d", i)
			}
		}
	}
	// Orbit ids are globally sequential in class order.
	next := 0
	for _, c := range tb.Classes {
		seen := map[int]bool{}
		for _, o := range c.OrbitOfPosition {
			if !seen[o] {
				if o != next {
					t.Fatalf("class %d orbit %d out of order (want %d)", c.ID, o, next)
				}
				seen[o] = true
				next++
			}
		}
	}
}

func TestTableLookupsConsistent(t *testing.T) {
	tb := DefaultTables()
	// Every connected mask classifies; isomorphic masks agree on the
	// multiset of orbits; disconnected masks are -1.
	for k := 2; k <= MaxGraphletSize; k++ {
		nPairs := k * (k - 1) / 2
		perms := permutations(k)
		for mask := 0; mask < 1<<nPairs; mask++ {
			if !connectedMask(uint16(mask), k) {
				if tb.ClassOf(k, uint16(mask)) != -1 {
					t.Fatalf("disconnected mask %b classified", mask)
				}
				continue
			}
			ci := tb.ClassOf(k, uint16(mask))
			if ci < 0 {
				t.Fatalf("connected mask %b not classified", mask)
			}
			cls := tb.Classes[ci]
			if cls.Size != k || cls.Edges != bits.OnesCount16(uint16(mask)) {
				t.Fatalf("mask %b classified as %+v", mask, cls)
			}
			// Permuting the mask must permute positions consistently.
			p := perms[1%len(perms)]
			pm := permuteMask(uint16(mask), p, k)
			if tb.ClassOf(k, pm) != ci {
				t.Fatalf("isomorphic masks in different classes")
			}
			for pos := 0; pos < k; pos++ {
				if tb.OrbitOf(k, uint16(mask), pos) != tb.OrbitOf(k, pm, p[pos]) {
					t.Fatalf("orbit not invariant under relabeling (k=%d mask=%b pos=%d)", k, mask, pos)
				}
			}
		}
	}
}

func mustRunner(t *testing.T, g *graph.Graph, maxK int) *Runner {
	t.Helper()
	r, err := NewRunner(g, parallel.NewPool(4), maxK)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func fullGDV(t *testing.T, g *graph.Graph, maxK int) *GDV {
	t.Helper()
	r := mustRunner(t, g, maxK)
	if err := r.ProcessRange(0, g.NumVertices()); err != nil {
		t.Fatal(err)
	}
	return r.GDV()
}

func TestPathGraphGDV(t *testing.T) {
	g, _ := graph.Build("p3", 3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	gdv := fullGDV(t, g, 5)
	// Our numbering: orbit 0 = edge; orbit 1 = P3 center; orbit 2 = P3
	// end; orbit 3 = triangle.
	cases := []struct {
		v     int32
		orbit int
		want  uint32
	}{
		{0, 0, 1}, {1, 0, 2}, {2, 0, 1},
		{0, 2, 1}, {1, 1, 1}, {2, 2, 1},
		{0, 1, 0}, {1, 2, 0}, {0, 3, 0},
	}
	for _, c := range cases {
		if got := gdv.Count(c.v, c.orbit); got != c.want {
			t.Errorf("vertex %d orbit %d = %d, want %d", c.v, c.orbit, got, c.want)
		}
	}
}

func TestTriangleGDV(t *testing.T) {
	g, _ := graph.Build("k3", 3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	gdv := fullGDV(t, g, 5)
	for v := int32(0); v < 3; v++ {
		if gdv.Count(v, 0) != 2 {
			t.Errorf("vertex %d edge orbit = %d, want 2", v, gdv.Count(v, 0))
		}
		if gdv.Count(v, 3) != 1 {
			t.Errorf("vertex %d triangle orbit = %d, want 1", v, gdv.Count(v, 3))
		}
		if gdv.Count(v, 1) != 0 || gdv.Count(v, 2) != 0 {
			t.Errorf("vertex %d has induced-P3 counts in a triangle", v)
		}
	}
}

// bruteForceGDV enumerates every vertex subset of size 2..maxK and
// classifies the connected ones — the gold reference for ESU.
func bruteForceGDV(g *graph.Graph, maxK int) *GDV {
	tb := DefaultTables()
	gdv := NewGDV(g.NumVertices())
	n := g.NumVertices()
	var sub []int32
	var rec func(start int)
	rec = func(start int) {
		if len(sub) >= 2 {
			var mask uint16
			for j := 1; j < len(sub); j++ {
				for i := 0; i < j; i++ {
					if g.HasEdge(sub[i], sub[j]) {
						mask |= 1 << pairIndex(i, j)
					}
				}
			}
			if connectedMask(mask, len(sub)) {
				for pos, v := range sub {
					gdv.Add(v, tb.OrbitOf(len(sub), mask, pos))
				}
			}
		}
		if len(sub) == maxK {
			return
		}
		for v := start; v < n; v++ {
			sub = append(sub, int32(v))
			rec(v + 1)
			sub = sub[:len(sub)-1]
		}
	}
	rec(0)
	return gdv
}

func TestESUMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		n := 8 + rng.Intn(5)
		var edges []graph.Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					edges = append(edges, graph.Edge{U: int32(i), V: int32(j)})
				}
			}
		}
		g, err := graph.Build("rand", n, edges)
		if err != nil {
			t.Fatal(err)
		}
		for _, maxK := range []int{2, 3, 4, 5} {
			esu := fullGDV(t, g, maxK)
			ref := bruteForceGDV(g, maxK)
			if !esu.Equal(ref) {
				for v := int32(0); int(v) < n; v++ {
					for o := 0; o < NumOrbits; o++ {
						if esu.Count(v, o) != ref.Count(v, o) {
							t.Fatalf("trial %d maxK %d: vertex %d orbit %d: esu %d brute %d",
								trial, maxK, v, o, esu.Count(v, o), ref.Count(v, o))
						}
					}
				}
			}
		}
	}
}

func TestGlobalIdentities(t *testing.T) {
	g, err := graph.DelaunayLike(12, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	gdv := fullGDV(t, g, 3)
	var orbit0, orbit3 uint64
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		orbit0 += uint64(gdv.Count(v, 0))
		orbit3 += uint64(gdv.Count(v, 3))
	}
	if orbit0 != uint64(g.NumEdges()) {
		t.Fatalf("edge-orbit total %d, want %d (directed entries)", orbit0, g.NumEdges())
	}
	if orbit3%3 != 0 || orbit3 == 0 {
		t.Fatalf("triangle-orbit total %d not a positive multiple of 3", orbit3)
	}
}

func TestStridePartitionSumsToFull(t *testing.T) {
	g, err := graph.MessageRace(8, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	full := fullGDV(t, g, 4)
	const procs = 3
	parts := make([]*GDV, procs)
	for p := 0; p < procs; p++ {
		r := mustRunner(t, g, 4)
		if err := r.RunStrideWithSnapshots(p, procs, 1, nil); err != nil {
			t.Fatal(err)
		}
		parts[p] = r.GDV()
	}
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		for o := 0; o < NumOrbits; o++ {
			var sum uint32
			for p := 0; p < procs; p++ {
				sum += parts[p].Count(v, o)
			}
			if sum != full.Count(v, o) {
				t.Fatalf("vertex %d orbit %d: partition sum %d != full %d", v, o, sum, full.Count(v, o))
			}
		}
	}
}

func TestRunWithSnapshots(t *testing.T) {
	g, err := graph.Bubbles(10, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRunner(t, g, 4)
	var images [][]byte
	err = r.RunWithSnapshots(5, func(ck int, img []byte) error {
		cp := make([]byte, len(img))
		copy(cp, img)
		images = append(images, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(images) != 5 {
		t.Fatalf("%d snapshots, want 5", len(images))
	}
	if r.Processed() != g.NumVertices() {
		t.Fatalf("processed %d of %d", r.Processed(), g.NumVertices())
	}
	// Counters are nondecreasing across snapshots, and the final
	// snapshot equals a single-shot run.
	for k := 1; k < len(images); k++ {
		a, _ := DeserializeGDV(images[k-1], g.NumVertices())
		b, _ := DeserializeGDV(images[k], g.NumVertices())
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			for o := 0; o < NumOrbits; o++ {
				if b.Count(v, o) < a.Count(v, o) {
					t.Fatalf("counter decreased between snapshots %d and %d", k-1, k)
				}
			}
		}
	}
	final, _ := DeserializeGDV(images[4], g.NumVertices())
	if !final.Equal(fullGDV(t, g, 4)) {
		t.Fatal("final snapshot != one-shot GDV")
	}
	if r.SubgraphCount() <= 0 {
		t.Fatal("no subgraphs counted")
	}
}

func TestRunnerValidation(t *testing.T) {
	g, _ := graph.Bubbles(4, 4, 7)
	if _, err := NewRunner(nil, nil, 4); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewRunner(g, nil, 1); err == nil {
		t.Fatal("maxK=1 accepted")
	}
	if _, err := NewRunner(g, nil, 6); err == nil {
		t.Fatal("maxK=6 accepted")
	}
	r := mustRunner(t, g, 3)
	if err := r.ProcessRange(-1, 2); err == nil {
		t.Fatal("negative range accepted")
	}
	if err := r.ProcessRange(0, 1000); err == nil {
		t.Fatal("overlong range accepted")
	}
	if err := r.RunStrideWithSnapshots(-1, 2, 1, nil); err == nil {
		t.Fatal("negative stride offset accepted")
	}
	if err := r.RunStrideWithSnapshots(0, 0, 1, nil); err == nil {
		t.Fatal("zero stride accepted")
	}
	if err := r.RunWithSnapshots(0, nil); err == nil {
		t.Fatal("zero checkpoints accepted")
	}
}

func TestGDVSerializeRoundTrip(t *testing.T) {
	g, _ := graph.Bubbles(6, 6, 7)
	gdv := fullGDV(t, g, 4)
	img := gdv.Serialize()
	back, err := DeserializeGDV(img, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(gdv) {
		t.Fatal("serialize round trip failed")
	}
	if _, err := DeserializeGDV(img[:10], g.NumVertices()); err == nil {
		t.Fatal("short image accepted")
	}
	if err := gdv.SerializeInto(make([]byte, 3)); err == nil {
		t.Fatal("short buffer accepted")
	}
	if gdv.SizeBytes() != gdv.PaddedVertices()*NumOrbits*4 {
		t.Fatal("GDV size wrong")
	}
	if gdv.PaddedVertices()%VertexPad != 0 || gdv.PaddedVertices() < g.NumVertices() {
		t.Fatal("vertex padding wrong")
	}
	v := gdv.Vector(0)
	if len(v) != NumOrbits {
		t.Fatal("vector length wrong")
	}
}

func TestGDVSparsityOnSparseGraphs(t *testing.T) {
	// §3.2: on sparse graphs only ~10 of 30 graphlets form frequently.
	g, err := graph.RoadNetwork(40, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	gdv := fullGDV(t, g, 5)
	populated := 0
	for o := 0; o < NumOrbits; o++ {
		var total uint64
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			total += uint64(gdv.Count(v, o))
		}
		if total > 0 {
			populated++
		}
	}
	if populated == 0 || populated > NumOrbits/2 {
		t.Fatalf("road network populated %d of %d orbits; expected a sparse minority", populated, NumOrbits)
	}
}

func BenchmarkESU(b *testing.B) {
	g, err := graph.DelaunayLike(40, 40, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{3, 4, 5} {
		b.Run(map[int]string{3: "k3", 4: "k4", 5: "k5"}[k], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, _ := NewRunner(g, parallel.NewPool(0), k)
				if err := r.ProcessRange(0, g.NumVertices()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
