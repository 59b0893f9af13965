// Package graph provides the input substrate of the paper's
// evaluation (Tan et al., ICPP 2023, §3.2): compressed sparse row
// graphs, synthetic generators matching the topology classes of Table
// 1 (HPC event graphs and SuiteSparse meshes), the Gorder cache
// reordering pre-process, and Matrix Market I/O for user-supplied
// graphs.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected simple graph in CSR form. Adjacency lists are
// sorted; every undirected edge appears in both endpoints' lists, so
// NumEdges counts directed entries (the SuiteSparse nnz convention).
type Graph struct {
	name    string
	offsets []int64
	adj     []int32
}

// Name returns the graph's label for reports.
func (g *Graph) Name() string { return g.name }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the number of directed adjacency entries (twice the
// undirected edge count).
func (g *Graph) NumEdges() int64 { return int64(len(g.adj)) }

// Degree returns the degree of v.
func (g *Graph) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph; callers must not modify it.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u, v} is an edge, by binary search.
func (g *Graph) HasEdge(u, v int32) bool {
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// MaxDegree returns the largest vertex degree.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(int32(v)); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// Edge is one undirected edge.
type Edge struct{ U, V int32 }

// Build constructs a graph from an edge list: self loops are dropped,
// duplicates merged, both directions materialized, and adjacency
// sorted.
func Build(name string, n int, edges []Edge) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: vertex count %d must be positive", n)
	}
	deg := make([]int64, n)
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			continue
		}
		deg[e.U]++
		deg[e.V]++
	}
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]int32, offsets[n])
	fill := make([]int64, n)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		adj[offsets[e.U]+fill[e.U]] = e.V
		fill[e.U]++
		adj[offsets[e.V]+fill[e.V]] = e.U
		fill[e.V]++
	}
	g := &Graph{name: name, offsets: offsets, adj: adj}
	g.sortAndDedup()
	return g, nil
}

// sortAndDedup sorts each adjacency list and removes duplicates,
// compacting the CSR arrays.
func (g *Graph) sortAndDedup() {
	n := g.NumVertices()
	newAdj := make([]int32, 0, len(g.adj))
	newOff := make([]int64, n+1)
	for v := 0; v < n; v++ {
		ns := g.adj[g.offsets[v]:g.offsets[v+1]]
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		prevLen := len(newAdj)
		var last int32 = -1
		for _, u := range ns {
			if u != last {
				newAdj = append(newAdj, u)
				last = u
			}
		}
		newOff[v+1] = newOff[v] + int64(len(newAdj)-prevLen)
	}
	g.adj = newAdj
	g.offsets = newOff
}

// Relabel returns a new graph where old vertex v becomes perm[v].
// perm must be a permutation of [0, n).
func (g *Graph) Relabel(perm []int32) (*Graph, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation length %d != %d vertices", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			return nil, fmt.Errorf("graph: invalid permutation")
		}
		seen[p] = true
	}
	deg := make([]int64, n)
	for v := 0; v < n; v++ {
		deg[perm[v]] = int64(g.Degree(int32(v)))
	}
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]int32, len(g.adj))
	for v := 0; v < n; v++ {
		nv := perm[v]
		out := adj[offsets[nv]:offsets[nv+1]]
		for i, u := range g.Neighbors(int32(v)) {
			out[i] = perm[u]
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	}
	return &Graph{name: g.name, offsets: offsets, adj: adj}, nil
}

// EdgeLocality returns the mean |u-v| over all directed edges — the
// cache-locality proxy that Gorder minimizes. Lower is better.
func (g *Graph) EdgeLocality() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	var sum float64
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(int32(v)) {
			d := int64(u) - int64(v)
			if d < 0 {
				d = -d
			}
			sum += float64(d)
		}
	}
	return sum / float64(len(g.adj))
}

// Stats summarizes a graph for Table 1 style reports.
type Stats struct {
	Name      string
	Vertices  int
	Edges     int64 // directed entries
	MaxDegree int
	AvgDegree float64
}

// Summary computes the graph's Stats.
func (g *Graph) Summary() Stats {
	n := g.NumVertices()
	avg := 0.0
	if n > 0 {
		avg = float64(len(g.adj)) / float64(n)
	}
	return Stats{
		Name:      g.name,
		Vertices:  n,
		Edges:     g.NumEdges(),
		MaxDegree: g.MaxDegree(),
		AvgDegree: avg,
	}
}

// LargestComponent returns the vertex count of the largest connected
// component — the generators' sanity metric (a Table 1 stand-in must
// be dominated by one component, or GDV structure degenerates).
func (g *Graph) LargestComponent() int {
	n := g.NumVertices()
	seen := make([]bool, n)
	queue := make([]int32, 0, 1024)
	best := 0
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue = append(queue[:0], int32(s))
		size := 0
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			for _, u := range g.Neighbors(v) {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
		if size > best {
			best = size
		}
	}
	return best
}
