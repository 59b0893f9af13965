package experiments

import (
	"fmt"

	"github.com/gpuckpt/gpuckpt/internal/metrics"
)

// Claim is one qualitative statement of the paper checked against a
// measured run.
type Claim struct {
	ID     string
	Text   string
	Detail string
	Pass   bool
}

// Headline runs Figures 4-6 and the overhead study, then checks the
// paper's qualitative claims — the orderings, trends and crossovers
// that must survive any substrate — and reports PASS/FAIL per claim.
// It is the reproduction's regression harness: if a code change flips
// one of these, the reproduction is broken even though unit tests may
// still pass.
func Headline(cfg Config) (*metrics.Table, []Claim, error) {
	cfg = cfg.withDefaults()
	_, fig4, err := Fig4(cfg)
	if err != nil {
		return nil, nil, err
	}
	_, fig5, err := Fig5(cfg)
	if err != nil {
		return nil, nil, err
	}
	_, fig6, err := Fig6(cfg)
	if err != nil {
		return nil, nil, err
	}
	_, overhead, err := Overhead(cfg)
	if err != nil {
		return nil, nil, err
	}

	ratio4 := func(g, m string, chunk int) float64 {
		for _, r := range fig4 {
			if r.Graph == g && r.Label == m && r.ChunkSize == chunk {
				return r.Ratio
			}
		}
		return -1
	}
	tput4 := func(g, m string, chunk int) float64 {
		for _, r := range fig4 {
			if r.Graph == g && r.Label == m && r.ChunkSize == chunk {
				return r.Throughput
			}
		}
		return -1
	}
	ratio5 := func(g, m string, n int) float64 {
		for _, r := range fig5 {
			if r.Graph == g && r.Label == m && r.NumCkpts == n {
				return r.Ratio
			}
		}
		return -1
	}

	minChunk, maxChunk := cfg.ChunkSizes[0], cfg.ChunkSizes[0]
	for _, c := range cfg.ChunkSizes {
		if c < minChunk {
			minChunk = c
		}
		if c > maxChunk {
			maxChunk = c
		}
	}
	minN, maxN := cfg.Frequencies[0], cfg.Frequencies[0]
	for _, n := range cfg.Frequencies {
		if n < minN {
			minN = n
		}
		if n > maxN {
			maxN = n
		}
	}

	var claims []Claim
	add := func(id, text string, pass bool, detail string) {
		claims = append(claims, Claim{ID: id, Text: text, Pass: pass, Detail: detail})
	}

	// C1: method ordering at fine granularity (Fig. 4).
	pass := true
	detail := ""
	for _, g := range singleGPUGraphs {
		tr, li, ba, fu := ratio4(g, "Tree", minChunk), ratio4(g, "List", minChunk),
			ratio4(g, "Basic", minChunk), ratio4(g, "Full", minChunk)
		if !(tr >= li && li > ba && ba > fu) {
			pass = false
			detail = fmt.Sprintf("%s: tree %.1f list %.1f basic %.1f full %.1f", g, tr, li, ba, fu)
			break
		}
	}
	add("C1", fmt.Sprintf("ratio ordering Tree>=List>Basic>Full at %dB chunks, all graphs", minChunk), pass, detail)

	// C2: finer chunks improve the Tree ratio (Fig. 4).
	pass, detail = true, ""
	for _, g := range singleGPUGraphs {
		if ratio4(g, "Tree", minChunk) <= ratio4(g, "Tree", maxChunk) {
			pass = false
			detail = fmt.Sprintf("%s: %dB %.1f vs %dB %.1f", g, minChunk,
				ratio4(g, "Tree", minChunk), maxChunk, ratio4(g, "Tree", maxChunk))
			break
		}
	}
	add("C2", "Tree ratio improves as chunks shrink", pass, detail)

	// C3: throughput degrades below 256 B (Fig. 4).
	pass, detail = true, ""
	if len(cfg.ChunkSizes) >= 2 {
		second := cfg.ChunkSizes[1]
		for _, g := range singleGPUGraphs {
			if tput4(g, "Tree", minChunk) >= tput4(g, "Tree", second)*1.01 {
				pass = false
				detail = fmt.Sprintf("%s: %dB %.1f GB/s vs %dB %.1f GB/s", g, minChunk,
					tput4(g, "Tree", minChunk)/1e9, second, tput4(g, "Tree", second)/1e9)
				break
			}
		}
	}
	add("C3", "throughput degrades at the smallest chunks", pass, detail)

	// C4: Tree ratio grows with checkpoint frequency; compression
	// barely moves (Fig. 5).
	pass, detail = true, ""
	for _, g := range singleGPUGraphs {
		tGrowth := ratio5(g, "Tree", maxN) / ratio5(g, "Tree", minN)
		zGrowth := ratio5(g, "Zstd*", maxN) / ratio5(g, "Zstd*", minN)
		if tGrowth < 1.2 || tGrowth <= zGrowth {
			pass = false
			detail = fmt.Sprintf("%s: tree growth %.2fx, zstd growth %.2fx", g, tGrowth, zGrowth)
			break
		}
	}
	add("C4", "temporal redundancy: Tree ratio grows with N, compression does not keep pace", pass, detail)

	// C5: compression wins at low frequency (Fig. 5).
	pass, detail = true, ""
	for _, g := range singleGPUGraphs {
		if ratio5(g, "Tree", minN) >= ratio5(g, "Zstd*", minN) {
			pass = false
			detail = fmt.Sprintf("%s: tree %.1f vs zstd %.1f at N=%d", g,
				ratio5(g, "Tree", minN), ratio5(g, "Zstd*", minN), minN)
			break
		}
	}
	add("C5", fmt.Sprintf("Zstd* beats Tree at N=%d on every graph", minN), pass, detail)

	// C6: strong scaling — reduction grows with process count and Tree
	// out-throughputs Full (Fig. 6).
	var firstRed, lastRed, treeT, fullT float64
	minProcs, maxProcs := 1<<30, 0
	for _, r := range fig6 {
		if r.Procs < minProcs {
			minProcs = r.Procs
		}
		if r.Procs > maxProcs {
			maxProcs = r.Procs
		}
	}
	for _, r := range fig6 {
		if r.Method == "Tree" && r.Procs == minProcs {
			firstRed = r.Ratio
		}
		if r.Method == "Tree" && r.Procs == maxProcs {
			lastRed = r.Ratio
			treeT = r.Throughput
		}
		if r.Method == "Full" && r.Procs == maxProcs {
			fullT = r.Throughput
		}
	}
	pass = lastRed > firstRed && treeT > fullT && lastRed > 10
	add("C6", "scaling: reduction grows with processes and stays >10x; Tree out-throughputs Full",
		pass, fmt.Sprintf("reduction %.1fx -> %.1fx; throughput tree %.0f vs full %.0f GB/s",
			firstRed, lastRed, treeT/1e9, fullT/1e9))

	// C7: end-to-end I/O overhead collapses by >=10x (§1, §2.3).
	fullOv := overhead["Full"].IOOverhead()
	treeOv := overhead["Tree"].IOOverhead()
	pass = treeOv*10 < fullOv && overhead["Tree"].SpaceStall == 0
	add("C7", "async runtime: Tree I/O overhead >=10x below Full, no backpressure stalls",
		pass, fmt.Sprintf("full %v vs tree %v", fullOv, treeOv))

	t := metrics.NewTable(
		fmt.Sprintf("Headline claims at ~%d vertices (the reproduction's shape-regression harness)", cfg.TargetVertices),
		"Claim", "Statement", "Result", "Detail")
	for _, c := range claims {
		res := "PASS"
		if !c.Pass {
			res = "FAIL"
		}
		t.Add(c.ID, c.Text, res, c.Detail)
	}
	return t, claims, nil
}
