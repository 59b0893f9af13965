// Command benchpairs produces the report every performance claim in
// this repository rests on (ROADMAP ground rules, bench/README.md
// "Noise"): the benchmark of BENCHMARK.json run on a base commit and on
// the working tree in alternating pairs, one seed per pair, and for each
// gated metric both sides' median and quartiles and how many pairs the
// working tree won.
//
//	go run ./cmd/benchpairs -base 5c2615a -workload restore_read -n 10
//	make pairs BASE=5c2615a WORKLOAD=restore_read N=10
//
// The base side is `git archive` of the commit unpacked under
// .bench_build/pairs/, so each side builds and runs in a directory of
// its own, the way the PR driver runs them. Metrics named by -also must
// be per_layer entries of BENCHMARK.json, whose `better` says which way
// a pair is won; they are read from the run's text lines and reported
// beside the gated ones, not counted as gated. Arguments after the flags
// go to bench/run.sh on both sides (`-trace 1` for the per-layer
// metrics).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// metric is one end_to_end or per_layer entry of BENCHMARK.json.
type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// decl is what BENCHMARK.json declares about the metrics.
type decl struct {
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// metrics lists the end-to-end metrics, then each comma-separated name
// of also as BENCHMARK.json declares it among the per-layer ones.
func (d decl) metrics(also string) ([]metric, error) {
	out := append([]metric(nil), d.EndToEnd...)
	for _, name := range strings.Split(also, ",") {
		if name == "" {
			continue
		}
		i := slices.IndexFunc(d.PerLayer, func(m metric) bool { return m.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("-also %q is not a per_layer metric of BENCHMARK.json", name)
		}
		out = append(out, d.PerLayer[i])
	}
	return out, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run() error {
	base := flag.String("base", "HEAD", "commit the working tree is compared against")
	workload := flag.String("workload", "restore_read", "benchmark workload to run")
	n := flag.Int("n", 10, "pairs to run (a claim needs at least ten)")
	seed := flag.Int64("seed", 1, "seed of the first pair; pair i runs seed+i on both sides")
	also := flag.String("also", "restore_ms_p50", "comma-separated per_layer metrics to report beside the gated ones")
	flag.Parse()

	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bench decl
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	metrics, err := bench.metrics(*also)
	if err != nil {
		return err
	}

	rev, err := exec.Command("git", "rev-parse", "--short=12", *base+"^{commit}").Output()
	if err != nil {
		return fmt.Errorf("resolving %s: %w", *base, err)
	}
	commit := strings.TrimSpace(string(rev))
	baseDir := filepath.Join(".bench_build", "pairs", commit)
	if _, err := os.Stat(baseDir); err != nil {
		if err := os.MkdirAll(baseDir, 0o755); err != nil {
			return err
		}
		unpack := fmt.Sprintf("git archive %s | tar -x -C %s", commit, baseDir)
		if out, err := exec.Command("bash", "-c", "set -o pipefail; "+unpack).CombinedOutput(); err != nil {
			os.RemoveAll(baseDir)
			return fmt.Errorf("%s: %v\n%s", unpack, err, out)
		}
	}

	sides := [2]string{baseDir, "."}
	var vals [2]map[string][]float64
	for s := range vals {
		vals[s] = make(map[string][]float64)
	}
	for i := 0; i < *n; i++ {
		for k := 0; k < 2; k++ {
			s := (i + k) % 2 // even pairs run the base first, odd ones the change
			args := append([]string{"bench/run.sh", "-workload", *workload, "-seed", strconv.FormatInt(*seed+int64(i), 10)}, flag.Args()...)
			cmd := exec.Command("bash", args...)
			cmd.Dir, cmd.Stderr = sides[s], os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("pair %d in %s: %w", i, sides[s], err)
			}
			got, failed, err := parseRun(out)
			if err != nil {
				return fmt.Errorf("pair %d in %s: %w", i, sides[s], err)
			}
			fmt.Printf("# pair %d %-6s", i, [2]string{"base", "change"}[s])
			for _, m := range metrics {
				if v, ok := got[m.Name]; ok {
					vals[s][m.Name] = append(vals[s][m.Name], v)
					fmt.Printf(" %s=%.6g", m.Name, v)
				}
			}
			fmt.Printf(" failed=%d\n", failed)
		}
	}

	fmt.Printf("\n%s, %d alternating pairs, base %s vs working tree (median [q1, q3])\n", *workload, *n, commit)
	for i, m := range metrics {
		b, c := vals[0][m.Name], vals[1][m.Name]
		if len(b) < *n || len(c) < *n {
			fmt.Printf("      %-28s not reported by every run (a traced run prints no gated metric, an untraced one no layer metric)\n", m.Name)
			continue
		}
		wins, losses := 0, 0
		for p := range b {
			switch better := m.Better == "higher"; {
			case c[p] == b[p]:
			case (c[p] > b[p]) == better:
				wins++
			default:
				losses++
			}
		}
		kind := "gated"
		if i >= len(bench.EndToEnd) {
			kind = "also "
		}
		bm, cm := quantile(b, 0.5), quantile(c, 0.5)
		fmt.Printf("%s %-28s base %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  change/base %.4f  wins %d losses %d of %d  (%s is better)\n",
			kind, m.Name, bm, quantile(b, 0.25), quantile(b, 0.75), cm, quantile(c, 0.25), quantile(c, 0.75), cm/bm, wins, losses, len(b), m.Better)
	}
	return nil
}

// parseRun reads one run's stdout: every `workload metric value unit …`
// line, overridden by the driver's last-line JSON for the metrics it
// carries.
func parseRun(out []byte) (map[string]float64, int, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	got := make(map[string]float64)
	for _, l := range lines {
		if f := strings.Fields(string(l)); len(f) >= 3 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				got[f[1]] = v
			}
		}
	}
	var last struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		return nil, 0, fmt.Errorf("last line is not the driver's JSON: %w", err)
	}
	if !last.Correct {
		return nil, 0, fmt.Errorf("the run reported incorrect output")
	}
	for name, m := range last.Metrics {
		got[name] = m.Value
	}
	return got, last.Failed, nil
}

// quantile is the q-quantile of v by linear interpolation between order
// statistics.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
