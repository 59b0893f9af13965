package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &f, nil
}

// values returns the per-run values of one (workload, metric) pair.
// When the file holds a single run of the workload, that run's per-rep
// values stand in, so a spread can still be judged.
func (f *resultFile) values(workload, metric string, traced bool) []float64 {
	var perRun []float64
	var reps []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			perRun = append(perRun, m.Value)
			reps = m.Reps
		}
	}
	if len(perRun) == 1 && len(reps) > 1 {
		return reps
	}
	return perRun
}

// verdict judges change B against base A for one metric.
//   - REGRESSED: B's median is worse than A's by more than the bound;
//   - unresolved: not regressed, but the quartile spread of either side
//     exceeds the bound, so "unchanged" cannot be claimed;
//   - ok: within the bound and the noise allows saying so.
func verdict(def metricDef, a, b []float64) (ratio, worse, noise float64, v string) {
	ma, mb := median(a), median(b)
	ratio = mb / ma
	if def.Better == "lower" {
		worse = (mb - ma) / ma
	} else {
		worse = (ma - mb) / ma
	}
	if ma == 0 {
		ratio, worse = 1, 0
		if mb != 0 {
			worse = 1
		}
	}
	noise = max(spread(a), spread(b))
	switch {
	case worse > def.Bound:
		v = "REGRESSED"
	case noise > def.Bound:
		v = "unresolved"
	default:
		v = "ok"
	}
	return ratio, worse, noise, v
}

// compareFiles prints, per (workload, metric), B's median over A's with
// its base, and the verdict under the metric's bound. Counts that must
// repeat exactly are compared for equality when both files ran the
// same seeds. It returns false when anything regressed or differed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	fa, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	fb, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	if fa.Env.Sizes != fb.Env.Sizes || fa.Env.Smoke != fb.Env.Smoke {
		return false, fmt.Errorf("the two files measured different harness constants; they cannot be compared")
	}
	fmt.Fprintf(w, "# A %s: commit %s, %s, %d cpus, %s\n", pathA, fa.Env.Commit, fa.Env.GoVersion, fa.Env.NumCPU, fa.Env.WorkdirFS)
	fmt.Fprintf(w, "# B %s: commit %s, %s, %d cpus, %s\n", pathB, fb.Env.Commit, fb.Env.GoVersion, fb.Env.NumCPU, fb.Env.WorkdirFS)
	fmt.Fprintf(w, "%-15s %-34s %12s %12s %8s %8s %7s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A", "worse", "spread", "bound", "verdict")
	ok := true
	sameSeeds := seeds(fa) == seeds(fb)
	for _, wl := range workloadWhy {
		for _, def := range endToEnd {
			a, b := fa.values(wl.Name, def.Name, false), fb.values(wl.Name, def.Name, false)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ratio, worse, noise, v := verdict(def, a, b)
			if v == "REGRESSED" {
				ok = false
			}
			fmt.Fprintf(w, "%-15s %-34s %12.6g %12.6g %8.4f %+7.1f%% %6.1f%% %5.0f%%  %s\n",
				wl.Name, def.Name, median(a), median(b), ratio, worse*100, noise*100, def.Bound*100, v)
		}
		if !sameSeeds {
			continue
		}
		for _, def := range allMetrics() {
			if !def.Exact {
				continue
			}
			a, b := fa.values(wl.Name, def.Name, def.Layer), fb.values(wl.Name, def.Name, def.Layer)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := "exact"
			if median(a) != median(b) {
				v, ok = "DIFFERS", false
			}
			fmt.Fprintf(w, "%-15s %-34s %12.6g %12.6g %57s\n", wl.Name, def.Name, median(a), median(b), v)
		}
	}
	return ok, nil
}

// seeds renders the (workload, seed, traced) list of a file, to tell
// whether two files ran the same inputs.
func seeds(f *resultFile) string {
	s := ""
	for _, r := range f.Runs {
		s += fmt.Sprintf("%s/%d/%v;", r.Workload, r.Seed, r.Traced)
	}
	return s
}
