package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fileWith writes a result file holding, per workload, one untraced run
// per value of each metric.
func fileWith(t *testing.T, name string, metrics map[string][]float64) string {
	t.Helper()
	f := resultFile{Env: fingerprint{Sizes: smokeSizes, Smoke: true}}
	runs := 0
	for _, v := range metrics {
		runs = max(runs, len(v))
	}
	for i := 0; i < runs; i++ {
		r := runResult{Workload: wlDense, Seed: int64(i), Metrics: map[string]metricResult{}}
		for m, v := range metrics {
			if i < len(v) {
				r.Metrics[m] = metricResult{Value: v[i]}
			}
		}
		f.Runs = append(f.Runs, r)
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// row returns the output line of one metric.
func row(t *testing.T, out, metric string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[1] == metric {
			return line
		}
	}
	t.Fatalf("no row for %s in:\n%s", metric, out)
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 100}
	noisy := []float64{60, 140, 70, 130, 80, 120, 100, 100, 90, 110}
	a := fileWith(t, "a.json", map[string][]float64{
		"push_ack_ms_p50":            steady, // lower is better, bound 0.25
		"ckpt_gbps":                  steady, // higher is better
		"durable_mbps":               noisy,
		"restore_ms_p50":             steady,
		"stored_bytes_per_user_byte": {0.25, 0.25},
	})
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	b := fileWith(t, "b.json", map[string][]float64{
		"push_ack_ms_p50":            scale(steady, 1.4),  // 40% slower: regressed
		"ckpt_gbps":                  scale(steady, 1.3),  // faster: fine
		"durable_mbps":               noisy,               // same median, spread far over the bound
		"restore_ms_p50":             scale(steady, 1.05), // 5% slower: inside the bound
		"stored_bytes_per_user_byte": {0.26, 0.26},        // an exact count moved
	})
	var buf bytes.Buffer
	ok, err := compareFiles(&buf, a, b)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if ok {
		t.Errorf("a regression and a differing exact count must fail the comparison:\n%s", out)
	}
	for metric, want := range map[string]string{
		"push_ack_ms_p50": "REGRESSED",
		"ckpt_gbps":       "ok",
		"durable_mbps":    "unresolved",
		"restore_ms_p50":  "ok",
	} {
		if line := row(t, out, metric); !strings.HasSuffix(line, want) {
			t.Errorf("%s: want verdict %q, got line %q", metric, want, line)
		}
	}
	if !strings.Contains(row(t, out, "push_ack_ms_p50"), "1.4000") {
		t.Errorf("ratio B/A must be printed with its base:\n%s", out)
	}
	if !strings.Contains(out, "DIFFERS") {
		t.Errorf("stored_bytes_per_user_byte moved at equal seeds and must be reported:\n%s", out)
	}

	buf.Reset()
	if ok, err := compareFiles(&buf, a, a); err != nil || !ok {
		t.Errorf("a file compared with itself: ok=%v err=%v\n%s", ok, err, buf.String())
	}
}

// A single run per side falls back to the per-rep values, so a noisy
// single run is "unresolved" rather than "ok".
func TestCompareSingleRunUsesReps(t *testing.T) {
	mk := func(name string, reps []float64) string {
		f := resultFile{Env: fingerprint{Sizes: smokeSizes, Smoke: true}, Runs: []runResult{{
			Workload: wlDense, Metrics: map[string]metricResult{"ckpt_gbps": {Value: median(reps), Reps: reps}},
		}}}
		b, _ := json.Marshal(f)
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var buf bytes.Buffer
	if _, err := compareFiles(&buf, mk("a.json", []float64{1, 2, 3, 4}), mk("b.json", []float64{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	if line := row(t, buf.String(), "ckpt_gbps"); !strings.HasSuffix(line, "unresolved") {
		t.Errorf("want unresolved from the reps' spread, got %q", line)
	}
}

func TestCompareRefusesDifferentSizes(t *testing.T) {
	a := fileWith(t, "a.json", map[string][]float64{"ckpt_gbps": {1}})
	f := resultFile{Env: fingerprint{Sizes: fullSizes}, Runs: []runResult{{Workload: wlDense}}}
	b, _ := json.Marshal(f)
	other := filepath.Join(t.TempDir(), "b.json")
	if err := os.WriteFile(other, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(&bytes.Buffer{}, a, other); err == nil {
		t.Error("files measured at different harness constants must not be compared")
	}
}
