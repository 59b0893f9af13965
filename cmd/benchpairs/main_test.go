package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

func TestParseRun(t *testing.T) {
	out := []byte(`# env go=go1.24.0
restore_read    restore_ms_p50                                 0.917165 ms     samples=14070 p99.9=4.601 ms
restore_read    alloc_mb_per_op                                 1.32768 MB     samples=1
# restore_read seed=1 reps=1 attempted=14340 failed=0 correct=true wall=26.0s
{"correct":true,"attempted":14340,"failed":2,"metrics":{"alloc_mb_per_op":{"value":1.3276762763326226,"unit":"MB"}}}
`)
	got, failed, err := parseRun(out)
	if err != nil {
		t.Fatal(err)
	}
	// The JSON's full-precision value wins over the rounded text line.
	if failed != 2 || got["restore_ms_p50"] != 0.917165 || got["alloc_mb_per_op"] != 1.3276762763326226 {
		t.Fatalf("parsed %v, failed %d", got, failed)
	}
	if _, _, err := parseRun([]byte("restore_read setup_s 1 s\n")); err == nil {
		t.Fatal("a run without the driver's JSON line was accepted")
	}
	if _, _, err := parseRun([]byte(`{"correct":false,"failed":0,"metrics":{}}`)); err == nil {
		t.Fatal("an incorrect run was accepted")
	}
}

// TestMetrics: an -also metric is judged the way BENCHMARK.json's
// per_layer entry says, and a name it does not declare is refused.
func TestMetrics(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench decl
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	e2e := len(bench.EndToEnd)
	for _, tc := range []struct {
		also string
		want []metric // after the end-to-end ones
		err  bool
	}{
		{also: "", want: nil},
		{also: "restore_ms_p50", want: []metric{{"restore_ms_p50", "lower"}}},
		{also: "push_ack_ms_p50,durable_mbps", want: []metric{{"push_ack_ms_p50", "lower"}, {"durable_mbps", "higher"}}},
		{also: "blockstore.dedup_hit_ratio,", want: []metric{{"blockstore.dedup_hit_ratio", "higher"}}},
		{also: "durable_mbps,no_such_metric", err: true},
		{also: "alloc_mb_per_op", err: true}, // gated already, not per_layer
	} {
		got, err := bench.metrics(tc.also)
		if tc.err {
			if err == nil {
				t.Errorf("-also %q: accepted %v", tc.also, got)
			}
			continue
		}
		if err != nil || len(got) != e2e+len(tc.want) || !slices.Equal(got[e2e:], tc.want) {
			t.Errorf("-also %q: %v, %v; want the %d end-to-end metrics, then %v", tc.also, got, err, e2e, tc.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5, 0.125: 1.5} {
		if got := quantile(v, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
