package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/murmur3"
)

func smokeOptions(t *testing.T, trace string) options {
	return options{workdir: t.TempDir(), budget: 50 * time.Millisecond, smoke: true, trace: trace}
}

// smokeCache holds the smoke runs the tests share, keyed by workload,
// trace mode and repetition: a run takes a second, and every test wants
// to look at the same few.
var smokeCache = map[string]runResult{}

// smokeRun returns the i-th smoke-size run of a workload at seed 1,
// running it on first use.
func smokeRun(t *testing.T, workload, trace string, i int) runResult {
	t.Helper()
	key := fmt.Sprint(workload, trace, i)
	if res, ok := smokeCache[key]; ok {
		return res
	}
	opt := smokeOptions(t, trace)
	if opt.traced() {
		opt.trace = filepath.Join(opt.workdir, "spans.json")
	}
	res, err := runWorkload(workload, 1, opt, fingerprint{})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	if err := printRun(res); err != nil {
		t.Fatal(err)
	}
	smokeCache[key] = res
	return res
}

// Every workload, untraced: every end-to-end metric is reported and
// the driver's result line carries exactly the BENCHMARK.json ones.
func TestSmokeUntraced(t *testing.T) {
	for _, wl := range workloadWhy {
		res := smokeRun(t, wl.Name, "0", 0)
		line, err := driverLine(res)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("driver line is not JSON: %v\n%s", err, line)
		}
		want := 0
		for _, def := range endToEnd {
			if !def.Driver {
				continue
			}
			want++
			if m, ok := got.Metrics[def.Name]; !ok || m.Value <= 0 || m.Unit != def.Unit {
				t.Errorf("%s: driver metric %s = %+v (present %v), want a positive %s", wl.Name, def.Name, m, ok, def.Unit)
			}
		}
		if len(got.Metrics) != want || !got.Correct || got.Failed != 0 || got.Attempted < 1 {
			t.Errorf("%s: driver line %s", wl.Name, line)
		}
	}
}

// Every workload, traced: every per-layer metric is reported, child
// spans account for the op wall, and the span file is written.
func TestSmokeTraced(t *testing.T) {
	for _, wl := range workloadWhy {
		res := smokeRun(t, wl.Name, "1", 0)
		if share := res.Metrics["trace.attributed_share"].Value; share < 0.95 {
			t.Errorf("%s: trace.attributed_share = %.3f, want >= 0.95", wl.Name, share)
		}
		if res.Metrics["follower.resyncs"].Value != 0 {
			t.Errorf("%s: the standby resynced; the tail must be clean", wl.Name)
		}
		if _, err := driverLine(res); err != nil {
			t.Fatal(err)
		}
	}
}

// digestFold folds a series' expected image digests into one value.
func digestFold(in *inputs) string {
	var b []byte
	for _, s := range in.writers {
		for _, d := range s.digests {
			x := d.Bytes()
			b = append(b, x[:]...)
		}
	}
	d := murmur3.Sum128(b, 0)
	return fmt.Sprintf("%016x%016x", d.H1, d.H2)
}

// The generator is a pure function of the seed: at the default seed
// the four workloads produce these image-digest chains, so the parent
// commit and a change are guaranteed the same inputs.
func TestGeneratorDeterminism(t *testing.T) {
	golden := map[string]string{
		wlOranges: "caefd5446ab5f302293eac9cb818aed5",
		wlDense:   "602c118bed33df7614b162a21fe77e72",
		wlRead:    "5fbe5dee782e26aed9d09128d02492e4",
		wlMulti:   "23540dc4f2de6f38307d59889f788db9",
	}
	for _, wl := range workloadWhy {
		a, err := generate(wl.Name, 1, smokeSizes, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(wl.Name, 1, smokeSizes, 2)
		if err != nil {
			t.Fatal(err)
		}
		if digestFold(a) != digestFold(b) {
			t.Errorf("%s: two generations at one seed differ", wl.Name)
		}
		if got := digestFold(a); got != golden[wl.Name] {
			t.Errorf("%s: digest chain %s, want %s", wl.Name, got, golden[wl.Name])
		}
		c, err := generate(wl.Name, 2, smokeSizes, 2)
		if err != nil {
			t.Fatal(err)
		}
		if digestFold(c) == digestFold(a) {
			t.Errorf("%s: seed 2 generated seed 1's inputs", wl.Name)
		}
	}
}

// Counts marked exact repeat across two runs of one seed.
func TestExactCountsRepeat(t *testing.T) {
	for _, wl := range workloadWhy {
		u1, u2 := smokeRun(t, wl.Name, "0", 0), smokeRun(t, wl.Name, "0", 1)
		t1, t2 := smokeRun(t, wl.Name, "1", 0), smokeRun(t, wl.Name, "1", 1)
		for _, def := range allMetrics() {
			if !def.Exact {
				continue
			}
			a, b := u1, u2
			if def.Layer {
				a, b = t1, t2
			}
			va, vb := a.Metrics[def.Name], b.Metrics[def.Name]
			if va.Value != vb.Value {
				t.Errorf("%s %s: %v then %v; it must repeat exactly", wl.Name, def.Name, va.Value, vb.Value)
			}
			for _, v := range va.Reps {
				if v != va.Reps[0] {
					t.Errorf("%s %s: reps of one run differ: %v", wl.Name, def.Name, va.Reps)
					break
				}
			}
		}
	}
}

// A wrong expected digest — standing in for a restore that returned the
// wrong bytes — must be counted and must fail the command.
func TestCorruptDigestFailsRun(t *testing.T) {
	for _, wl := range workloadWhy {
		opt := smokeOptions(t, "0")
		opt.corrupt = true
		res, _ := runWorkload(wl.Name, 1, opt, fingerprint{})
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: correct=%v failed=%d with a corrupted expected digest", wl.Name, res.Correct, res.Failed)
		}
		if v := res.Metrics["failed_ops_ratio"].Value; v <= 0 {
			t.Errorf("%s: failed_ops_ratio = %v, want > 0", wl.Name, v)
		}
	}
	opt := smokeOptions(t, "0")
	opt.corrupt = true
	if err := benchmark(wlDense, 1, 1, "", opt); err == nil {
		t.Error("benchmark returned nil (exit 0) although verification failed")
	}
}

// BENCHMARK.json at the repository root must say what the tables in
// metrics.go say.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this module: %v", err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var bj struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadWhy) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloadWhy))
	}
	for i, w := range workloadWhy {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %+v", i, bj.Workloads[i], w)
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, metrics.go %d", kind, len(got), len(want))
			return
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.Name || g.Unit != def.Unit || g.Better != def.Better {
				t.Errorf("%s %d: %+v, want %s %s %s", kind, i, g, def.Name, def.Unit, def.Better)
			}
			if def.Driver && (g.Bound == nil || *g.Bound != def.Bound) {
				t.Errorf("%s: bound in BENCHMARK.json differs from %v", def.Name, def.Bound)
			}
			if !def.Driver && g.Bound != nil {
				t.Errorf("%s: per_layer metrics carry no bound", def.Name)
			}
		}
	}
	var driver []metricDef
	for _, def := range endToEnd {
		if def.Driver {
			driver = append(driver, def)
		}
	}
	check("end_to_end", bj.EndToEnd, driver)
	check("per_layer", bj.PerLayer, wanted(wlDense, true))
}
