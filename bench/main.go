// Command bench is the repository's end-to-end checkpoint-path
// benchmark: four workloads driven through an in-process primary and
// standby over real loopback TCP with the public client, every output
// verified, every metric printed by name. See README.md in this
// directory for the ground rules and how to read the numbers.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricResult is one metric of one run.
type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples counts the timing samples behind a median (pooled over
	// the measured reps), or the reps for a per-rep scalar.
	Samples int `json:"samples"`
	// Reps are the per-rep values Value is the median of.
	Reps []float64 `json:"reps"`
	// Tail is the timing at TailPct, the highest percentile with at
	// least ten samples beyond it (100: the maximum of a small sample).
	Tail    float64 `json:"tail,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
}

// runResult is one (workload, seed) run.
type runResult struct {
	Workload  string                  `json:"workload"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Traced    bool                    `json:"traced"`
	Reps      int                     `json:"measured_reps"`
	WallS     float64                 `json:"wall_s"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
}

// resultFile is what -out writes and -compare reads: the environment
// envelope plus every run of the invocation.
type resultFile struct {
	Env  fingerprint `json:"env"`
	Runs []runResult `json:"runs"`
}

// sampleKey maps a median-of-samples metric to the samples behind it.
var sampleKey = map[string]string{
	"ckpt_gbps": "ckpt", "push_ack_ms_p50": "push", "replica_lag_ms_p50": "lag", "restore_ms_p50": "restore",
}

// derive fills the values that are medians or tails of a rep's raw
// samples.
func derive(o *rep) {
	set := func(metric, key string, scale float64) {
		if len(o.s[key]) > 0 {
			o.v[metric] = o.med(key) * scale
		}
	}
	set("restore_ms_p50", "restore", 1)
	set("client.dial_ms", "dial", 1)
	set("client.pull_ms_p50", "pull", 1)
	set("follower.lag_ms_p50", "lag", 1)
	set("follower.apply_after_ack_ms_p50", "apply_after_ack", 1)
	set("wire.rtt_us_p50", "rtt", 1e3)
	set("antientropy.digest_ms_p50", "digest", 1)
	set("lifecycle.restore_after_compact_ms_p50", "restore_after_compact", 1)
	set("calib.par_ms", "cal_par", 1)
	set("calib.one_ms", "cal_one", 1)
	set("calib.fsync_ms", "cal_fsync", 1)
	if pull := o.med("pull"); pull > 0 {
		o.v["client.pull_mbps"] = o.v["pulled_bytes"] / 1e6 / (pull / 1e3)
	}
	if len(o.s["push"]) > 0 {
		o.v["client.push_ack_ms_tail"], _ = tail(o.s["push"])
	}
	if len(o.s["lag"]) > 0 {
		o.v["follower.lag_ms_tail"], _ = tail(o.s["lag"])
	}
	if plain := o.med("op_plain"); plain > 0 && len(o.s["op_recorded"]) > 0 {
		o.v["trace.overhead_pct"] = (o.med("op_recorded")/plain - 1) * 100
	}
	if o.attempted > 0 {
		o.v["failed_ops_ratio"] = float64(o.failed) / float64(o.attempted)
	}

}

// oneRep runs one repetition of the run's workload.
func (r *run) oneRep(in *inputs, mode repMode, deadline time.Time) (*rep, error) {
	var o *rep
	var err error
	switch in.workload {
	case wlOranges, wlDense:
		s := in.writers[0]
		o, err = r.chainRep(s, s.steps, mode)
	case wlMulti:
		o, err = r.multiRep(in, mode)
	case wlRead:
		o, err = r.readRep(in.writers[0], deadline)
	default:
		return newRep(), fmt.Errorf("unknown workload %q", in.workload)
	}
	derive(o)
	return o, err
}

// diffsPerPush is how many diffs one push call of a workload carries.
func diffsPerPush(workload string, sz sizes) int {
	switch workload {
	case wlMulti:
		return sz.MultiBatch
	case wlRead:
		return sz.ReadDiffs + 1
	}
	return 1
}

// options are the knobs of one invocation.
type options struct {
	workdir string
	budget  time.Duration // of one run: warm-up, set-up and measured ops
	smoke   bool
	trace   string // "0", "1" or a span file path
	// corrupt flips the first writer's expected digests after
	// generation; tests use it to prove a verification failure fails
	// the run.
	corrupt bool
}

func (opt options) traced() bool { return opt.trace != "" && opt.trace != "0" }

// runWorkload generates the inputs of one workload from seed, warms up,
// measures reps until the time budget is spent and, in a traced run,
// adds the layer replay. It returns the aggregated result.
func runWorkload(workload string, seed int64, opt options, env fingerprint) (runResult, error) {
	res := runResult{Workload: workload, Seed: seed, Seconds: opt.budget.Seconds(), Traced: opt.traced()}
	began := time.Now()
	tmp, err := os.MkdirTemp(opt.workdir, "run-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(tmp)
	sz := fullSizes
	if opt.smoke {
		sz = smokeSizes
	}
	r := &run{workdir: tmp, sz: sz, writers: min(runtime.NumCPU(), 2), seed: seed, cal: newCalibrator()}
	if opt.traced() {
		r.tr = newTracer()
	}

	tg := time.Now()
	in, err := generate(workload, seed, sz, r.writers)
	if err != nil {
		return res, fmt.Errorf("generate %s: %w", workload, err)
	}
	genS := time.Since(tg).Seconds()
	if opt.corrupt {
		for i := range in.writers[0].digests {
			in.writers[0].digests[i].H1 ^= 1
		}
	}

	// The time budget covers warm-up, set-up and measured ops; a traced
	// run spends half of it on reps and the rest on the replay.
	budget := opt.budget
	if opt.traced() {
		budget /= 2
	}
	start := time.Now()
	deadline := start.Add(budget)
	if !opt.smoke {
		// Rep 0: the same code path at smoke size, discarded. It pays
		// the process's one-off costs (lazy tables, first dial, heap
		// growth) without spending a full rep's disk time on them.
		warm := &run{workdir: tmp, sz: smokeSizes, writers: r.writers, seed: seed, cal: r.cal}
		win, err := generate(workload, seed, smokeSizes, r.writers)
		if err != nil {
			return res, fmt.Errorf("generate warm-up: %w", err)
		}
		if _, err := warm.oneRep(win, repFull, time.Now()); err != nil {
			return res, fmt.Errorf("warm-up: %w", err)
		}
		r.dirs = warm.dirs
	}
	var reps []*rep
	var runErr error
	for {
		t := time.Now()
		o, err := r.oneRep(in, repFull, deadline)
		reps = append(reps, o)
		if err != nil {
			runErr = err
			break
		}
		if time.Since(start)+time.Since(t) > budget {
			break
		}
	}
	res.Reps = len(reps)
	for n := len(reps); runErr == nil && workload != wlRead && n < r.sz.MinSetups; n++ {
		o, err := r.oneRep(in, repSetupOnly, deadline)
		reps = append(reps, o)
		runErr = err
	}

	if opt.traced() && runErr == nil {
		extra, err := r.layerPass(in)
		runErr = err
		extra.v["process.gen_s"] = genS
		reps = append(reps, extra)
		path := opt.trace
		if path == "1" {
			path = filepath.Join(opt.workdir, "trace-"+workload+".json")
		}
		if err := r.tr.write(path, env, workload, seed); err != nil {
			return res, fmt.Errorf("writing trace: %w", err)
		}
	}

	res.Metrics = aggregate(reps)
	if m, ok := res.Metrics["push_ack_ms_p50"]; ok && opt.traced() {
		n := float64(diffsPerPush(workload, sz))
		store := res.Metrics["filestore.append_ms_p50"].Value
		if n > 1 {
			store = res.Metrics["filestore.append_batch_ms_per_diff"].Value * n
		}
		res.Metrics["server.store_share"] = metricResult{Value: store / m.Value, Samples: 1, Reps: []float64{store / m.Value}}
	}
	for _, o := range reps {
		res.Attempted += o.attempted
		res.Failed += o.failed
	}
	for name, m := range res.Metrics {
		if def, ok := metricByName(name); ok {
			m.Unit = def.Unit
			res.Metrics[name] = m
		} else {
			delete(res.Metrics, name) // scratch values (pulled_bytes)
		}
	}
	res.Correct = runErr == nil && res.Failed == 0 && res.Attempted > 0
	res.WallS = time.Since(began).Seconds()
	return res, runErr
}

// layerPass is the part of a traced run that follows its reps: the
// follower layer for the workloads without a standby, the layer replay,
// and the process- and trace-wide values. It returns them as one more
// rep.
func (r *run) layerPass(in *inputs) (*rep, error) {
	extra := newRep()
	s0 := in.writers[0]
	if in.workload == wlMulti || in.workload == wlRead {
		// No standby in these workloads: the follower layer is measured
		// on a short one-at-a-time prefix of their chain.
		fr, err := r.chainRep(s0, min(s0.steps, 9), repOpsOnly)
		derive(fr)
		extra.attempted += fr.attempted
		extra.failed += fr.failed
		for k, v := range fr.v {
			if strings.HasPrefix(k, "follower.") {
				extra.v[k] = v
			}
		}
		if err != nil {
			return extra, err
		}
	}
	err := r.replayLayers(s0, extra)
	extra.v["trace.attributed_share"] = r.tr.attributedShare("op")
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	extra.v["process.rss_peak_mb"] = float64(ru.Maxrss) / 1024
	return extra, err
}

// aggregate reduces per-rep values to one result per metric: the median
// over the reps that reported it, with the pooled timing samples'
// count and tail where the metric is a median of samples.
func aggregate(reps []*rep) map[string]metricResult {
	out := map[string]metricResult{}
	vals := map[string][]float64{}
	for _, o := range reps {
		for name, v := range o.v {
			vals[name] = append(vals[name], v)
		}
	}
	for name, v := range vals {
		m := metricResult{Value: median(v), Samples: len(v), Reps: v}
		if key, ok := sampleKey[name]; ok {
			var pooled []float64
			for _, o := range reps {
				pooled = append(pooled, o.s[key]...)
			}
			m.Samples = len(pooled)
			m.Tail, m.TailPct = tail(pooled)
		}
		out[name] = m
	}
	return out
}

// wanted lists the metrics a run of workload must report: the
// end-to-end ones of an untraced run, the demoted end-to-end ones plus
// every per-layer one of a traced run.
func wanted(workload string, traced bool) []metricDef {
	var out []metricDef
	if traced {
		for _, m := range endToEnd {
			if m.Demoted {
				out = append(out, m)
			}
		}
		return append(out, perLayer...)
	}
	for _, m := range endToEnd {
		if m.onWorkload(workload) {
			out = append(out, m)
		}
	}
	return out
}

// printRun prints one line per metric and checks none is missing or
// not a number.
func printRun(res runResult) error {
	var missing []string
	for _, def := range wanted(res.Workload, res.Traced) {
		m, ok := res.Metrics[def.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, def.Name)
			continue
		}
		line := fmt.Sprintf("%-15s %-40s %14.6g %-6s samples=%d", res.Workload, def.Name, m.Value, def.Unit, m.Samples)
		if m.TailPct > 0 {
			line += fmt.Sprintf(" p%g=%.4g ms", m.TailPct, m.Tail)
		}
		fmt.Println(line)
	}
	fmt.Printf("# %s seed=%d reps=%d attempted=%d failed=%d correct=%v wall=%.1fs\n",
		res.Workload, res.Seed, res.Reps, res.Attempted, res.Failed, res.Correct, res.WallS)
	if len(missing) > 0 {
		return fmt.Errorf("%s: metrics not measured: %s", res.Workload, strings.Join(missing, ", "))
	}
	return nil
}

// driverLine is the one-object result the PR driver reads from the last
// line of standard output: BENCHMARK.json's end_to_end metrics for an
// untraced run, its per_layer metrics for a traced one.
func driverLine(res runResult) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, def := range wanted(res.Workload, res.Traced) {
		if !res.Traced && !def.Driver {
			continue
		}
		metrics[def.Name] = mv{res.Metrics[def.Name].Value, def.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(b), err
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four)")
		seed     = flag.Int64("seed", 1, "generator seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 26, "time budget of one run: warm-up, set-up and measured ops")
		trace    = flag.String("trace", "0", "0: untraced end-to-end run; 1 or a file path: traced run with layer replay, spans written as JSON")
		runs     = flag.Int("runs", 1, "runs per workload, seeds seed, seed+1, ...")
		out      = flag.String("out", "", "write every run and the environment fingerprint to this JSON file")
		workdir  = flag.String("workdir", ".bench_work", "directory for server roots and mirrors (a real filesystem; its type is recorded)")
		smoke    = flag.Bool("smoke", false, "tiny sizes: every workload and the traced path in seconds")
		list     = flag.Bool("list", false, "print every metric name, unit, direction and bound, run nothing")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	if *list {
		listMetrics(os.Stdout)
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.json B.json")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if err := benchmark(*workload, *seed, *runs, *out, options{workdir: *workdir, budget: time.Duration(*seconds) * time.Second, smoke: *smoke, trace: *trace}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("an output failed verification or an operation failed")

// benchmark runs the selected workloads and prints their metrics. With
// a single workload the last line of standard output is the driver's
// JSON object. Any failed op makes it return an error.
func benchmark(workload string, seed int64, runs int, out string, opt options) error {
	if opt.budget <= 0 || runs < 1 {
		return fmt.Errorf("-seconds and -runs must be at least 1")
	}
	names := []string{workload}
	if workload == "" {
		names = nil
		for _, w := range workloadWhy {
			names = append(names, w.Name)
		}
	}
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return err
	}
	sz := fullSizes
	if opt.smoke {
		sz = smokeSizes
	}
	file := resultFile{Env: takeFingerprint(opt.workdir, sz, opt.smoke)}
	file.Env.print(os.Stdout)
	var firstErr error
	for i := 0; i < runs; i++ {
		for _, name := range names {
			res, err := runWorkload(name, seed+int64(i), opt, file.Env)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			}
			if res.Metrics == nil {
				return err // nothing was measured: set-up failed
			}
			file.Runs = append(file.Runs, res)
			if perr := printRun(res); perr != nil && err == nil {
				err = perr
			}
			if err == nil && !res.Correct {
				err = errIncorrect
			}
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if workload != "" && firstErr == nil {
		line, err := driverLine(file.Runs[len(file.Runs)-1])
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	return firstErr
}
