// Command ckptbench regenerates the tables and figures of the paper's
// evaluation section (Tan et al., ICPP 2023, §3) at a configurable
// scale.
//
// Usage:
//
//	ckptbench -exp table1|fig4|fig5|fig6|ablation|compact|all [flags]
//
// Examples:
//
//	ckptbench -exp fig4 -vertices 20000
//	ckptbench -exp fig6 -procs 1,2,4,8,16,32,64 -csv fig6.csv
//	ckptbench -exp all -vertices 5000 -maxk 3   # quick pass
//	ckptbench -exp push -remote localhost:9090  # push to a ckptd server
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	gpuckpt "github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/experiments"
	"github.com/gpuckpt/gpuckpt/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ckptbench:", err)
		os.Exit(1)
	}
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// joinInts is parseInts' inverse: a flag default from a Config list.
func joinInts(vs []int) string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.Itoa(v)
	}
	return strings.Join(out, ",")
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ckptbench", flag.ContinueOnError)
	// The paper's parameters default to the experiments' own defaults,
	// so the two cannot drift apart.
	def := experiments.DefaultConfig()
	var (
		exp      = fs.String("exp", "all", "experiment: table1, fig4, fig5, fig6, overhead, ablation, extensions, adjoint, headline, compact, dedupx, failover, all")
		vertices = fs.Int("vertices", def.TargetVertices, "target vertices per input graph (paper: 11-18 M)")
		maxK     = fs.Int("maxk", def.MaxGraphletSize, "largest graphlet size for ORANGES (paper: 5)")
		chunks   = fs.String("chunks", joinInts(def.ChunkSizes), "chunk sizes for fig4")
		chunk    = fs.Int("chunk", def.ChunkSize, "chunk size for fig5/fig6/ablation")
		freqs    = fs.String("freqs", joinInts(def.Frequencies), "checkpoint counts for fig5")
		procs    = fs.String("procs", joinInts(def.ProcCounts), "process counts for fig6")
		nCkpts   = fs.Int("n", def.NumCheckpoints, "checkpoints for fig4/fig6/ablation")
		workers  = fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		seed     = fs.Int64("seed", 42, "graph generator seed")
		verify   = fs.Bool("verify", false, "verify every restore bit-exactly")
		csvPath  = fs.String("csv", "", "also write results as CSV to this file prefix")
		gorder   = fs.Bool("gorder", false, "apply the Gorder pre-process (generators emit trace order natively)")
		remote   = fs.String("remote", "", "ckptd server address (host:port) for -exp push")
		lineage  = fs.String("lineage", "ckptbench", "lineage name on the server for -exp push")
		keepLast = fs.Int("keeplast", 4, "retained checkpoints for -exp compact (keep-last=K)")
		lineages = fs.Int("lineages", 4, "tenant count for -exp dedupx")
		jsonPath = fs.String("json", "", "write -exp dedupx/saturate/failover/heal results as JSON to this file")
		chainLen = fs.Int("chain", 64, "checkpoint chain length for -exp saturate/failover/heal")
		frames   = fs.Int("frames", gpuckpt.DefaultWindowFrames, "streaming window frame bound for -exp saturate")
		frameB   = fs.Int64("framebytes", gpuckpt.DefaultWindowBytes, "streaming window byte bound for -exp saturate")
		pipeline = fs.Bool("pipeline", false, "overlap each checkpoint's store with the next one's dedup (CheckpointAsync)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ckptbench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ckptbench: -memprofile:", err)
			}
		}()
	}

	chunkSizes, err := parseInts(*chunks)
	if err != nil {
		return err
	}
	frequencies, err := parseInts(*freqs)
	if err != nil {
		return err
	}
	procCounts, err := parseInts(*procs)
	if err != nil {
		return err
	}
	cfg := experiments.Config{
		TargetVertices:  *vertices,
		Workers:         *workers,
		Seed:            *seed,
		MaxGraphletSize: *maxK,
		ChunkSizes:      chunkSizes,
		Frequencies:     frequencies,
		ProcCounts:      procCounts,
		NumCheckpoints:  *nCkpts,
		ChunkSize:       *chunk,
		VerifyRestore:   *verify,
		ApplyGorder:     *gorder,
		Pipelined:       *pipeline,
	}

	emit := func(name string, t *metrics.Table) error {
		if err := t.Render(stdout); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		if *csvPath != "" {
			f, err := os.Create(*csvPath + "-" + name + ".csv")
			if err != nil {
				return err
			}
			defer f.Close()
			if err := t.WriteCSV(f); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n\n", f.Name())
		}
		return nil
	}

	runs := map[string]func() error{
		"table1": func() error {
			t, err := experiments.Table1(cfg)
			if err != nil {
				return err
			}
			return emit("table1", t)
		},
		"fig4": func() error {
			t, _, err := experiments.Fig4(cfg)
			if err != nil {
				return err
			}
			return emit("fig4", t)
		},
		"fig5": func() error {
			t, _, err := experiments.Fig5(cfg)
			if err != nil {
				return err
			}
			return emit("fig5", t)
		},
		"fig6": func() error {
			t, _, err := experiments.Fig6(cfg)
			if err != nil {
				return err
			}
			return emit("fig6", t)
		},
		"overhead": func() error {
			t, _, err := experiments.Overhead(cfg)
			if err != nil {
				return err
			}
			return emit("overhead", t)
		},
		"extensions": func() error {
			t, _, err := experiments.Extensions(cfg)
			if err != nil {
				return err
			}
			return emit("extensions", t)
		},
		"headline": func() error {
			t, claims, err := experiments.Headline(cfg)
			if err != nil {
				return err
			}
			if err := emit("headline", t); err != nil {
				return err
			}
			for _, c := range claims {
				if !c.Pass {
					return fmt.Errorf("headline claim %s failed: %s (%s)", c.ID, c.Text, c.Detail)
				}
			}
			return nil
		},
		"adjoint": func() error {
			t, _, err := experiments.Adjoint(cfg)
			if err != nil {
				return err
			}
			return emit("adjoint", t)
		},
		"ablation": func() error {
			t, _, err := experiments.Ablation(cfg)
			if err != nil {
				return err
			}
			return emit("ablation", t)
		},
		"push": func() error {
			if *remote == "" {
				return fmt.Errorf("-exp push requires -remote host:port (a running ckptd)")
			}
			t, err := pushExperiment(*remote, *lineage, cfg)
			if err != nil {
				return err
			}
			return emit("push", t)
		},
		"compact": func() error {
			t, err := compactExperiment(cfg, *keepLast)
			if err != nil {
				return err
			}
			return emit("compact", t)
		},
		"saturate": func() error {
			t, err := saturateExperiment(cfg, *chainLen, *frames, *frameB, *jsonPath)
			if t != nil {
				if eerr := emit("saturate", t); eerr != nil {
					return eerr
				}
			}
			return err
		},
		"failover": func() error {
			t, err := failoverExperiment(cfg, *chainLen, *jsonPath)
			if t != nil {
				if eerr := emit("failover", t); eerr != nil {
					return eerr
				}
			}
			return err
		},
		"heal": func() error {
			t, err := healExperiment(cfg, *chainLen, *jsonPath)
			if t != nil {
				if eerr := emit("heal", t); eerr != nil {
					return eerr
				}
			}
			return err
		},
		"dedupx": func() error {
			t, err := dedupxExperiment(cfg, *lineages, *jsonPath)
			if t != nil {
				if eerr := emit("dedupx", t); eerr != nil {
					return eerr
				}
			}
			return err
		},
	}
	// "push" needs a live ckptd server, and "failover"/"heal" are
	// resilience drills rather than paper experiments, so "all"
	// (the offline reproduction pass) includes none of them.
	order := []string{"table1", "fig4", "fig5", "fig6", "overhead", "ablation", "extensions", "adjoint", "headline", "compact"}

	if *exp == "all" {
		for _, name := range order {
			fmt.Fprintf(stdout, "=== %s ===\n", name)
			if err := runs[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	fn, ok := runs[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want one of %s, push, all)", *exp, strings.Join(order, ", "))
	}
	return fn()
}

// pushExperiment drives the §2.3 "many writers, one storage service"
// regime against a live ckptd: it checkpoints the ORANGES workload
// series with the Tree method, pushes every diff to the server as it
// is produced, pulls the lineage back and verifies the final restore
// bit-exactly.
func pushExperiment(remote, lineage string, cfg experiments.Config) (*metrics.Table, error) {
	series, err := gpuckpt.BuildWorkloadSeries(gpuckpt.WorkloadConfig{
		TargetVertices:  cfg.TargetVertices,
		Checkpoints:     cfg.NumCheckpoints,
		MaxGraphletSize: cfg.MaxGraphletSize,
		Seed:            cfg.Seed,
		Workers:         cfg.Workers,
		ApplyGorder:     cfg.ApplyGorder,
	})
	if err != nil {
		return nil, err
	}
	ck, err := gpuckpt.New(gpuckpt.Config{
		Method: gpuckpt.MethodTree, ChunkSize: cfg.ChunkSize, Workers: cfg.Workers,
	}, series.DataLen)
	if err != nil {
		return nil, err
	}
	defer ck.Close()
	cl, err := gpuckpt.Dial(remote, 0)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	var inputBytes, pushed int64
	for _, img := range series.Images {
		res, err := ck.Checkpoint(img)
		if err != nil {
			return nil, err
		}
		inputBytes += res.InputBytes
		if _, err := cl.PushCheckpointer(lineage, ck); err != nil {
			return nil, err
		}
	}
	infos, err := cl.List()
	if err != nil {
		return nil, err
	}
	for _, in := range infos {
		if in.Name == lineage {
			pushed = in.Bytes
		}
	}
	rec, err := cl.Pull(lineage)
	if err != nil {
		return nil, err
	}
	state, err := rec.Restore(rec.Len() - 1)
	if err != nil {
		return nil, err
	}
	verified := "OK"
	if !bytes.Equal(state, series.Images[len(series.Images)-1]) {
		verified = "FAILED"
	}
	st, err := cl.Stats()
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("remote push ("+remote+")",
		"lineage", "ckpts", "input", "stored remotely", "ratio", "server reqs", "restore")
	ratio := 0.0
	if pushed > 0 {
		ratio = float64(inputBytes) / float64(pushed)
	}
	t.Add(lineage,
		fmt.Sprintf("%d", rec.Len()),
		metrics.Bytes(inputBytes),
		metrics.Bytes(pushed),
		fmt.Sprintf("%.2fx", ratio),
		fmt.Sprintf("%d", st.Requests),
		verified)
	if verified != "OK" {
		return nil, fmt.Errorf("remote restore differs from the original buffer")
	}
	return t, nil
}
