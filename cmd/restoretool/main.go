// Command restoretool inspects, restores, and compacts checkpoint
// records stored in the canonical diff wire format (a concatenation of
// encoded diffs, as written by Checkpointer.WriteDiff).
//
// Usage:
//
//	restoretool -record lineage.bin -info
//	restoretool -dir lineage/ -info                  # PersistDir layout
//	restoretool -record lineage.bin -restore 3 -o state.bin
//	restoretool -dir lineage/ -restore 3 -verify golden.bin
//	restoretool -dir lineage/ -compact keep-last=8
//	restoretool -remote host:9090 -lineage proc-00 -restore 3
//	restoretool -remote host:9090 -lineage proc-00 -compact keep-last=8
//
// With -remote, the record is pulled over the network from a ckptd
// checkpoint server (cmd/ckptd) instead of read from local files, and
// -compact runs as a server-side transaction. With -dir, a lineage of a
// ckptd root, live or stopped, is read and never written: its _blocks
// is opened read-only, and -compact fails with blockstore.ErrReadOnly.
//
// A compacted lineage keeps its original absolute checkpoint indices:
// after compacting to baseline 8, -restore 8 and up keep working and
// restore the same bytes as before, while earlier indices are gone.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	gpuckpt "github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/compress"
	"github.com/gpuckpt/gpuckpt/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "restoretool:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("restoretool", flag.ContinueOnError)
	var (
		recordPath = fs.String("record", "", "checkpoint record file (single stream)")
		dirPath    = fs.String("dir", "", "checkpoint lineage directory (PersistDir layout)")
		remote     = fs.String("remote", "", "ckptd server address (host:port) to pull the lineage from")
		lineage    = fs.String("lineage", "", "lineage name on the remote server (with -remote)")
		timeout    = fs.Duration("timeout", 30*time.Second, "network timeout for -remote operations")
		info       = fs.Bool("info", false, "print per-checkpoint record info")
		restore    = fs.Int("restore", -1, "restore this checkpoint id")
		parallel   = fs.Int("parallel", 0, "restore workers (0 = GOMAXPROCS)")
		compact    = fs.String("compact", "", "compact the lineage under this retention policy (keep-all, keep-last=N, keep-every=K) before other actions")
		out        = fs.String("o", "", "write the restored buffer to this file")
		verify     = fs.String("verify", "", "compare the restored buffer with this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sources := 0
	for _, set := range []bool{*recordPath != "", *dirPath != "", *remote != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("pass exactly one of -record, -dir or -remote")
	}
	if (*remote != "") != (*lineage != "") {
		return fmt.Errorf("-remote and -lineage go together")
	}
	if *compact != "" && *recordPath != "" {
		return fmt.Errorf("-compact needs a lineage (-dir or -remote), not a flat -record stream")
	}

	var cl *gpuckpt.Client
	if *remote != "" {
		var err error
		cl, err = gpuckpt.Dial(*remote, *timeout)
		if err != nil {
			return err
		}
		defer cl.Close()
	}

	// Compaction runs first so -info and -restore report the state the
	// tool leaves behind.
	if *compact != "" {
		var ci gpuckpt.CompactInfo
		var err error
		if cl == nil {
			ci, err = gpuckpt.CompactDir(*dirPath, *compact, *parallel)
		} else if err = cl.SetRetention(*lineage, *compact); err == nil {
			ci, err = cl.Compact(*lineage)
		}
		if err != nil {
			return err
		}
		if ci.NewBase == ci.OldBase {
			fmt.Fprintf(stdout, "compaction (%s): nothing to fold, baseline stays %d\n", *compact, ci.OldBase)
		} else {
			fmt.Fprintf(stdout, "compacted (%s): baseline %d -> %d, pruned %d diffs, rewrote %d, freed %s\n",
				*compact, ci.OldBase, ci.NewBase, ci.Pruned, ci.Rewritten, metrics.Bytes(ci.FreedBytes))
		}
	}

	// Collect the raw diff stream for the -info report. Ids in the
	// stream are absolute: a compacted lineage starts at its baseline.
	var raw []byte
	var pulled *gpuckpt.Record // the remote lineage, pulled once for -info and -restore
	switch {
	case *recordPath != "":
		var err error
		raw, err = os.ReadFile(*recordPath)
		if err != nil {
			return err
		}
	case cl != nil:
		var err error
		if pulled, err = cl.Pull(*lineage); err != nil {
			return err
		}
		var stream bytes.Buffer
		for ck := pulled.Base(); ck < pulled.Len(); ck++ {
			if err := pulled.WriteDiff(ck, &stream); err != nil {
				return err
			}
		}
		raw = stream.Bytes()
		fmt.Fprintf(stdout, "pulled lineage %q (checkpoints [%d,%d), %s) from %s\n",
			*lineage, pulled.Base(), pulled.Len(), metrics.Bytes(int64(len(raw))), *remote)
	default:
		store, err := checkpoint.NewFileStore(*dirPath)
		if err != nil {
			return err
		}
		defer store.Close()
		n := store.Len()
		if n == store.Base() {
			return fmt.Errorf("lineage directory %s is empty", *dirPath)
		}
		// A restore alone reads only the diffs it replays, [Base, k], so
		// a damaged diff above k does not stand in its way.
		if *restore >= 0 && !*info {
			n = min(n, max(*restore, store.Base())+1)
		}
		// DiffBytes verifies each stored record's checksums and
		// reassembles block-mapped containers from the shared block
		// store, so raw is always the canonical diff stream.
		for ck := store.Base(); ck < n; ck++ {
			b, err := store.DiffBytes(ck)
			if err != nil {
				return err
			}
			raw = append(raw, b...)
		}
		if man := store.Manifest(); man.Base > 0 {
			fmt.Fprintf(stdout, "manifest: baseline %d, generation %d\n", man.Base, man.Generation)
		}
	}

	if *info {
		t := metrics.NewTable("checkpoint record", "ckpt", "method", "stored", "metadata", "data", "codec", "regions")
		r := bytes.NewReader(raw)
		for {
			d, err := checkpoint.Decode(r)
			if err != nil {
				break
			}
			codec := "-"
			if d.DataCodec != 0 {
				if c, err := compress.ByID(d.DataCodec); err == nil {
					codec = c.Name()
				}
			}
			t.Add(
				fmt.Sprintf("%d", d.CkptID),
				d.Method.String(),
				metrics.Bytes(d.TotalBytes()),
				metrics.Bytes(d.MetadataBytes()),
				metrics.Bytes(int64(len(d.Data))),
				codec,
				fmt.Sprintf("%d+%d", d.FirstOcur.Len(), d.ShiftDupl.Len()),
			)
		}
		if err := t.Render(stdout); err != nil {
			return err
		}
	}

	if *restore < 0 {
		if !*info && *compact == "" {
			return fmt.Errorf("nothing to do: pass -info, -restore or -compact")
		}
		return nil
	}

	rec := pulled
	if rec == nil {
		var err error
		if rec, err = gpuckpt.ReadRecord(bytes.NewReader(raw)); err != nil {
			return err
		}
	}
	rec.Parallel(*parallel)
	state, err := rec.Restore(*restore)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "restored checkpoint %d: %s\n", *restore, metrics.Bytes(int64(len(state))))

	if *out != "" {
		if err := os.WriteFile(*out, state, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	if *verify != "" {
		golden, err := os.ReadFile(*verify)
		if err != nil {
			return err
		}
		if !bytes.Equal(state, golden) {
			return fmt.Errorf("verification FAILED: restored state differs from %s", *verify)
		}
		fmt.Fprintln(stdout, "verification OK: restored state is bit-exact")
	}
	return nil
}
