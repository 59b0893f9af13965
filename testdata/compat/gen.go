// Command gen writes one root of the format corpus: a server root (a
// shared block store in _blocks and one lineage, g) holding six
// checkpoints of a fixed 24 KiB buffer, with a block-store GC after the
// fourth, so that the root holds an index snapshot and a log past it.
// It writes manifest.json beside them: the lineage, the build and the
// SHA-256 of each restored image.
//
// The file lives under testdata so that the go tool ignores it. It uses
// only APIs every build since 5610ca4 has, and is run inside the tree of
// the build whose output it records:
//
//	git archive <commit> | tar -x -C <dir>
//	mkdir -p <dir>/cmd/compatgen && cp testdata/compat/gen.go <dir>/cmd/compatgen/main.go
//	(cd <dir> && go run ./cmd/compatgen -out <root> -build <name>)
//
// Every input derives from fixed seeds, so a build writes the same root
// every time.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
)

const (
	lineage = "g"
	words   = 6 * 1024 // six 4 KiB regions
	ckpts   = 6
	gcAfter = 4 // checkpoints appended before the GC
)

// manifest is what a corpus root says about itself.
type manifest struct {
	Build   string   `json:"build"`
	Lineage string   `json:"lineage"`
	Images  []string `json:"images"` // SHA-256 of image k, hex
}

// image returns the buffer at step k. Its six regions are shaped for
// the three block layouts: sparse small counters, counters that change
// slowly from near 2^20, random words, dense counters under 2^10, a
// zero region with a few counters, and random words again. Each step
// bumps a few counters of every counter region and rewrites a few
// random words.
func image(k int) []byte {
	rng := rand.New(rand.NewSource(19))
	w := make([]uint32, words)
	for i := range w {
		switch r := i / 1024; r {
		case 0:
			if rng.Intn(8) == 0 {
				w[i] = uint32(rng.Intn(16))
			}
		case 1:
			if i%1024 == 0 {
				w[i] = 1<<20 + uint32(rng.Intn(1<<16))
			} else {
				w[i] = w[i-1] + uint32(rng.Intn(7)) - 3
			}
		case 2, 5:
			w[i] = rng.Uint32()
		case 3:
			w[i] = uint32(rng.Intn(1 << 10))
		case 4:
			if rng.Intn(64) == 0 {
				w[i] = uint32(rng.Intn(200))
			}
		}
	}
	for step := 1; step <= k; step++ {
		srng := rand.New(rand.NewSource(int64(100 + step)))
		for j := 0; j < 2; j++ {
			for _, r := range []int{0, 1, 3, 4} {
				w[r*1024+srng.Intn(1024)] += uint32(1 + srng.Intn(3))
			}
			w[2*1024+srng.Intn(1024)] = srng.Uint32()
		}
	}
	b := make([]byte, 4*words)
	for i, v := range w {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
	return b
}

func main() {
	out := flag.String("out", "", "root directory to create (must not exist)")
	build := flag.String("build", "", "name of the build that writes the root, recorded in the manifest")
	flag.Parse()
	if *out == "" || *build == "" {
		log.Fatal("usage: gen -out <root> -build <name>")
	}
	if _, err := os.Stat(*out); err == nil {
		log.Fatalf("%s exists", *out)
	}
	if err := write(*out, *build); err != nil {
		log.Fatal(err)
	}
}

func write(root, build string) error {
	bs, err := blockstore.New(filepath.Join(root, blockstore.DirName))
	if err != nil {
		return err
	}
	defer bs.Close()
	fs, err := checkpoint.NewFileStoreWith(filepath.Join(root, lineage), bs)
	if err != nil {
		return err
	}
	defer fs.Close()
	ck, err := gpuckpt.New(gpuckpt.Config{Method: gpuckpt.MethodTree, ChunkSize: 256}, 4*words)
	if err != nil {
		return err
	}
	defer ck.Close()
	m := manifest{Build: build, Lineage: lineage}
	for k := 0; k < ckpts; k++ {
		img := image(k)
		if _, err := ck.Checkpoint(img); err != nil {
			return err
		}
		var diff bytes.Buffer
		if err := ck.WriteDiff(k, &diff); err != nil {
			return err
		}
		d, err := checkpoint.Decode(&diff)
		if err != nil {
			return err
		}
		if err := fs.Append(d); err != nil {
			return err
		}
		if k+1 == gcAfter {
			if _, err := bs.GC(fs.MarkBlocks); err != nil {
				return err
			}
		}
		sum := sha256.Sum256(img)
		m.Images = append(m.Images, hex.EncodeToString(sum[:]))
	}
	rec, err := fs.Load()
	if err != nil {
		return err
	}
	for k, want := range m.Images {
		got, err := rec.Restore(k)
		if err != nil {
			return err
		}
		if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != want {
			return fmt.Errorf("checkpoint %d restores to other bytes", k)
		}
	}
	b, err := json.MarshalIndent(m, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "manifest.json"), append(b, '\n'), 0o644)
}
