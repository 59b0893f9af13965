package oranges

// Golden snapshots: the SHA-256 of every GDV image the batch loops hand
// their snapshot callback, for one small catalog graph. The images
// feed the checkpoint chains of every experiment, so a change to how
// the runner schedules its roots must leave each digest alone;
// regenerate (GPUCKPT_UPDATE_GOLDEN=1 go test -run TestGoldenSnapshots
// ./internal/oranges) only for a deliberate change of the counters or
// of the batch boundaries, and say so.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/graph"
)

const (
	snapshotGoldenFile = "testdata/golden_snapshots.json"
	goldenCkpts        = 7 // uneven against the roots, so batch edges round
	goldenProcs        = 3
	goldenResumeAfter  = 2 // the snapshot a resumed run restarts behind
)

// goldenSnapshots runs every series on one graph and returns, per
// series, one line per snapshot: its index, the runner's processed
// count and the image's digest.
func goldenSnapshots(t *testing.T) map[string][]string {
	t.Helper()
	e, err := graph.CatalogByName("Message Race")
	if err != nil {
		t.Fatal(err)
	}
	g, err := e.Generate(608, 1) // 608 roots: uneven shares for 3 processes
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	var (
		r           *Runner
		log         []string
		resumeImage []byte
	)
	record := func(ck int, img []byte) error {
		if ck == goldenResumeAfter && resumeImage == nil { // the first series, RunWithSnapshots
			resumeImage = append([]byte(nil), img...)
		}
		log = append(log, fmt.Sprintf("%d %d %x", ck, r.Processed(), sha256.Sum256(img)))
		return nil
	}

	r = mustRunner(t, g, 4)
	if err := r.RunWithSnapshots(goldenCkpts, record); err != nil {
		t.Fatal(err)
	}
	out[fmt.Sprintf("run/N=%d", goldenCkpts)] = log

	for p := 0; p < goldenProcs; p++ {
		log, r = nil, mustRunner(t, g, 4)
		if err := r.RunStrideWithSnapshots(p, goldenProcs, goldenCkpts, record); err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("stride/p=%d/procs=%d/N=%d", p, goldenProcs, goldenCkpts)] = log
	}

	log = nil
	processed := g.NumVertices() * (goldenResumeAfter + 1) / goldenCkpts
	if r, err = ResumeRunner(g, nil, 4, resumeImage, processed); err != nil {
		t.Fatal(err)
	}
	if err := r.ResumeWithSnapshots(goldenCkpts, record); err != nil {
		t.Fatal(err)
	}
	out[fmt.Sprintf("resume/after=%d/N=%d", goldenResumeAfter, goldenCkpts)] = log
	return out
}

func TestGoldenSnapshots(t *testing.T) {
	got := goldenSnapshots(t)
	if os.Getenv("GPUCKPT_UPDATE_GOLDEN") != "" {
		blob, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapshotGoldenFile, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(snapshotGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d snapshot series, golden has %d", len(got), len(want))
	}
	for key, w := range want {
		if !reflect.DeepEqual(got[key], w) {
			t.Errorf("%s: snapshots differ from the golden\n got: %q\nwant: %q", key, got[key], w)
		}
	}
}
