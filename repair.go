package gpuckpt

import (
	"fmt"
	"sort"

	"github.com/gpuckpt/gpuckpt/internal/antientropy"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
)

// RepairReport summarizes a ScrubDir or Client.Repair pass over a
// local checkpoint store.
type RepairReport struct {
	// Checked is how many stored diffs were read and verified.
	Checked int
	// Corrupt lists the absolute checkpoint ids that failed
	// verification and were quarantined.
	Corrupt []int
	// Repaired lists the quarantined ids that were refetched from the
	// server and reinstalled; on a successful repair it equals Corrupt.
	Repaired []int
	// Unverified lists legacy footer-less diffs that decoded cleanly
	// but carry no checksum.
	Unverified []int
}

// OK reports whether the store ended the pass fully verified: nothing
// corrupt, or everything corrupt repaired.
func (r *RepairReport) OK() bool { return len(r.Corrupt) == len(r.Repaired) }

// ScrubDir verifies every diff in the checkpoint directory dir:
// checksum footers, structural decode, id-vs-filename agreement.
// Corrupt files are quarantined (renamed aside, removed from the
// restorable range) but not repaired — use Client.Repair to refetch
// them from a ckptd server holding the same lineage.
func ScrubDir(dir string) (*RepairReport, error) {
	fs, err := checkpoint.NewFileStore(dir)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	sr, err := fs.Scrub()
	if err != nil {
		return nil, err
	}
	return &RepairReport{Checked: sr.Checked, Corrupt: sr.Corrupt, Unverified: sr.Unverified}, nil
}

// Repair converges the local checkpoint directory dir with the
// server's lineage name — the recovery path for bit rot on a node's
// local store when a ckptd peer holds a replica. It runs one
// anti-entropy reconciliation round (internal/antientropy, the same
// machinery ckptd peers use continuously): scrub and quarantine local
// rot, refill quarantine holes from the server, pull any missing
// suffix, and bisect span digests down to whatever damage the scrub's
// footer check cannot see. Every refetched diff is verified before it
// is reinstalled; after a full repair every restore is byte-exact
// again. A local diff that verifies but disagrees with the server's
// equally-verified copy is divergence and comes back as an error
// matching antientropy.ErrDiverged — Repair never overwrites good
// local data with conflicting server data.
//
// Repair returns the report even when some diffs could not be
// repaired (server missing the lineage, id compacted away); the error
// then describes the first failure and report.OK() is false.
func (c *Client) Repair(dir, name string) (*RepairReport, error) {
	fs, err := checkpoint.NewFileStore(dir)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	sr, err := fs.Scrub()
	if err != nil {
		return nil, err
	}
	quarantined, err := fs.QuarantinedIDs()
	if err != nil {
		return nil, err
	}
	seen := make(map[int]bool, len(sr.Corrupt)+len(quarantined))
	broken := make([]int, 0, len(sr.Corrupt)+len(quarantined))
	for _, ck := range append(append([]int(nil), sr.Corrupt...), quarantined...) {
		if !seen[ck] {
			seen[ck] = true
			broken = append(broken, ck)
		}
	}
	sort.Ints(broken)
	rep := &RepairReport{Checked: sr.Checked, Corrupt: broken, Unverified: sr.Unverified}

	rec, err := antientropy.NewReconciler(antientropy.Config{
		Lineage: name,
		Store:   fs,
		Peer:    c.wc,
	})
	if err != nil {
		return rep, err
	}
	_, roundErr := rec.Round()
	// Repaired is whatever stopped being an open hole: the scrub's
	// damage list minus the quarantines still standing afterwards.
	still := map[int]bool{}
	if after, qerr := fs.QuarantinedIDs(); qerr == nil {
		for _, ck := range after {
			still[ck] = true
		}
	} else if roundErr == nil {
		roundErr = qerr
	}
	for _, ck := range broken {
		if !still[ck] {
			rep.Repaired = append(rep.Repaired, ck)
		}
	}
	if roundErr != nil {
		roundErr = fmt.Errorf("gpuckpt: repair %s: %w", dir, roundErr)
	}
	return rep, roundErr
}
