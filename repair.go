package gpuckpt

import (
	"fmt"

	"github.com/gpuckpt/gpuckpt/internal/antientropy"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
)

// RepairReport summarizes a ScrubDir or Client.Repair pass over a
// local checkpoint store.
type RepairReport struct {
	// Checked is how many stored diffs were read and verified.
	Checked int
	// Corrupt lists the absolute checkpoint ids that are quarantined:
	// those that failed verification in this pass, plus the holes an
	// earlier pass (or damage found when the store was opened) left.
	Corrupt []int
	// Repaired lists the quarantined ids that were refetched from the
	// server and reinstalled; on a successful repair it equals Corrupt.
	Repaired []int
}

// OK reports whether the store ended the pass fully verified: nothing
// corrupt, or everything corrupt repaired.
func (r *RepairReport) OK() bool { return len(r.Corrupt) == len(r.Repaired) }

// ScrubDir verifies every diff in the checkpoint directory dir:
// record checksums, structural decode, id agreement. Corrupt diffs
// are quarantined (tombstoned in the lineage's segment, removed from
// the restorable range) but not repaired — use Client.Repair to
// refetch them from a ckptd server holding the same lineage.
func ScrubDir(dir string) (*RepairReport, error) {
	fs, err := checkpoint.NewFileStore(dir)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	return scrub(fs)
}

// scrub runs a scrub pass over fs and reports every hole it leaves
// open, old and new.
func scrub(fs *checkpoint.FileStore) (*RepairReport, error) {
	sr, err := fs.Scrub()
	if err != nil {
		return nil, err
	}
	return &RepairReport{Checked: sr.Checked, Corrupt: fs.QuarantinedIDs()}, nil
}

// Repair converges the local checkpoint directory dir with the
// server's lineage name — the recovery path for bit rot on a node's
// local store when a ckptd peer holds a replica. It runs one
// anti-entropy reconciliation round (internal/antientropy, the same
// machinery ckptd peers use continuously): scrub and quarantine local
// rot, refill quarantine holes from the server, pull any missing
// suffix, and bisect span digests down to whatever damage the scrub's
// checksum pass cannot see. Every refetched diff is verified before it
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
	rep, err := scrub(fs)
	if err != nil {
		return nil, err
	}

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
	for _, ck := range fs.QuarantinedIDs() {
		still[ck] = true
	}
	for _, ck := range rep.Corrupt {
		if !still[ck] {
			rep.Repaired = append(rep.Repaired, ck)
		}
	}
	if roundErr != nil {
		roundErr = fmt.Errorf("gpuckpt: repair %s: %w", dir, roundErr)
	}
	return rep, roundErr
}
