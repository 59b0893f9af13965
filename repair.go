package gpuckpt

import (
	"fmt"
	"slices"

	"github.com/gpuckpt/gpuckpt/internal/antientropy"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
)

// RepairReport summarizes a ScrubDir or Client.Repair pass over a
// local checkpoint store.
type RepairReport struct {
	// Checked is how many stored diffs were read and verified.
	Checked int
	// Corrupt lists, ascending, the absolute checkpoint ids that failed
	// verification. A corrupt id stays in range; its reads fail typed.
	Corrupt []int
	// Repaired lists the corrupt ids that verify after the repair; on a
	// successful repair it equals Corrupt.
	Repaired []int
}

// OK reports whether the store ended the pass fully verified: nothing
// corrupt, or everything corrupt repaired.
func (r *RepairReport) OK() bool { return len(r.Corrupt) == len(r.Repaired) }

// ScrubDir verifies every diff in the checkpoint directory dir:
// record checksums, structural decode, id agreement. It writes
// nothing, not even a torn pack tail of a stopped ckptd root: corrupt
// diffs are reported, not repaired — use Client.Repair to refetch them
// from a ckptd server holding the same lineage.
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
	return &RepairReport{Checked: sr.Checked, Corrupt: sr.Corrupt}, nil
}

// Repair converges the local checkpoint directory dir with the
// server's lineage name — the recovery path for bit rot on a node's
// local store when a ckptd peer holds a replica. It scrubs, runs one
// anti-entropy reconciliation round (internal/antientropy, the same
// machinery ckptd peers use continuously): pull any missing suffix,
// and bisect span digests down to every diff that fails verification or
// differs — and scrubs again. Every refetched diff is verified before
// it is reinstalled; after a full repair every restore is byte-exact
// again. A local diff that verifies but disagrees with the server's
// equally-verified copy is divergence and comes back as an error
// matching antientropy.ErrDiverged — Repair never overwrites good
// local data with conflicting server data. A lineage of a ckptd root
// is its server's to repair (Repair fails with blockstore.ErrReadOnly).
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
	before, err := fs.Scrub()
	if err != nil {
		return nil, err
	}
	rep := &RepairReport{Checked: before.Checked, Corrupt: before.Corrupt}

	rec, err := antientropy.NewReconciler(antientropy.Config{
		Lineage: name,
		Store:   fs,
		Peer:    c.wc,
	})
	if err != nil {
		return rep, err
	}
	_, roundErr := rec.Round()
	after, err := fs.Scrub()
	if err != nil {
		return rep, err
	}
	// Repaired: corrupt before the round, in range and verified after it.
	for _, ck := range rep.Corrupt {
		if ck >= fs.Base() && !slices.Contains(after.Corrupt, ck) {
			rep.Repaired = append(rep.Repaired, ck)
		}
	}
	if roundErr != nil {
		roundErr = fmt.Errorf("gpuckpt: repair %s: %w", dir, roundErr)
	}
	return rep, roundErr
}
