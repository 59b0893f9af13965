package hashmap

import (
	"errors"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/murmur3"
)

// modelKeys is the key space of FuzzMapModel: small enough that a
// sequence revisits keys and fills the table.
const modelKeys = 64

// modelDigest gives key k a digest whose home slot is k%32/32 of the
// way through the table, so keys crowd the last slots and their probes
// wrap; k and k+32 share H1 and differ only in H2.
func modelDigest(k int) murmur3.Digest {
	return murmur3.Digest{H1: uint64(k%32) << 59, H2: uint64(k)}
}

// FuzzMapModel runs a decoded sequence of inserts, finds and updates
// on a table whose slot count is not a power of two against a Go map
// holding what the table must hold. The first byte picks the table
// (New(n), n odd, so 2n slots); each following triple is an op (mod
// 3), a key and an entry byte (node in the high five bits, checkpoint
// in the low three).
func FuzzMapModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 9, 1, 1, 9, 2, 1, 1})
	f.Add([]byte{3, 0, 5, 16, 0, 37, 8, 2, 5, 8, 2, 37, 0, 1, 37, 0})
	// Fill a 10-slot table with keys homed at its end, then overfill.
	fill := []byte{0}
	for k := 31; k >= 19; k-- {
		fill = append(fill, 0, byte(k), byte(k))
	}
	f.Add(append(fill, 1, 0, 0, 2, 31, 0))
	// In a 10-slot table: two keys homed at slot 8, so the second
	// lands in slot 9 before any probe wraps; then nine keys that leave
	// only slot 5 free and a tenth homed at 6 that must probe all ten.
	f.Add([]byte{0, 0, 26, 1, 0, 27, 2})
	f.Add([]byte{0, 0, 20, 0, 0, 21, 0, 0, 22, 0, 0, 52, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 32, 0, 0, 53, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		m := New(5 + 2*int(prog[0]%8))
		model := map[int]Entry{}
		for ops := prog[1:]; len(ops) >= 3; ops = ops[3:] {
			k := int(ops[1]) % modelKeys
			d := modelDigest(k)
			e := Entry{Node: uint32(ops[2] >> 3), Ckpt: uint32(ops[2] & 7)}
			cur, present := model[k]
			switch ops[0] % 3 {
			case 0:
				prev, inserted, err := m.InsertIfAbsent(d, e)
				switch {
				case present:
					if err != nil || inserted || prev != cur {
						t.Fatalf("insert of present key %d: prev=%v inserted=%v err=%v, want %v", k, prev, inserted, err, cur)
					}
				case len(model) == m.Capacity():
					if !errors.Is(err, ErrFull) {
						t.Fatalf("insert of key %d into a full table: err=%v, want ErrFull", k, err)
					}
				default:
					if err != nil || !inserted || prev != e {
						t.Fatalf("insert of key %d with %d/%d slots used: prev=%v inserted=%v err=%v", k, len(model), m.Capacity(), prev, inserted, err)
					}
					model[k] = e
				}
			case 1:
				if got, ok := m.Find(d); ok != present || got != cur {
					t.Fatalf("find key %d = %v, %v; want %v, %v", k, got, ok, cur, present)
				}
			case 2:
				demoted, swapped, err := m.UpdateIfEarlier(d, e)
				want := present && cur.Ckpt == e.Ckpt && e.Node < cur.Node
				if err != nil || swapped != want || demoted != cur {
					t.Fatalf("update key %d from %v to %v: demoted=%v swapped=%v err=%v", k, cur, e, demoted, swapped, err)
				}
				if swapped {
					model[k] = e
				}
			}
		}
		if m.Size() != len(model) {
			t.Fatalf("size %d, model holds %d", m.Size(), len(model))
		}
		seen := 0
		m.Range(func(d murmur3.Digest, e Entry) bool {
			seen++
			if k := int(d.H2); model[k] != e || modelDigest(k) != d {
				t.Fatalf("table holds %v -> %v, model %v", d, e, model[k])
			}
			return true
		})
		if seen != len(model) {
			t.Fatalf("range visited %d entries, model holds %d", seen, len(model))
		}
		// Linear probing: every slot from a key's home up to its slot,
		// wrapping past the end, is full.
		for i := range m.slots {
			if m.slots[i].val.Load() < valFull {
				continue
			}
			for j := m.home(modelDigest(int(m.slots[i].h2))); j != i; j = (j + 1) % len(m.slots) {
				if m.slots[j].val.Load() < valFull {
					t.Fatalf("slot %d is empty on the probe path to slot %d", j, i)
				}
			}
		}
	})
}
