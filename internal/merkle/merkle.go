// Package merkle implements the flattened complete-binary-tree Merkle
// tree used by the Tree de-duplication method (Tan et al., ICPP 2023,
// §2.2, §2.4).
//
// The tree over n leaf chunks has exactly 2n-1 nodes stored in a flat
// array in breadth-first order: node v has children 2v+1 and 2v+2 and
// parent (v-1)/2, so no pointers are stored — "the array format does
// not waste space on unused pointers" (§2.4). Because every node count
// 2n-1 is odd, each internal node has exactly two children.
//
// When n is not a power of two the deepest level is partially filled.
// Chunks are assigned to leaves in left-to-right tree order, which in
// BFS indexing means the deepest-level leaves (indices p-1 .. 2n-2,
// where p = 2^ceil(log2 n)) hold the first chunks and the leaves on
// the level above (indices n-1 .. p-2) hold the remainder. The
// LeafNode/LeafIndex helpers encapsulate this rotation; a subtree's
// leaves are always contiguous in chunk order.
package merkle

import (
	"fmt"
	"math/bits"

	"github.com/gpuckpt/gpuckpt/internal/murmur3"
)

// Tree holds the Merkle digests for a fixed chunk geometry. The digest
// array is persistent across checkpoints: the dedup layer compares the
// fresh digest of leaf i against Digests[LeafNode(i)] to detect fixed
// duplicates, then overwrites it.
type Tree struct {
	// NumLeaves is the number of data chunks n.
	NumLeaves int
	// NumNodes is 2n-1.
	NumNodes int
	// Digests holds one digest per node, indexed breadth-first.
	Digests []murmur3.Digest

	// perfect is p = 2^ceil(log2 n), the size of the deepest level if
	// it were full; p-1 is the BFS index of the leftmost deepest leaf.
	perfect int
	// deep is the number of leaves on the deepest level: 2n - p.
	deep int
}

// NewGeometry returns a tree describing only the shape for n leaves —
// no digest storage. Restore paths use it for node/span arithmetic
// without paying 16 bytes per node.
func NewGeometry(n int) *Tree {
	if n < 1 {
		panic(fmt.Sprintf("merkle: invalid leaf count %d", n))
	}
	p := 1 << bits.Len(uint(n-1)) // 2^ceil(log2 n); p=1 when n=1
	if n == 1 {
		p = 1
	}
	return &Tree{
		NumLeaves: n,
		NumNodes:  2*n - 1,
		perfect:   p,
		deep:      2*n - p,
	}
}

// New creates a tree for n leaf chunks with all digests zero.
func New(n int) *Tree {
	t := NewGeometry(n)
	t.Digests = make([]murmur3.Digest, t.NumNodes)
	return t
}

// NumChunks returns the number of leaf chunks for a buffer of dataLen
// bytes split into chunkSize-byte chunks (the last chunk may be short).
func NumChunks(dataLen, chunkSize int) int {
	if chunkSize <= 0 {
		panic("merkle: chunk size must be positive")
	}
	if dataLen <= 0 {
		return 1 // a degenerate empty buffer still gets one (empty) leaf
	}
	return (dataLen + chunkSize - 1) / chunkSize
}

// Parent returns the parent node of v.
func Parent(v int) int { return (v - 1) / 2 }

// Left returns the left child of v.
func Left(v int) int { return 2*v + 1 }

// Right returns the right child of v.
func Right(v int) int { return 2*v + 2 }

// IsLeaf reports whether node v is a leaf.
func (t *Tree) IsLeaf(v int) bool { return v >= t.NumLeaves-1 }

// LeafNode maps chunk index i (data order) to its BFS node index.
func (t *Tree) LeafNode(i int) int {
	if i < 0 || i >= t.NumLeaves {
		panic(fmt.Sprintf("merkle: leaf index %d out of range [0,%d)", i, t.NumLeaves))
	}
	if i < t.deep {
		return t.perfect - 1 + i
	}
	return t.NumLeaves - 1 + i - t.deep
}

// DeepLeaves returns how many leaves sit on the deepest level: chunks
// [0, DeepLeaves) do, the remaining chunks sit one level up.
func (t *Tree) DeepLeaves() int { return t.deep }

// LeafIndex maps a leaf node index back to its chunk index.
func (t *Tree) LeafIndex(v int) int {
	if !t.IsLeaf(v) {
		panic(fmt.Sprintf("merkle: node %d is not a leaf", v))
	}
	if v >= t.perfect-1 {
		return v - (t.perfect - 1)
	}
	return v - (t.NumLeaves - 1) + t.deep
}

// LeafRange returns the half-open chunk range [lo, hi) covered by the
// subtree rooted at v. Subtree leaves are contiguous in chunk order.
func (t *Tree) LeafRange(v int) (lo, hi int) {
	l, r := v, v
	for !t.IsLeaf(l) {
		l = Left(l)
	}
	for !t.IsLeaf(r) {
		r = Right(r)
	}
	return t.LeafIndex(l), t.LeafIndex(r) + 1
}

// NodeSpan returns the byte range [off, end) of the original buffer
// covered by node v, for the given chunk geometry. end is clamped to
// dataLen for the region containing the short tail chunk.
func (t *Tree) NodeSpan(v, chunkSize, dataLen int) (off, end int) {
	lo, hi := t.LeafRange(v)
	off = lo * chunkSize
	end = hi * chunkSize
	if end > dataLen {
		end = dataLen
	}
	if off > dataLen {
		off = dataLen
	}
	return off, end
}

// Depth returns the depth of node v (root is 0).
func Depth(v int) int { return bits.Len(uint(v+1)) - 1 }

// Levels returns, for each depth from the deepest internal level up to
// the root, the half-open node-index interval [lo, hi) of *internal*
// nodes at that depth. Iterating the returned slice in order performs
// the bottom-up level-by-level sweep of Algorithm 1; all nodes within
// one level may be processed in parallel.
func (t *Tree) Levels() [][2]int {
	internal := t.NumLeaves - 1 // internal nodes are indices [0, n-1)
	if internal == 0 {
		return nil
	}
	maxDepth := Depth(internal - 1)
	levels := make([][2]int, 0, maxDepth+1)
	for d := maxDepth; d >= 0; d-- {
		lo := 1<<d - 1
		hi := 1<<(d+1) - 1
		if hi > internal {
			hi = internal
		}
		if lo < hi {
			levels = append(levels, [2]int{lo, hi})
		}
	}
	return levels
}

// Clone returns a deep copy of the tree (used by tests and by restore
// paths that need a scratch tree without disturbing the live record).
func (t *Tree) Clone() *Tree {
	c := *t
	c.Digests = make([]murmur3.Digest, len(t.Digests))
	copy(c.Digests, t.Digests)
	return &c
}
