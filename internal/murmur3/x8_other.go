//go:build !amd64

package murmur3

// useAVX512 is false off amd64: Sum128x8 always takes Sum128x2.
var useAVX512 = false

// sum128x8 is never called off amd64.
func sum128x8(out *[8]Digest, data *byte, n uint64, seed uint64) {
	panic("murmur3: no AVX-512 kernel on this architecture")
}
