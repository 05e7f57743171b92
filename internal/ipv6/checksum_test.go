package ipv6

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refChecksumFold is the textbook RFC 1071 loop checksumFold replaced:
// 16-bit big-endian words added with end-around carry.
func refChecksumFold(sum uint32, b []byte) uint32 {
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return sum
}

// checksumFold must equal the 16-bit reference for every length up to
// beyond an Ethernet MTU (odd lengths included), from zero and from
// random nonzero folded partial sums, over random, all-zero and
// all-0xff buffers.
func TestChecksumFoldMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2080))
	random := make([]byte, 1600)
	rng.Read(random)
	zeros := make([]byte, 1600)
	ones := bytes.Repeat([]byte{0xff}, 1600)
	for n := 0; n <= 1600; n++ {
		sums := []uint32{0, 0xffff, uint32(1 + rng.Intn(0xffff)), uint32(1 + rng.Intn(0xffff))}
		for _, buf := range [][]byte{random, zeros, ones} {
			// Unaligned starts too: the word loop must not assume
			// alignment.
			for _, off := range []int{0, 1} {
				if off+n > len(buf) {
					continue
				}
				b := buf[off : off+n]
				for _, s := range sums {
					if got, want := checksumFold(s, b), refChecksumFold(s, b); got != want {
						t.Fatalf("len %d off %d sum %#x: checksumFold = %#x, reference %#x", n, off, s, got, want)
					}
				}
			}
		}
	}
}
