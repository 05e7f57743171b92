// The Compressed kind is the multibit trie under a different storage
// price: for the same routes both kinds must report identical storage
// dims, and TrieKids — the records the compressed price charges
// pointer width for — must count exactly the occupied child slots.
package rtable

import (
	"math/rand"
	"testing"

	"taco/internal/bits"
)

func TestCompressedMemDims(t *testing.T) {
	mb, cp := New(Multibit), New(Compressed)
	if mb.Kind() != Multibit || cp.Kind() != Compressed {
		t.Fatalf("New built kinds %v and %v", mb.Kind(), cp.Kind())
	}
	rng := rand.New(rand.NewSource(7))
	base := bits.Word128{Hi: 0x2001000000000000}
	for i := 0; i < 2000; i++ {
		addr := base.Or(bits.FromUint64(uint64(rng.Intn(100000)) << 12))
		r := Route{Prefix: bits.MakePrefix(addr, []int{32, 48, 64, 128}[rng.Intn(4)]), Metric: 1}
		if err := mb.Insert(r); err != nil {
			t.Fatal(err)
		}
		if err := cp.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	md, cd := mb.(MemSizer).MemDims(), cp.(MemSizer).MemDims()
	if md != cd {
		t.Fatalf("compressed dims %+v, multibit %+v", cd, md)
	}
	if s := ShapeOf(cp); cd.TrieKids != s.Kids {
		t.Fatalf("TrieKids = %d, walked %d occupied child slots", cd.TrieKids, s.Kids)
	}
}
