package rtable

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"taco/internal/bits"
)

// referenceTree lays out the range tree from scratch for an unordered
// route set: DisjointRanges sorts the prefixes itself, and the nodes are
// a perfectly balanced BST over the ranges in preorder. It pins the node
// array an incremental update must reproduce.
func referenceTree(rs []Route) ([]TreeNode, int) {
	ps := make([]bits.Prefix, len(rs))
	for i, r := range rs {
		ps[i] = r.Prefix
	}
	ranges := bits.DisjointRanges(ps)
	var nodes []TreeNode
	var build func(ranges []bits.RangeOwner) int
	build = func(ranges []bits.RangeOwner) int {
		if len(ranges) == 0 {
			return -1
		}
		mid := len(ranges) / 2
		idx := len(nodes)
		nodes = append(nodes, TreeNode{})
		left, right := build(ranges[:mid]), build(ranges[mid+1:])
		nodes[idx] = TreeNode{
			First: ranges[mid].Range.First, Last: ranges[mid].Range.Last,
			Left: left, Right: right, Route: rs[ranges[mid].Owner],
		}
		return idx
	}
	return nodes, build(ranges)
}

// checkTreeAgainst asserts that tbl holds exactly the routes of model
// and that its layout equals both a fresh InsertAll of those routes and
// the from-scratch reference layout.
func checkTreeAgainst(t *testing.T, tbl *BalancedTreeTable, model map[bits.Prefix]Route, at string) {
	t.Helper()
	live := make([]Route, 0, len(model))
	for _, r := range model {
		live = append(live, r)
	}
	sortRoutes(live)
	if got := tbl.Routes(); !slices.Equal(got, live) {
		t.Fatalf("%s: Routes() = %v, want %v", at, got, live)
	}
	fresh := NewBalancedTree()
	if err := fresh.InsertAll(live); err != nil {
		t.Fatal(err)
	}
	nodes, root := tbl.Nodes()
	freshNodes, freshRoot := fresh.Nodes()
	if !slices.Equal(nodes, freshNodes) || root != freshRoot || tbl.Root() != root {
		t.Fatalf("%s: node array differs from a fresh InsertAll (root %d vs %d, %d vs %d nodes)",
			at, root, freshRoot, len(nodes), len(freshNodes))
	}
	refNodes, refRoot := referenceTree(live)
	if !slices.Equal(nodes, refNodes) || root != refRoot {
		t.Fatalf("%s: node array differs from the reference layout", at)
	}
	if tbl.Depth() != fresh.Depth() || tbl.MemDims() != fresh.MemDims() {
		t.Fatalf("%s: depth %d / dims %+v, fresh InsertAll has %d / %+v",
			at, tbl.Depth(), tbl.MemDims(), fresh.Depth(), fresh.MemDims())
	}
}

// churnPrefix draws a prefix from a small nested pool — /0, /128 and the
// lengths in between under a few shared bases — with random host bits
// left set, so inserts and deletes hit aliased spellings, ancestors and
// descendants of installed prefixes.
func churnPrefix(rng *rand.Rand, bases []bits.Word128) bits.Prefix {
	lens := []int{0, 1, 16, 32, 33, 48, 64, 96, 127, 128}
	base := bases[rng.Intn(len(bases))]
	noise := bits.Word128{Hi: rng.Uint64() >> uint(rng.Intn(64)), Lo: rng.Uint64()}
	ln := lens[rng.Intn(len(lens))]
	if ln == 128 {
		noise = bits.Word128{Lo: uint64(rng.Intn(4))}
	}
	return bits.Prefix{Addr: base.Xor(noise), Len: ln}
}

// TestTreeUpdateKeepsLayout applies a seeded Insert/replace/Delete churn
// stream and checks after every operation that the incrementally
// maintained tree is node-for-node the tree a bulk load builds.
func TestTreeUpdateKeepsLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	bases := make([]bits.Word128, 3)
	for i := range bases {
		bases[i] = bits.Word128{Hi: rng.Uint64(), Lo: rng.Uint64()}
	}
	tbl := NewBalancedTree()
	model := map[bits.Prefix]Route{}
	for step := 0; step < 600; step++ {
		p := churnPrefix(rng, bases)
		canon := bits.MakePrefix(p.Addr, p.Len)
		_, present := model[canon]
		gen, mutated := tbl.Gen(), present
		switch op := rng.Intn(10); {
		case op < 5: // insert, or replace when present
			mutated = true
			r := Route{Prefix: p, Iface: rng.Intn(8), Metric: 1 + rng.Intn(15)}
			if err := tbl.Insert(r); err != nil {
				t.Fatal(err)
			}
			r.Prefix = canon
			model[canon] = r
		case op < 8: // delete, often of a missing or ancestor prefix
			if got := tbl.Delete(p); got != present {
				t.Fatalf("step %d: Delete(%v) = %v, want %v", step, p, got, present)
			}
			delete(model, canon)
		default: // delete an installed prefix through an aliased spelling
			if len(model) == 0 {
				continue
			}
			live := tbl.Routes()
			q := live[rng.Intn(len(live))].Prefix
			if q.Len < 128 {
				q.Addr = q.Addr.Or(bits.Mask(q.Len).Not().And(bits.Word128{Lo: rng.Uint64()}))
			}
			if !tbl.Delete(q) {
				t.Fatalf("step %d: Delete(%v) of an installed prefix failed", step, q)
			}
			delete(model, bits.MakePrefix(q.Addr, q.Len))
			mutated = true
		}
		if mutated && tbl.Gen() == gen {
			t.Fatalf("step %d: mutation left Gen at %d", step, gen)
		}
		checkTreeAgainst(t, tbl, model, fmt.Sprintf("step %d", step))
	}
	if len(model) == 0 {
		t.Fatal("churn stream left the table empty: the stream exercises nothing at the end")
	}
}

// TestTreeInsertAllMerges covers the bulk path: duplicates within one
// batch resolve to the last, and a batch merged onto an installed table
// replaces shared prefixes and keeps the rest.
func TestTreeInsertAllMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	bases := []bits.Word128{{Hi: rng.Uint64(), Lo: rng.Uint64()}, {Hi: rng.Uint64()}}
	tbl := NewBalancedTree()
	model := map[bits.Prefix]Route{}
	for round := 0; round < 6; round++ {
		batch := make([]Route, 40)
		for i := range batch {
			p := churnPrefix(rng, bases)
			batch[i] = Route{Prefix: p, Iface: round*100 + i, Metric: 1}
		}
		// Repeat some prefixes later in the same batch: those must win.
		for i := 0; i < 10; i++ {
			r := batch[rng.Intn(len(batch))]
			r.Iface += 1000
			batch = append(batch, r)
		}
		if err := tbl.InsertAll(batch); err != nil {
			t.Fatal(err)
		}
		for _, r := range batch {
			r.Prefix = bits.MakePrefix(r.Prefix.Addr, r.Prefix.Len)
			model[r.Prefix] = r
		}
		checkTreeAgainst(t, tbl, model, fmt.Sprintf("round %d", round))
	}
	if err := tbl.InsertAll(nil); err != nil {
		t.Fatal(err)
	}
	checkTreeAgainst(t, tbl, model, "empty batch")
}

// TestBalancedTreeUpdateAllocs guards the update path: on a warmed
// tree an Insert plus Delete lays the tree out again in the table's own
// buffers and allocates nothing.
func TestBalancedTreeUpdateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rs := make([]Route, 10000)
	for i := range rs {
		rs[i] = route(bits.MakePrefix(bits.Word128{Hi: rng.Uint64(), Lo: rng.Uint64()}, 16+rng.Intn(49)), i%4)
	}
	tbl := NewBalancedTree()
	if err := tbl.InsertAll(rs); err != nil {
		t.Fatal(err)
	}
	// A /96 under an installed route: the update splits a real range.
	r := route(bits.MakePrefix(rs[77].Prefix.Addr.Or(bits.Word128{Lo: 1 << 40}), 96), 9)
	update := func() {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
		if !tbl.Delete(r.Prefix) {
			t.Fatal("delete of the inserted prefix failed")
		}
	}
	update() // warm: grow the route and scratch buffers once
	if avg := testing.AllocsPerRun(20, update); avg != 0 {
		t.Errorf("Insert+Delete on a warmed 10^4-route tree: %.1f allocs, want 0", avg)
	}
}
