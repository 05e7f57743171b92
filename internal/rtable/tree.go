package rtable

import (
	"cmp"
	"slices"

	"taco/internal/bits"
)

// TreeNode is one node of the balanced search tree in the flattened
// array layout the TACO routing-table unit exposes to the processor:
// a disjoint address range, child indices, and the owning route. Index
// -1 means "no child".
type TreeNode struct {
	First, Last bits.Word128
	Left, Right int
	Route       Route
}

// BalancedTreeTable implements the paper's second case: a balanced tree
// with logarithmic search complexity and "much more complex" insertion
// and deletion.
//
// A longest-prefix match does not map directly onto a binary search, so
// the table stores the *disjoint address ranges* induced by the prefix
// set (binary search on ranges, Lampson/Srinivasan/Varghese 1998): each
// range is owned by the longest covering prefix, ranges partition the
// matched address space, and a lookup is a pure root-to-leaf walk. The
// tree is a perfectly balanced BST laid out over the sorted ranges, so
// its shape depends only on the range set. The price is paid on update:
// inserting or deleting one prefix splices the sorted route list, then
// re-sweeps every range and lays the whole tree out again — O(n) per
// update, which is why routing-table updates are expensive in this
// organisation (the paper notes updates are rare: once the topology
// stabilises RIPng updates arrive on the order of minutes).
type BalancedTreeTable struct {
	// routes holds one route per prefix in bits.ComparePrefix order, the
	// order the range sweep consumes.
	routes []Route
	nodes  []TreeNode
	root   int
	stats  Stats
	// gen counts rebuilds, letting the routing-table unit cache a
	// lowered copy of the node array and invalidate it on table updates.
	gen uint64
	// prefixes and ranges are rebuild scratch, kept so a steady-state
	// update allocates nothing.
	prefixes []bits.Prefix
	ranges   []bits.RangeOwner
}

// NewBalancedTree returns an empty balanced-tree table.
func NewBalancedTree() *BalancedTreeTable {
	return &BalancedTreeTable{root: -1}
}

// Kind implements Table.
func (t *BalancedTreeTable) Kind() Kind { return BalancedTree }

// Insert adds or replaces the route for r.Prefix and rebuilds the range
// tree (the complex update of the paper's discussion).
func (t *BalancedTreeTable) Insert(r Route) error {
	r.Prefix = bits.MakePrefix(r.Prefix.Addr, r.Prefix.Len)
	if i, ok := t.search(r.Prefix); ok {
		t.routes[i] = r
	} else {
		t.routes = slices.Insert(t.routes, i, r)
	}
	t.rebuild()
	return nil
}

// InsertAll adds or replaces a batch of routes with a single rebuild —
// the bulk-load path for large tables (the per-insert rebuild is the
// "complex update" the paper discusses; amortising it is how a real
// control plane would apply a full RIPng table transfer). The batch is
// sorted once and merged into the installed routes; when a prefix
// repeats, the later route wins.
func (t *BalancedTreeTable) InsertAll(rs []Route) error {
	// Sort positions into the batch by canonical prefix, ties by
	// position, so the last of a repeated prefix sorts last.
	ps := slices.Grow(t.prefixes[:0], len(rs))
	order := make([]int, len(rs))
	for i, r := range rs {
		ps = append(ps, bits.MakePrefix(r.Prefix.Addr, r.Prefix.Len))
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := bits.ComparePrefix(ps[a], ps[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	merged := make([]Route, 0, len(t.routes)+len(rs))
	old := t.routes
	for j, i := range order {
		p := ps[i]
		if j+1 < len(order) && ps[order[j+1]] == p {
			continue // a later route for the same prefix wins
		}
		for len(old) > 0 && bits.ComparePrefix(old[0].Prefix, p) < 0 {
			merged = append(merged, old[0])
			old = old[1:]
		}
		if len(old) > 0 && old[0].Prefix == p {
			old = old[1:] // replaced
		}
		r := rs[i]
		r.Prefix = p
		merged = append(merged, r)
	}
	t.routes = append(merged, old...)
	t.prefixes = ps
	t.rebuild()
	return nil
}

// Delete removes the route for p and rebuilds the range tree.
func (t *BalancedTreeTable) Delete(p bits.Prefix) bool {
	i, ok := t.search(bits.MakePrefix(p.Addr, p.Len))
	if !ok {
		return false
	}
	t.routes = slices.Delete(t.routes, i, i+1)
	t.rebuild()
	return true
}

// search returns the position of p in t.routes, or where it would be
// inserted, and whether it is present.
func (t *BalancedTreeTable) search(p bits.Prefix) (int, bool) {
	return slices.BinarySearchFunc(t.routes, p, func(r Route, p bits.Prefix) int {
		return bits.ComparePrefix(r.Prefix, p)
	})
}

// rebuild re-sweeps the sorted prefixes into disjoint ranges and lays
// the balanced tree out over them, reusing the table's buffers.
func (t *BalancedTreeTable) rebuild() {
	t.gen++
	t.prefixes = t.prefixes[:0]
	for i := range t.routes {
		t.prefixes = append(t.prefixes, t.routes[i].Prefix)
	}
	t.ranges = bits.AppendDisjointRanges(t.ranges[:0], t.prefixes)
	t.nodes = slices.Grow(t.nodes[:0], len(t.ranges))[:len(t.ranges)]
	t.root = t.layout(t.ranges, 0)
}

// layout writes the perfectly balanced BST over the sorted disjoint
// ranges into t.nodes in preorder, starting at index at, and returns the
// subtree's root index (-1 when ranges is empty). The left subtree of a
// node holds len(ranges)/2 nodes, so the right subtree starts just past
// it.
func (t *BalancedTreeTable) layout(ranges []bits.RangeOwner, at int) int {
	if len(ranges) == 0 {
		return -1
	}
	mid := len(ranges) / 2
	n := &t.nodes[at]
	n.First, n.Last = ranges[mid].Range.First, ranges[mid].Range.Last
	n.Left = t.layout(ranges[:mid], at+1)
	n.Right = t.layout(ranges[mid+1:], at+1+mid)
	n.Route = t.routes[ranges[mid].Owner]
	return at
}

// Lookup walks the tree from the root: left when addr precedes the
// node's range, right when it follows, hit when it falls inside — the
// same walk the TACO tree forwarding program performs node by node.
func (t *BalancedTreeTable) Lookup(addr bits.Word128) (Route, bool) {
	t.stats.Lookups++
	i := t.root
	for i >= 0 {
		t.stats.Probes++
		n := &t.nodes[i]
		switch {
		case addr.Less(n.First):
			i = n.Left
		case n.Last.Less(addr):
			i = n.Right
		default:
			return n.Route, true
		}
	}
	return Route{}, false
}

// Len returns the number of installed prefixes (not tree nodes).
func (t *BalancedTreeTable) Len() int { return len(t.routes) }

// Routes returns a copy of the installed routes in deterministic order.
func (t *BalancedTreeTable) Routes() []Route {
	return append(make([]Route, 0, len(t.routes)), t.routes...)
}

// Nodes exposes the flattened node array (the hardware view used by the
// TACO routing-table unit) and the root index. The table reuses the
// array: the slice is valid only until the next Insert, InsertAll or
// Delete.
func (t *BalancedTreeTable) Nodes() ([]TreeNode, int) { return t.nodes, t.root }

// NodeAt returns node i, or false when i is out of range — the
// routing-table unit's node-register load.
func (t *BalancedTreeTable) NodeAt(i int) (TreeNode, bool) {
	if i < 0 || i >= len(t.nodes) {
		return TreeNode{}, false
	}
	return t.nodes[i], true
}

// Root returns the root node index (-1 when empty).
func (t *BalancedTreeTable) Root() int { return t.root }

// Gen returns the rebuild generation: any mutation changes it, so a
// cached lowering of the node array keyed on Gen stays coherent across
// control-plane updates.
func (t *BalancedTreeTable) Gen() uint64 { return t.gen }

// Depth returns the tree height (0 for an empty tree).
func (t *BalancedTreeTable) Depth() int { return t.depth(t.root) }

func (t *BalancedTreeTable) depth(i int) int {
	if i < 0 {
		return 0
	}
	l, r := t.depth(t.nodes[i].Left), t.depth(t.nodes[i].Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Stats implements Table.
func (t *BalancedTreeTable) Stats() Stats { return t.stats }

// ResetStats implements Table.
func (t *BalancedTreeTable) ResetStats() { t.stats = Stats{} }

// MemDims implements MemSizer: one record per route plus one range node
// per disjoint interval (up to 2n-1 for n prefixes).
func (t *BalancedTreeTable) MemDims() MemDims {
	return MemDims{Entries: len(t.routes), TreeNodes: len(t.nodes)}
}
