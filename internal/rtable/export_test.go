package rtable

// TrieShape is a stride trie's storage shape as the external tests see
// it: the node, slot and leaf counters the table maintains, beside Kids,
// the occupied child slots counted by walking every node.
type TrieShape struct {
	Nodes, Slots, Leaves, Kids int
}

// ShapeOf returns the storage shape of a multibit or compressed table;
// it panics on any other kind.
func ShapeOf(tbl Table) TrieShape {
	t, ok := tbl.(*MultibitTable)
	if !ok {
		panic("rtable: ShapeOf on a " + tbl.Kind().String() + " table")
	}
	d := t.MemDims()
	s := TrieShape{Nodes: d.TrieNodes, Slots: d.TrieSlots, Leaves: d.TrieLeaves}
	var walk func(n *mbNode)
	walk = func(n *mbNode) {
		s.Kids += len(n.children)
		for _, c := range n.children {
			if c.node != nil {
				walk(c.node)
			}
		}
	}
	walk(t.root)
	return s
}
