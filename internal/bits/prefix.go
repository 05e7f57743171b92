package bits

import (
	"cmp"
	"fmt"
	"slices"
)

// Prefix is a 128-bit address prefix: the top Len bits of Addr are
// significant; the rest are zero in a canonical prefix.
type Prefix struct {
	Addr Word128
	Len  int // 0..128
}

// MakePrefix canonicalises (addr, n) by masking away host bits.
func MakePrefix(addr Word128, n int) Prefix {
	if n < 0 {
		n = 0
	}
	if n > 128 {
		n = 128
	}
	return Prefix{Addr: addr.And(Mask(n)), Len: n}
}

// Contains reports whether addr falls inside p.
func (p Prefix) Contains(addr Word128) bool {
	return addr.And(Mask(p.Len)) == p.Addr
}

// First returns the lowest address in p (the prefix value itself).
func (p Prefix) First() Word128 { return p.Addr }

// Last returns the highest address in p.
func (p Prefix) Last() Word128 { return p.Addr.Or(Mask(p.Len).Not()) }

// Overlaps reports whether p and q share any address; for prefixes this
// happens exactly when one contains the other's base address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Contains(q.Addr) || q.Contains(p.Addr)
}

// String formats p as <hex>/<len>.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Len) }

// Range is a closed interval of 128-bit addresses.
type Range struct {
	First, Last Word128
}

// Contains reports whether addr lies inside r.
func (r Range) Contains(addr Word128) bool {
	return r.First.Cmp(addr) <= 0 && addr.Cmp(r.Last) <= 0
}

// String formats r as [first,last].
func (r Range) String() string { return fmt.Sprintf("[%s,%s]", r.First, r.Last) }

// RangeOwner pairs a disjoint address range with the index (into the
// original prefix slice) of the longest prefix covering it, or -1 when no
// prefix covers the range.
type RangeOwner struct {
	Range Range
	Owner int
}

// DisjointRanges flattens a prefix set into the sorted, disjoint address
// ranges it induces, each labelled with the index of its longest (i.e.
// innermost) covering prefix. Ranges with no covering prefix are
// omitted. This is the classic "binary search on ranges" transformation
// used by the balanced-tree routing table: a longest-prefix match over
// the prefixes becomes a point location over the ranges.
//
// DisjointRanges sorts an index over prefixes and runs the sweep of
// AppendDisjointRanges on the sorted order; a caller that already keeps
// its prefixes sorted calls AppendDisjointRanges directly.
func DisjointRanges(prefixes []Prefix) []RangeOwner {
	idx := make([]int, len(prefixes))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return ComparePrefix(prefixes[a], prefixes[b]) })
	sorted := make([]Prefix, len(prefixes))
	for i, id := range idx {
		sorted[i] = prefixes[id]
	}
	out := AppendDisjointRanges(nil, sorted)
	for i := range out {
		out[i].Owner = idx[out[i].Owner]
	}
	return out
}

// ComparePrefix orders prefixes by base address, then outer (shorter)
// before inner: the order AppendDisjointRanges sweeps in.
func ComparePrefix(p, q Prefix) int {
	if c := p.Addr.Cmp(q.Addr); c != 0 {
		return c
	}
	return cmp.Compare(p.Len, q.Len)
}

// AppendDisjointRanges appends the disjoint ranges induced by sorted —
// canonical prefixes in ComparePrefix order — to dst and returns the
// extended slice. Owners index into sorted.
//
// Prefix address sets form a laminar family — any two prefixes are
// either disjoint or nested — so a single O(n) sweep with a nesting
// stack suffices. Distinct prefixes nest at most 129 deep (/0 … /128),
// so the stack lives in a fixed array and the sweep allocates only when
// dst must grow.
func AppendDisjointRanges(dst []RangeOwner, sorted []Prefix) []RangeOwner {
	type active struct {
		owner int
		last  Word128
	}
	var (
		buf       [129]active
		stack     = buf[:0]
		pos       Word128 // next address not yet assigned to a range
		posSet    bool
		saturated bool // pos has run past Max128
	)
	emit := func(from, to Word128, owner int) {
		if to.Less(from) {
			return
		}
		dst = append(dst, RangeOwner{Range: Range{First: from, Last: to}, Owner: owner})
	}
	// segStart returns where the next segment of an active prefix begins.
	segStart := func(a active) Word128 {
		start := sorted[a.owner].First()
		if posSet && start.Less(pos) {
			start = pos
		}
		return start
	}
	bump := func(last Word128) {
		if last == Max128 {
			saturated = true
		} else {
			pos = last.AddOne()
		}
		posSet = true
	}

	for id, p := range sorted {
		first, last := p.First(), p.Last()
		// Close every active prefix that ends before this one starts.
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if !top.last.Less(first) {
				break
			}
			if !saturated {
				emit(segStart(top), top.last, top.owner)
			}
			bump(top.last)
			stack = stack[:len(stack)-1]
		}
		// The enclosing prefix owns the gap up to this one's start.
		if len(stack) > 0 && !saturated {
			top := stack[len(stack)-1]
			if start := segStart(top); start.Less(first) {
				emit(start, first.SubOne(), top.owner)
			}
		}
		if !posSet || pos.Less(first) {
			pos, posSet, saturated = first, true, false
		}
		stack = append(stack, active{owner: id, last: last})
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !saturated {
			emit(segStart(top), top.last, top.owner)
		}
		bump(top.last)
	}
	return dst
}
