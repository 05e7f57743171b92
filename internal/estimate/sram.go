package estimate

import (
	"fmt"
	"math"

	"taco/internal/rtable"
)

// Per-record storage costs of each table organisation, in bits. The
// paper's 100-entry constraint makes table storage a rounding error;
// at 10⁵–10⁶ routes it dominates the die, which is exactly the
// co-analysis question the large-database axis asks. Widths follow the
// RTU's data layout:
const (
	// seqEntryBits: 128-bit prefix + 8-bit length + 128-bit next hop +
	// 32 bits of interface/metric/tag data per sequential entry.
	seqEntryBits = 296
	// treeNodeBits: two 128-bit range bounds, two 24-bit child indices
	// and a 48-bit embedded route record per range node.
	treeNodeBits = 352
	// trieSlotBits: one expanded child slot of a multibit node — a
	// 40-bit pointer plus type/route tag.
	trieSlotBits = 48
	// trieLeafBits: a path-compressed leaf — 136-bit prefix plus a
	// 56-bit route reference.
	trieLeafBits = 192
	// binaryNodeBits: a binary-trie node — two 32-bit pointers plus a
	// route flag byte.
	binaryNodeBits = 72
	// resultBits: the next-hop record (next hop, interface, metric,
	// tag) every trie-shaped organisation stores once per route.
	resultBits = 160
	// camAssocBits: the on-chip SRAM word associated with each external
	// CAM entry (the CAM cells themselves are off-chip).
	camAssocBits = 32
	// indexNodeBits: one tiled-TCAM index-stage node — two block/node
	// pointers plus a leaf flag, a binary-trie-shaped SRAM record.
	indexNodeBits = 72
	// compressedNodeBits: the fixed part of a compressed-trie node —
	// level tag, child-array base pointer, span-route list head.
	compressedNodeBits = 96
	// compressedKidBits: one occupied compact child record — a 40-bit
	// pointer plus type tag, same payload as a multibit slot.
	compressedKidBits = 48
)

// tcamStandbyFrac is the standby power an inactive (not-searched)
// tiled-TCAM block draws relative to an active one: match lines are
// not precharged, only the cell array leaks. The MashUp-style win is
// that per search one block pays full search power and the rest pay
// only this fraction, where the monolithic CAM pays full power on
// every chip for every search.
const tcamStandbyFrac = 0.08

// memKWordBits is the capacity of the "memKWord" cost unit (1 K words
// of 32-bit SRAM), tying table storage to the same cost basis as the
// processor's packet memory.
const memKWordBits = 1024 * 32

// TableMem is the memory co-analysis of one table organisation at one
// database size: the storage the routing-table unit addresses, priced
// in the technology's SRAM cost basis.
type TableMem struct {
	// Bits is the total on-chip table storage.
	Bits int64
	// AreaMM2 and PowerW are the on-chip SRAM contribution (dynamic at
	// a low row-access activity plus leakage over the array area).
	AreaMM2 float64
	PowerW  float64
	// CAMChips counts external CAM devices needed for the entry count
	// (0 for non-CAM kinds); CAMPowerW is their total chip power, kept
	// separate from PowerW the way Table 1 footnotes the CAM chip.
	CAMChips  int
	CAMPowerW float64
}

// TableSRAM prices the storage dims of a table organisation at clockHz
// in tech. For the CAM the associative array is external silicon
// (counted in chips, not mm²); only its next-hop SRAM is on-chip.
func TableSRAM(kind rtable.Kind, dims rtable.MemDims, clockHz float64, tech Tech) TableMem {
	var bits int64
	var m TableMem
	switch kind {
	case rtable.Sequential:
		bits = int64(dims.Entries) * seqEntryBits
	case rtable.BalancedTree:
		bits = int64(dims.TreeNodes) * treeNodeBits
	case rtable.Trie:
		bits = int64(dims.BinaryNodes)*binaryNodeBits + int64(dims.Entries)*resultBits
	case rtable.Multibit:
		bits = int64(dims.TrieSlots)*trieSlotBits +
			int64(dims.TrieLeaves)*trieLeafBits +
			int64(dims.Entries)*resultBits
	case rtable.CAM:
		bits = int64(dims.Entries) * camAssocBits
		cam := rtable.DefaultCAMConfig()
		m.CAMChips = (dims.Entries + cam.Capacity - 1) / cam.Capacity
		m.CAMPowerW = float64(m.CAMChips) * cam.ChipPowerW
	case rtable.TiledTCAM:
		// Ternary cells are external silicon on the same chip basis as
		// the monolithic CAM; the index stage and per-entry next-hop
		// words are on-chip SRAM. Allocated capacity is whole blocks.
		bits = int64(dims.IndexNodes)*indexNodeBits + int64(dims.TCAMEntries)*camAssocBits
		cam := rtable.DefaultCAMConfig()
		block := rtable.DefaultTiledTCAMConfig().BlockSize
		cells := dims.TCAMBlocks * block
		m.CAMChips = (cells + cam.Capacity - 1) / cam.Capacity
		// Power: one search activates a single block — full search power
		// over BlockSize of one chip's Capacity — while every other
		// allocated cell sits in standby. The monolithic CAM instead
		// searches every chip flat-out; this difference is the headline
		// fraction-of-power claim.
		active := cam.ChipPowerW * float64(block) / float64(cam.Capacity)
		standby := tcamStandbyFrac * cam.ChipPowerW * float64(m.CAMChips)
		m.CAMPowerW = active + standby
	case rtable.Compressed:
		// The multibit trie priced as bitmap+rank storage: bitmap bits
		// replace the expanded slots; only occupied children pay
		// pointer-width records.
		bits = int64(dims.TrieSlots) + // 1 bit per expanded slot
			int64(dims.TrieNodes)*compressedNodeBits +
			int64(dims.TrieKids)*compressedKidBits +
			int64(dims.TrieLeaves)*trieLeafBits +
			int64(dims.Entries)*resultBits
	}
	m.Bits = bits

	kwords := float64(bits) / memKWordBits
	c := moduleCosts["memKWord"]
	s := sizing(clockHz, tech)
	m.AreaMM2 = c.areaMM2 * kwords * s
	// One row access per probe keeps large arrays mostly idle: a much
	// lower activity than the processor's small working memories.
	const tableActivity = 0.05
	dynamic := c.capF * kwords * tech.VddV * tech.VddV * clockHz * s * tableActivity
	m.PowerW = dynamic + m.AreaMM2*tech.LeakageWPerMM2
	return m
}

// FormatBits renders a bit count with a binary-scaled unit.
func FormatBits(bits int64) string {
	f := float64(bits)
	switch {
	case f >= math.Exp2(30):
		return trimZero(fmt.Sprintf("%.1f", f/math.Exp2(30))) + " Gbit"
	case f >= math.Exp2(20):
		return trimZero(fmt.Sprintf("%.1f", f/math.Exp2(20))) + " Mbit"
	case f >= math.Exp2(10):
		return trimZero(fmt.Sprintf("%.1f", f/math.Exp2(10))) + " Kbit"
	}
	return fmt.Sprintf("%d bit", bits)
}
