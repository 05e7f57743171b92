// Pricing pin for the two stride-trie kinds: the SRAM bits, area and
// power estimate.TableSRAM charges for a seeded large table after a
// fixed churn stream, and after draining it, are pinned exactly. The
// storage shape behind the price is checked against a walk of the trie
// throughout: every non-root node and every path-compressed leaf fills
// exactly one parent slot, so occupied child slots = (nodes − 1) +
// leaves at every point of the stream.
package rtable_test

import (
	"strconv"
	"testing"

	"taco/internal/estimate"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// checkKids asserts the occupied-slot identity on tbl's current shape.
func checkKids(t *testing.T, kind rtable.Kind, tbl rtable.Table, at string) rtable.TrieShape {
	t.Helper()
	s := rtable.ShapeOf(tbl)
	if want := s.Nodes - 1 + s.Leaves; s.Kids != want {
		t.Fatalf("%v %s: walked %d occupied child slots, (nodes−1)+leaves = %d (shape %+v)",
			kind, at, s.Kids, want, s)
	}
	return s
}

// checkPrice compares a TableSRAM result against its pin exactly.
func checkPrice(t *testing.T, kind rtable.Kind, at string, got, want estimate.TableMem) {
	t.Helper()
	if got.Bits != want.Bits || got.AreaMM2 != want.AreaMM2 || got.PowerW != want.PowerW {
		t.Errorf("%v %s: TableSRAM = {Bits: %d, AreaMM2: %v, PowerW: %v}, pinned {Bits: %d, AreaMM2: %v, PowerW: %v}",
			kind, at, got.Bits, got.AreaMM2, got.PowerW, want.Bits, want.AreaMM2, want.PowerW)
	}
}

func TestTrieTableSRAMPinned(t *testing.T) {
	const (
		entries  = 10000
		churnOps = 2000
		clockHz  = 200e6
	)
	routes := workload.GenerateLargeRoutes(workload.LargeTableSpec{Entries: entries, Ifaces: 4, Seed: 1})
	churn := workload.GenerateChurn(routes, workload.ChurnSpec{Ops: churnOps, Seed: 1, Ifaces: 4})
	tech := estimate.Default180nm()

	pins := map[rtable.Kind]struct{ churned, drained estimate.TableMem }{
		rtable.Multibit: {
			churned: estimate.TableMem{Bits: 32261440, AreaMM2: 90.13956179011784, PowerW: 0.22895448694689932},
			drained: estimate.TableMem{Bits: 3145728, AreaMM2: 8.78927113702624, PowerW: 0.022324748688046653},
		},
		rtable.Compressed: {
			churned: estimate.TableMem{Bits: 4355472, AreaMM2: 12.169337062112792, PowerW: 0.030910116137766494},
			drained: estimate.TableMem{Bits: 65632, AreaMM2: 0.18337804262329935, PowerW: 0.0004657802282631804},
		},
	}
	price := func(kind rtable.Kind, tbl rtable.Table) estimate.TableMem {
		return estimate.TableSRAM(kind, tbl.(rtable.MemSizer).MemDims(), clockHz, tech)
	}

	for _, kind := range []rtable.Kind{rtable.Multibit, rtable.Compressed} {
		tbl := rtable.New(kind)
		if err := rtable.InsertAll(tbl, routes); err != nil {
			t.Fatalf("%v: build: %v", kind, err)
		}
		checkKids(t, kind, tbl, "after build")
		for i, op := range churn {
			if _, err := workload.ApplyChurn(tbl, []workload.ChurnOp{op}); err != nil {
				t.Fatalf("%v: churn op %d: %v", kind, i, err)
			}
			if (i+1)%100 == 0 {
				checkKids(t, kind, tbl, "after churn op "+strconv.Itoa(i+1))
			}
		}
		s := checkKids(t, kind, tbl, "after churn")
		if s.Kids <= 0 || s.Kids >= s.Slots {
			t.Fatalf("%v: %d occupied child slots against %d slots — compression vacuous", kind, s.Kids, s.Slots)
		}
		checkPrice(t, kind, "after churn", price(kind, tbl), pins[kind].churned)

		for i, r := range tbl.Routes() {
			if !tbl.Delete(r.Prefix) {
				t.Fatalf("%v: drain: Delete(%v) missed", kind, r.Prefix)
			}
			if (i+1)%100 == 0 {
				checkKids(t, kind, tbl, "after drain op "+strconv.Itoa(i+1))
			}
		}
		if tbl.Len() != 0 {
			t.Fatalf("%v: drained table holds %d routes", kind, tbl.Len())
		}
		if s := checkKids(t, kind, tbl, "drained"); s.Nodes != 1 || s.Leaves != 0 || s.Kids != 0 {
			t.Fatalf("%v: drained shape %+v, want the root alone", kind, s)
		}
		checkPrice(t, kind, "drained", price(kind, tbl), pins[kind].drained)
	}
}
