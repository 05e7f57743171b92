package rtable_test

import (
	"slices"
	"testing"

	"taco/internal/bits"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// TestTablesDoNotAliasInputs pins what sharing one generated route set
// and churn stream across table builds relies on: every kind reads its
// inputs and keeps none of them. InsertAll, Insert and
// workload.ApplyChurn leave the caller's slices unchanged, and
// overwriting those slices after the build changes neither Routes nor
// any Lookup result.
func TestTablesDoNotAliasInputs(t *testing.T) {
	base := workload.GenerateLargeRoutes(workload.LargeTableSpec{Entries: 600, Seed: 11})
	// A non-canonical prefix (host bits set) and a repeated prefix: the
	// cases where a table rewrites or drops a route as it stores it.
	odd := base[3]
	odd.Prefix.Addr.Lo |= 1
	base = append(base, odd, base[5])
	churn := workload.GenerateChurn(base, workload.ChurnSpec{Ops: 60, Seed: 11})
	dests := workload.SampleDests(base, 400, 0.1, 11)
	for _, op := range churn {
		dests = append(dests, op.Route.Prefix.Addr)
	}
	junk := rtable.Route{Prefix: bits.MakePrefix(bits.Word128{}, 0), Iface: 3, Metric: 15}

	for _, k := range rtable.Kinds {
		// bulk builds through InsertAll; single builds through Insert
		// one route at a time. Both then take the churn stream.
		for _, bulk := range []bool{true, false} {
			routes, ops := slices.Clone(base), slices.Clone(churn)
			tbl := rtable.New(k)
			if bulk {
				if err := rtable.InsertAll(tbl, routes); err != nil {
					t.Fatalf("%v: InsertAll: %v", k, err)
				}
			} else {
				for i := range routes {
					if err := tbl.Insert(routes[i]); err != nil {
						t.Fatalf("%v: Insert: %v", k, err)
					}
				}
			}
			if !slices.Equal(routes, base) {
				t.Errorf("%v (bulk %v): building changed the caller's routes", k, bulk)
			}
			if _, err := workload.ApplyChurn(tbl, ops); err != nil {
				t.Fatalf("%v: ApplyChurn: %v", k, err)
			}
			if !slices.Equal(ops, churn) {
				t.Errorf("%v (bulk %v): ApplyChurn changed the caller's ops", k, bulk)
			}

			wantRoutes := tbl.Routes()
			wantHits := make([]rtable.Route, len(dests))
			for i, d := range dests {
				wantHits[i], _ = tbl.Lookup(d)
			}
			for i := range routes {
				routes[i] = junk
			}
			for i := range ops {
				ops[i] = workload.ChurnOp{Op: workload.ChurnDelete, Route: junk}
			}
			if !slices.Equal(tbl.Routes(), wantRoutes) {
				t.Errorf("%v (bulk %v): Routes changed after the inputs were overwritten", k, bulk)
			}
			for i, d := range dests {
				if got, _ := tbl.Lookup(d); got != wantHits[i] {
					t.Errorf("%v (bulk %v): Lookup(%v) = %v after the inputs were overwritten, was %v",
						k, bulk, d, got, wantHits[i])
					break
				}
			}
		}
	}
}
