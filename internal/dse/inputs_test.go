package dse

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"

	"taco/internal/core"
	"taco/internal/fu"
	"taco/internal/rtable"
)

// TestSharedInputsMatchAlone: a sweep whose instances share input sets
// exports the same JSON, byte for byte, as evaluating every instance on
// its own through core.EvaluateScaled.
func TestSharedInputsMatchAlone(t *testing.T) {
	insts := LargeTableInstances(LargeTableKinds, []int{600, 2000}, 40, core.PaperConstraints(), testSim())
	alone := make([]Point, len(insts))
	for i, inst := range insts {
		m, err := core.EvaluateScaled(inst.Cfg, *inst.Scale, inst.Cons, inst.Sim)
		if err != nil {
			t.Fatalf("%s: %v", inst.Label, err)
		}
		alone[i] = Point{X: inst.X, Metrics: m}
	}
	var want bytes.Buffer
	if err := WriteJSON(&want, alone); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		pts, err := Sweep(context.Background(), insts, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var got bytes.Buffer
		if err := WriteJSON(&got, pts); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("workers=%d: shared-input sweep JSON differs from instances evaluated alone", workers)
		}
	}
}

// TestInputKeyGrouping: changing any one value the input generators
// read puts an instance in a group of its own; changing what only the
// evaluation reads (kind, configuration, constraints, anchors) does
// not, nor does spelling out a value the defaulting would supply.
func TestInputKeyGrouping(t *testing.T) {
	base := func() Instance {
		return Instance{
			Cfg:   fu.Config1Bus1FU(rtable.Multibit),
			Cons:  core.PaperConstraints(),
			Sim:   core.DefaultSimOptions(),
			Scale: &core.ScaleSpec{Kind: rtable.Multibit, Entries: 1000, ChurnOps: 8, SampleLookups: 64},
		}
	}
	cases := []struct {
		name   string
		edit   func(*Instance)
		shared bool
	}{
		{"entries", func(in *Instance) { in.Scale.Entries++ }, false},
		{"churn ops", func(in *Instance) { in.Scale.ChurnOps++ }, false},
		{"sample lookups", func(in *Instance) { in.Scale.SampleLookups++ }, false},
		{"seed", func(in *Instance) { in.Sim.Seed++ }, false},
		{"ifaces", func(in *Instance) { in.Sim.Ifaces++ }, false},
		{"miss ratio", func(in *Instance) { in.Sim.MissRatio += 0.01 }, false},
		{"kind", func(in *Instance) {
			in.Scale.Kind, in.Cfg = rtable.CAM, fu.Config1Bus1FU(rtable.CAM)
		}, true},
		{"config", func(in *Instance) { in.Cfg = fu.Config3Bus3FU(rtable.Multibit) }, true},
		{"constraints", func(in *Instance) { in.Cons.TableEntries, in.Cons.PacketBytes = 7, 1500 }, true},
		{"anchors", func(in *Instance) { in.Scale.AnchorEntries = [2]int{50, 200} }, true},
		{"packets", func(in *Instance) { in.Sim.Packets = 16 }, true},
		{"default sim", func(in *Instance) { in.Sim = core.SimOptions{} }, true},
	}
	for _, c := range cases {
		a, b := base(), base()
		c.edit(&b)
		_, groups := planInputs([]Instance{a, b})
		if got := groups[0] == groups[1]; got != c.shared {
			t.Errorf("%s: shared = %v, want %v", c.name, got, c.shared)
		}
	}
}

// TestInputsBuiltOncePerKey: each distinct key's inputs are generated
// exactly once per sweep and dropped when the group's last member
// finishes, a group of analytic kinds only draws no destinations, and
// the dispatch order keeps the unscaled instances in input order while
// sending each group's members back to back.
func TestInputsBuiltOncePerKey(t *testing.T) {
	cons, sim := core.PaperConstraints(), testSim()
	var insts []Instance
	insts = append(insts, Table1Instances(cons, sim)[:2]...)
	insts = append(insts, LargeTableInstances(LargeTableKinds, []int{500, 900}, 8, cons, sim)...)
	insts = append(insts, Table1Instances(cons, sim)[2])
	insts = append(insts, LargeTableInstances([]rtable.Kind{rtable.Sequential, rtable.CAM}, []int{700}, 8, cons, sim)...)

	order, groups := planInputs(insts)
	var unscaled []int
	for _, i := range order {
		if insts[i].Scale == nil {
			unscaled = append(unscaled, i)
		}
	}
	if want := []int{0, 1, 2 + 2*len(LargeTableKinds)}; !slices.Equal(unscaled, want) {
		t.Errorf("unscaled dispatch order %v, want %v", unscaled, want)
	}
	for j := 1; j < len(order); j++ {
		if g := groups[order[j]]; g != nil && g != groups[order[j-1]] && g.members[0] != order[j] {
			t.Errorf("group of %s split in the dispatch order", insts[order[j]].Label)
		}
	}

	var mu sync.Mutex
	built := map[core.ScaleKey][]*core.ScaleInputs{}
	count := func(spec core.ScaleSpec, sim core.SimOptions, sample bool) *core.ScaleInputs {
		in := core.NewScaleInputs(spec, sim, sample)
		mu.Lock()
		built[in.Key] = append(built[in.Key], in)
		mu.Unlock()
		return in
	}
	_, errs, _, err := evaluateWith(context.Background(), insts, 4, count)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstError(insts, errs); err != nil {
		t.Fatal(err)
	}
	if len(built) != 3 {
		t.Fatalf("inputs built for %d keys, want 3", len(built))
	}
	for key, ins := range built {
		if len(ins) != 1 {
			t.Errorf("entries %d: inputs built %d times, want once", key.Entries, len(ins))
			continue
		}
		if analytic := key.Entries == 700; analytic != (ins[0].Dests == nil) {
			t.Errorf("entries %d: drew %d destinations", key.Entries, len(ins[0].Dests))
		}
	}

	// The last member to finish drops the group's inputs.
	_, groups = planInputs(insts[len(insts)-2:])
	g := groups[0]
	for j, inst := range insts[len(insts)-2:] {
		if _, err := evalOne(inst, g, core.NewScaleInputs); err != nil {
			t.Fatal(err)
		}
		if held := g.in != nil; held != (j == 0) {
			t.Errorf("after member %d of 2 the group holds inputs: %v", j+1, held)
		}
	}
}

// BenchmarkSweepLargeTable is one large-table sweep: every default
// kind at 10^4 routes with an 8-op churn stream, on one worker.
func BenchmarkSweepLargeTable(b *testing.B) {
	insts := LargeTableInstances(LargeTableKinds, []int{10000}, 8, core.PaperConstraints(), core.DefaultSimOptions())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(context.Background(), insts, 1); err != nil {
			b.Fatal(err)
		}
	}
}
