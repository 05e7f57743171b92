package main

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"taco/internal/core"
	"taco/internal/dse"
	tnet "taco/internal/net"
	"taco/internal/rtable"
)

// size holds the input sizes of every workload. fullSize is the
// benchmark; smallSize is a reduced run for smoke tests.
type size struct {
	// table1
	T1Packets int // datagrams per Table 1 cell
	// largetable
	LTEntries int // routes per table
	LTSamples int // sampled lookups per table (core.ScaleSpec.SampleLookups)
	LTChurn   int // update operations per table (core.ScaleSpec.ChurnOps)
	// campaign
	FatTreeK   int   // fat-tree arity
	QuietTicks int64 // traced run: quiescent ticks stepped after convergence
	RIPngTicks int   // traced run: standalone RIPng engine ticks
}

var (
	fullSize  = size{T1Packets: 4096, LTEntries: 100000, LTSamples: 200000, LTChurn: 8, FatTreeK: 14, QuietTicks: 96, RIPngTicks: 600}
	smallSize = size{T1Packets: 64, LTEntries: 2000, LTSamples: 4000, LTChurn: 8, FatTreeK: 4, QuietTicks: 12, RIPngTicks: 60}
)

// Worker counts of the timed sections.
const (
	table1Workers   = 2
	largeWorkers    = 1
	campaignWorkers = 2
	// replayStride is tacoexplore -table1 -compiled's interpreter
	// spot-check: every third cell is re-simulated by the interpreter.
	replayStride = 3
)

var table1Workload = &bench{
	name:        "table1",
	defaultSeed: 2003,
	prepare: func(seed uint64, sz size) (func() (outcome, error), error) {
		insts := table1Instances(seed, sz)
		return func() (outcome, error) { return runTable1(insts) }, nil
	},
}

// table1Instances is tacoexplore -table1 -compiled's instance list:
// paper constraints (100 routes), the default simulation options at the
// given seed and packet count, compiled fast path on.
func table1Instances(seed uint64, sz size) []dse.Instance {
	sim := core.DefaultSimOptions()
	sim.Packets = sz.T1Packets
	sim.Seed = seed
	sim.Compiled = true
	return dse.Table1Instances(core.PaperConstraints(), sim)
}

func runTable1(insts []dse.Instance) (outcome, error) {
	ctx := context.Background()
	pts, err := dse.Sweep(ctx, insts, table1Workers)
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	ms := make([]core.Metrics, len(pts))
	for i, p := range pts {
		out.attempted++
		if p.Err != "" {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("%s: %s", insts[i].Label, p.Err))
		}
		ms[i] = p.Metrics
		out.simCycles += cellCycles(p.Metrics)
	}
	replayed := int64(0)
	for i := 0; i < len(insts); i += replayStride {
		replayed++
		out.simCycles += cellCycles(ms[i])
	}
	out.attempted += replayed
	if err := dse.ReplayInterpreted(ctx, insts, ms, replayStride, table1Workers); err != nil {
		out.failed++
		out.problems = append(out.problems, err.Error())
	}
	var buf bytes.Buffer
	if err := dse.WriteJSON(&buf, pts); err != nil {
		return outcome{}, err
	}
	out.export = buf.Bytes()
	return out, nil
}

// cellCycles is the simulated cycle count behind one evaluated cell.
func cellCycles(m core.Metrics) int64 {
	return int64(math.Round(m.CyclesPerPacket * float64(m.PacketsRun)))
}

var largeTableWorkload = &bench{
	name:        "largetable",
	defaultSeed: 2003,
	prepare: func(seed uint64, sz size) (func() (outcome, error), error) {
		insts := largeTableInstances(seed, sz)
		return func() (outcome, error) { return runLargeTable(insts) }, nil
	},
}

// largeTableInstances is dse.LargeTableInstances over every default
// kind at one size, with a lookup sample large enough that lookups take
// a visible share of the time.
func largeTableInstances(seed uint64, sz size) []dse.Instance {
	sim := core.DefaultSimOptions()
	sim.Seed = seed
	insts := dse.LargeTableInstances(dse.LargeTableKinds, []int{sz.LTEntries}, sz.LTChurn, core.PaperConstraints(), sim)
	for i := range insts {
		insts[i].Scale.SampleLookups = sz.LTSamples
	}
	return insts
}

func runLargeTable(insts []dse.Instance) (outcome, error) {
	pts, err := dse.Sweep(context.Background(), insts, largeWorkers)
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	for i, p := range pts {
		out.attempted++
		if p.Err != "" {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("%s: %s", insts[i].Label, p.Err))
		}
	}
	var buf bytes.Buffer
	if err := dse.WriteJSON(&buf, pts); err != nil {
		return outcome{}, err
	}
	out.export = buf.Bytes()
	return out, nil
}

var campaignWorkload = &bench{
	name:        "campaign",
	defaultSeed: 3,
	prepare: func(seed uint64, sz size) (func() (outcome, error), error) {
		m, err := newCampaignMesh(seed, sz, campaignWorkers)
		if err != nil {
			return nil, err
		}
		return func() (outcome, error) { return runCampaign(m) }, nil
	},
}

// newCampaignMesh is tacotopo -campaign -topo fattree -size K -mix mixed
// -seed S -workers W up to the campaign itself: sequential tables, every
// eighth node a TACO router.
func newCampaignMesh(seed uint64, sz size, workers int) (*tnet.Mesh, error) {
	topo, err := tnet.Generate("fattree", sz.FatTreeK, seed)
	if err != nil {
		return nil, err
	}
	return tnet.NewMesh(topo, tnet.Options{Table: rtable.Sequential, Mix: "mixed", Seed: seed, Workers: workers})
}

// campaignOptions are tacotopo's campaign defaults.
func campaignOptions() tnet.CampaignOptions {
	return tnet.CampaignOptions{Flaps: 4, Partition: true, Crashes: 1, Storms: 1}
}

func runCampaign(m *tnet.Mesh) (outcome, error) {
	start := m.Now()
	rep := tnet.RunCampaign(m, campaignOptions())
	out := outcome{
		attempted: int64(rep.SweepLaunched),
		failed:    int64(rep.SweepLaunched - rep.SweepDelivered),
		nodeTicks: int64(rep.Nodes) * (m.Now() - start),
		problems:  campaignProblems(rep),
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return outcome{}, err
	}
	out.export = buf.Bytes()
	return out, nil
}

// campaignProblems lists every way rep falls short of a clean verdict.
func campaignProblems(rep *tnet.CampaignReport) []string {
	var ps []string
	if rep.Verdict != "PASS" {
		ps = append(ps, "campaign verdict "+rep.Verdict)
	}
	if len(rep.Violations) > 0 {
		ps = append(ps, fmt.Sprintf("%d invariant violations (first: %s)", len(rep.Violations), rep.Violations[0].Detail))
	}
	if len(rep.AuditProblems) > 0 {
		ps = append(ps, fmt.Sprintf("%d audit problems (first: %s)", len(rep.AuditProblems), rep.AuditProblems[0]))
	}
	if rep.InFlight != 0 {
		ps = append(ps, fmt.Sprintf("%d probes still in flight", rep.InFlight))
	}
	return ps
}
