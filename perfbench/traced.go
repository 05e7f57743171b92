package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"taco/internal/core"
	"taco/internal/dse"
	"taco/internal/estimate"
	"taco/internal/fu"
	"taco/internal/ipv6"
	"taco/internal/linecard"
	tnet "taco/internal/net"
	"taco/internal/program"
	"taco/internal/ripng"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// The traced run. Each workload is decomposed into the public calls
// its top-level entry point makes, and each call is timed from here;
// nothing inside the program is instrumented. Every decomposition runs
// twice: once with the tracer off, to measure tracing overhead, and
// once traced. Its results must equal the untraced entry point's
// exactly, so the per-layer numbers describe the measured computation.
//
// A traced run covers all three workloads, so every per-layer metric in
// BENCHMARK.json is reported on every traced run.

// tracedRun decomposes every workload at seed (-1: each workload's
// default seed) and writes one span file per workload into outDir.
func tracedRun(seed int64, sz size, outDir string) *result {
	res := &result{Workload: "traced", Seed: seed, Trace: 1, Correct: true, Metrics: map[string]metric{}}
	steps := []struct {
		w  *bench
		fn func(seed uint64, sz size, res *result) *tracer
	}{
		{table1Workload, traceTable1},
		{largeTableWorkload, traceLargeTable},
		{campaignWorkload, traceCampaign},
	}
	for _, st := range steps {
		s := st.w.defaultSeed
		if seed >= 0 {
			s = uint64(seed)
		}
		runtime.GC()
		tr := st.fn(s, sz, res)
		if tr == nil {
			continue
		}
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", st.w.name, s))
		if err := tr.writeChrome(path); err != nil {
			res.fail("%s: writing spans: %v", st.w.name, err)
			continue
		}
		res.SpanFiles = append(res.SpanFiles, path)
	}
	return res
}

// check counts one decomposition-equality check on res.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.fail(format, args...)
	}
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{v, unit}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// decompose runs fn with the tracer off and then traced under a root
// span called "<name>.decomposition", and records the tracing overhead
// as trace.<name>.overhead_frac. It returns the traced result and the
// root span.
func decompose[T any](tr *tracer, res *result, name string, fn func(*tracer) (T, error)) (T, int, bool) {
	runtime.GC()
	t0 := time.Now()
	_, err := fn(nil)
	untraced := time.Since(t0)
	if err != nil {
		res.fail("%s: untraced decomposition: %v", name, err)
		var zero T
		return zero, -1, false
	}
	runtime.GC()
	root := tr.begin(name+".decomposition", -1)
	got, err := fn(tr)
	tr.end(root)
	if err != nil {
		res.fail("%s: traced decomposition: %v", name, err)
		return got, root, false
	}
	res.set("trace."+name+".overhead_frac", tr.spans[root].dur().Seconds()/untraced.Seconds()-1, "ratio")
	return got, root, true
}

// ---- table1 ----

// cell is one re-issued Table 1 cell.
type cell struct {
	inst      int
	compiled  bool
	m         core.Metrics // the fields the decomposition reproduces
	cycles    int64
	datagrams int
}

func traceTable1(seed uint64, sz size, res *result) *tracer {
	insts := table1Instances(seed, sz)
	tr := newTracer()
	ctx := dse.WithTiming(context.Background())

	id := tr.begin("dse.Sweep", -1)
	pts, err := dse.Sweep(ctx, insts, table1Workers)
	tr.end(id)
	if err != nil {
		res.fail("table1: sweep: %v", err)
		return nil
	}
	want := make([]core.Metrics, len(pts))
	var busy time.Duration
	for i, p := range pts {
		want[i] = p.Metrics
		busy += time.Duration(p.WallNS)
	}
	id = tr.begin("dse.ReplayInterpreted", -1)
	err = dse.ReplayInterpreted(ctx, insts, want, replayStride, table1Workers)
	tr.end(id)
	res.check(err == nil, "table1: interpreter replay: %v", err)
	sweep, replay := tr.total("dse.Sweep"), tr.total("dse.ReplayInterpreted")
	res.set("dse.sweep_s", sweep.Seconds(), "s")
	res.set("dse.replay_s", replay.Seconds(), "s")
	res.set("dse.busy_frac", busy.Seconds()/(table1Workers*sweep.Seconds()), "ratio")

	// The sweep's cells on the compiled path, then the replay's cells on
	// the interpreter, exactly as the two dse calls evaluate them.
	var plan []dse.Instance
	var from []int
	for i := range insts {
		plan, from = append(plan, insts[i]), append(from, i)
	}
	for i := 0; i < len(insts); i += replayStride {
		r := insts[i]
		r.Sim.Compiled = false
		plan, from = append(plan, r), append(from, i)
	}
	reissue := func(tr *tracer) ([]cell, error) {
		var cells []cell
		for k, inst := range plan {
			c, err := reissueCell(tr, k, inst)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", inst.Label, err)
			}
			cells = append(cells, c)
		}
		return cells, nil
	}
	cells, root, ok := decompose(tr, res, "table1", reissue)
	if !ok {
		return nil
	}

	var compiledCycles, interpCycles, rtuLoads, datagrams int64
	for _, c := range cells {
		w := want[from[c.inst]]
		res.check(c.m.CyclesPerPacket == w.CyclesPerPacket && c.m.RTULoads == w.RTULoads &&
			c.m.LatencyP50 == w.LatencyP50 && c.m.LatencyP90 == w.LatencyP90 &&
			c.m.LatencyP99 == w.LatencyP99 && c.m.LatencyP999 == w.LatencyP999 &&
			c.m.Est.PowerW == w.Est.PowerW && c.m.Est.AreaMM2 == w.Est.AreaMM2,
			"table1: traced %s (compiled=%v) differs from core.Evaluate: cycles/packet %v vs %v, RTU loads %d vs %d, latency p50/p99 %d/%d vs %d/%d",
			insts[from[c.inst]].Label, c.compiled, c.m.CyclesPerPacket, w.CyclesPerPacket,
			c.m.RTULoads, w.RTULoads, c.m.LatencyP50, c.m.LatencyP99, w.LatencyP50, w.LatencyP99)
		datagrams += int64(c.datagrams)
		if c.compiled {
			compiledCycles += c.cycles
			rtuLoads += c.m.RTULoads
		} else {
			interpCycles += c.cycles
		}
	}
	var runAllocs int64
	for _, s := range append(tr.named("tta.Run.compiled"), tr.named("tta.Run.interp")...) {
		runAllocs += s.Mallocs
	}
	perCell := func(name string) float64 { return ms(tr.total(name)) / float64(len(tr.named(name))) }
	res.set("workload.traffic_ms", perCell("workload.traffic"), "ms")
	res.set("router.new_taco_ms", perCell("router.NewTACO"), "ms")
	res.set("tta.compile_ms", perCell("tta.UseCompiled"), "ms")
	res.set("linecard.deliver_ns", float64(tr.total("linecard.Deliver").Nanoseconds())/float64(datagrams), "ns")
	res.set("tta.compiled.ns_per_cycle", float64(tr.total("tta.Run.compiled").Nanoseconds())/float64(compiledCycles), "ns/cycle")
	res.set("tta.interp.ns_per_cycle", float64(tr.total("tta.Run.interp").Nanoseconds())/float64(interpCycles), "ns/cycle")
	res.set("tta.run_allocs", float64(runAllocs)/float64(len(cells)), "count")
	res.set("tta.cycles", float64(compiledCycles), "count")
	res.set("fu.rtu_loads", float64(rtuLoads), "count")
	res.set("trace.table1.explained_frac", tr.explained(root), "ratio")
	return tr
}

// reissueCell evaluates one cell through the public calls core.Evaluate
// makes, in its order: workload → rtable → router.NewTACO →
// UseCompiled → Deliver → Run → estimate.
func reissueCell(tr *tracer, id int, inst dse.Instance) (cell, error) {
	cfg, cons, sim := inst.Cfg, inst.Cons, inst.Sim
	c := cell{inst: id, compiled: sim.Compiled}
	top := tr.begin("cell", id)
	defer tr.end(top)

	s := tr.begin("workload.traffic", id)
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: cons.TableEntries, Ifaces: sim.Ifaces, Seed: sim.Seed})
	pkts, err := workload.GenerateTraffic(routes, workload.TrafficSpec{
		Packets: sim.Packets, SizeBytes: cons.PacketBytes, MissRatio: sim.MissRatio, Seed: sim.Seed,
	})
	tr.end(s)
	if err != nil {
		return c, err
	}
	// core.Evaluate's default watchdog budget.
	budget := int64(sim.Packets) * int64(cons.TableEntries+64) * 64

	s = tr.begin("rtable.build", id)
	tbl := rtable.New(cfg.Table)
	err = rtable.InsertAll(tbl, routes)
	tr.end(s)
	if err != nil {
		return c, err
	}
	s = tr.begin("router.NewTACO", id)
	r, err := router.NewTACO(cfg, tbl, sim.Ifaces)
	tr.end(s)
	if err != nil {
		return c, err
	}
	if sim.Compiled {
		s = tr.begin("tta.UseCompiled", id)
		err = r.UseCompiled()
		tr.end(s)
		if err != nil {
			return c, err
		}
	}
	s = tr.begin("linecard.Deliver", id)
	for i, p := range pkts {
		if !r.Deliver(i%sim.Ifaces, linecard.Datagram{Data: p.Data, Seq: p.Seq}) {
			tr.end(s)
			return c, fmt.Errorf("line card overflow at datagram %d", i)
		}
	}
	tr.end(s)
	c.datagrams = len(pkts)
	run := "tta.Run.interp"
	if sim.Compiled {
		run = "tta.Run.compiled"
	}
	s = tr.beginAlloc(run, id)
	err = r.Run(int64(len(pkts)), budget)
	tr.end(s)
	if err != nil {
		return c, err
	}
	s = tr.begin("estimate.Physical", id)
	c.m.CyclesPerPacket = r.CyclesPerPacket()
	c.m.Est = estimate.Physical(cfg, c.m.CyclesPerPacket*cons.PacketRate(), cons.Tech)
	tr.end(s)

	c.cycles = r.Machine.Stats().Cycles
	p := r.LatencyHist().Percentiles()
	c.m.LatencyP50, c.m.LatencyP90, c.m.LatencyP99, c.m.LatencyP999 = p.P50, p.P90, p.P99, p.P999
	switch u := r.Units.RTU.(type) {
	case *fu.RTUSeq:
		c.m.RTULoads = u.Loads()
	case *fu.RTUTree:
		c.m.RTULoads = u.Loads()
	case *fu.RTUCAM:
		c.m.RTULoads = u.Searches()
	}
	return c, nil
}

// ---- largetable ----

// scaled is one re-issued large-table instance.
type scaled struct {
	kind   rtable.Kind
	m      core.Metrics
	built  bool
	routes int
	ops    int
}

func traceLargeTable(seed uint64, sz size, res *result) *tracer {
	insts := largeTableInstances(seed, sz)
	tr := newTracer()
	id := tr.begin("dse.Sweep", -1)
	pts, err := dse.Sweep(context.Background(), insts, largeWorkers)
	tr.end(id)
	if err != nil {
		res.fail("largetable: sweep: %v", err)
		return nil
	}
	reissue := func(tr *tracer) ([]scaled, error) {
		var out []scaled
		for k, inst := range insts {
			s, err := reissueScaled(tr, k, inst)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", inst.Label, err)
			}
			out = append(out, s)
		}
		return out, nil
	}
	got, root, ok := decompose(tr, res, "largetable", reissue)
	if !ok {
		return nil
	}
	for k, g := range got {
		w := pts[k].Metrics
		res.check(pts[k].Err == "" && g.m.CyclesPerPacket == w.CyclesPerPacket &&
			g.m.AvgProbesPerPacket == w.AvgProbesPerPacket && g.m.TableEntries == w.TableEntries &&
			w.TableMem != nil && *g.m.TableMem == *w.TableMem,
			"largetable: traced %v differs from core.EvaluateScaled: cycles %v vs %v, probes %v vs %v, entries %d vs %d, table mem %+v vs %+v (err %q)",
			g.kind, g.m.CyclesPerPacket, w.CyclesPerPacket, g.m.AvgProbesPerPacket, w.AvgProbesPerPacket,
			g.m.TableEntries, w.TableEntries, g.m.TableMem, w.TableMem, pts[k].Err)
	}
	res.set("core.anchor_ms", ms(tr.total("core.Evaluate")), "ms")
	res.set("workload.large_routes_ms", ms(tr.total("workload.GenerateLargeRoutes"))/float64(len(got)), "ms")
	for k, g := range got {
		if !g.built {
			continue
		}
		pre := "rtable." + g.kind.String() + "."
		build := instSpan(tr, "rtable.build", k)
		res.set(pre+"build_ns_per_route", float64(build.dur().Nanoseconds())/float64(g.routes), "ns/route")
		res.set(pre+"build_b_per_route", float64(build.Bytes)/float64(g.routes), "B/route")
		res.set(pre+"lookup_ns", float64(instSpan(tr, "rtable.Lookup", k).dur().Nanoseconds())/float64(sz.LTSamples), "ns")
		res.set(pre+"churn_us_per_op", instSpan(tr, "rtable.churn", k).dur().Seconds()*1e6/float64(g.ops), "us/op")
		res.set(pre+"probes_per_lookup", g.m.AvgProbesPerPacket, "count")
		res.set(pre+"mem_mbit", float64(g.m.TableMem.Bits)/1e6, "Mbit")
	}
	res.set("trace.largetable.explained_frac", tr.explained(root), "ratio")
	return tr
}

// instSpan returns the span called name that belongs to instance inst.
func instSpan(tr *tracer, name string, inst int) span {
	for _, s := range tr.named(name) {
		if s.Inst == inst {
			return s
		}
	}
	return span{}
}

// reissueScaled evaluates one instance through the public calls
// core.EvaluateScaled makes, in its order: two anchor core.Evaluate
// calls → GenerateLargeRoutes → GenerateChurn → InsertAll →
// ApplyChurn → SampleDests and Lookup → MemDims → TableSRAM.
func reissueScaled(tr *tracer, id int, inst dse.Instance) (scaled, error) {
	cfg, cons, sim, spec := inst.Cfg, inst.Cons, inst.Sim, *inst.Scale
	if spec.AnchorEntries == ([2]int{}) {
		spec.AnchorEntries = core.DefaultAnchorEntries
	}
	out := scaled{kind: spec.Kind}
	top := tr.begin("instance", id)
	defer tr.end(top)

	donor, modelled := spec.Kind, false
	switch spec.Kind {
	case rtable.Multibit, rtable.Trie, rtable.TiledTCAM, rtable.Compressed:
		donor, modelled = rtable.BalancedTree, true
	}
	anchorCfg := cfg
	anchorCfg.Table = donor
	var cyc, probes [2]float64
	for i, n := range spec.AnchorEntries {
		aCons := cons
		aCons.TableEntries = n
		s := tr.begin("core.Evaluate", id)
		am, err := core.Evaluate(anchorCfg, aCons, sim)
		tr.end(s)
		if err != nil {
			return out, fmt.Errorf("anchor %d entries: %w", n, err)
		}
		cyc[i], probes[i] = am.CyclesPerPacket, float64(am.RTULoads)/float64(am.PacketsRun)
	}
	var perProbe float64
	if dp := probes[1] - probes[0]; math.Abs(dp) > 1e-9 {
		perProbe = (cyc[1] - cyc[0]) / dp
	}
	overhead := cyc[0] - perProbe*probes[0]
	if modelled {
		perProbe, _ = program.ModelPerProbe(spec.Kind, perProbe)
	}

	s := tr.begin("workload.GenerateLargeRoutes", id)
	routes := workload.GenerateLargeRoutes(workload.LargeTableSpec{Entries: spec.Entries, Ifaces: sim.Ifaces, Seed: sim.Seed})
	tr.end(s)
	s = tr.begin("workload.GenerateChurn", id)
	churn := workload.GenerateChurn(routes, workload.ChurnSpec{Ops: spec.ChurnOps, Seed: sim.Seed, Ifaces: sim.Ifaces})
	tr.end(s)
	out.routes, out.ops = len(routes), len(churn)

	var dims rtable.MemDims
	switch spec.Kind {
	case rtable.Sequential, rtable.CAM:
		entries := len(routes)
		for _, op := range churn {
			switch op.Op {
			case workload.ChurnInsert:
				entries++
			case workload.ChurnDelete:
				entries--
			}
		}
		out.m.AvgProbesPerPacket = 1
		if spec.Kind == rtable.Sequential {
			out.m.AvgProbesPerPacket = float64(entries)
		}
		dims = rtable.MemDims{Entries: entries}
	default:
		out.built = true
		s = tr.beginAlloc("rtable.build", id)
		tbl := rtable.New(spec.Kind)
		err := rtable.InsertAll(tbl, routes)
		tr.end(s)
		if err != nil {
			return out, err
		}
		s = tr.begin("rtable.churn", id)
		_, err = workload.ApplyChurn(tbl, churn)
		tr.end(s)
		if err != nil {
			return out, err
		}
		tbl.ResetStats()
		s = tr.begin("workload.SampleDests", id)
		dests := workload.SampleDests(routes, spec.SampleLookups, sim.MissRatio, sim.Seed)
		tr.end(s)
		s = tr.begin("rtable.Lookup", id)
		for _, dst := range dests {
			tbl.Lookup(dst)
		}
		tr.end(s)
		st := tbl.Stats()
		out.m.AvgProbesPerPacket = float64(st.Probes) / float64(st.Lookups)
		s = tr.begin("rtable.MemDims", id)
		dims = rtable.MemDims{Entries: tbl.Len()}
		if msz, ok := tbl.(rtable.MemSizer); ok {
			dims = msz.MemDims()
		}
		tr.end(s)
		if dims.Entries != tbl.Len() {
			return out, fmt.Errorf("MemDims entries %d, table holds %d", dims.Entries, tbl.Len())
		}
	}
	out.m.TableEntries = dims.Entries
	out.m.CyclesPerPacket = overhead + perProbe*out.m.AvgProbesPerPacket
	s = tr.begin("estimate.TableSRAM", id)
	mem := estimate.TableSRAM(spec.Kind, dims, out.m.CyclesPerPacket*cons.PacketRate(), cons.Tech)
	tr.end(s)
	out.m.TableMem = &mem
	return out, nil
}

// ---- campaign ----

func traceCampaign(seed uint64, sz size, res *result) *tracer {
	tr := newTracer()

	// The untraced campaign, as one span.
	m, err := newCampaignMesh(seed, sz, campaignWorkers)
	if err != nil {
		res.fail("campaign: set-up: %v", err)
		return nil
	}
	id := tr.begin("net.RunCampaign", -1)
	rep := tnet.RunCampaign(m, campaignOptions())
	tr.end(id)
	problems := campaignProblems(rep)
	res.check(len(problems) == 0, "campaign: %v", problems)
	c := rep.Ctrl
	res.set("net.ctrl_frames", float64(c.LinkDelivered+c.LostDown+c.LostRandom), "count")
	res.set("net.taco_hops", float64(rep.TACOHops), "count")

	// A fresh mesh of the same topology, seed and mix, stepped one tick
	// at a time to cold-start convergence and then through quiescent
	// ticks, on one worker so per-call costs add up to wall time.
	st, _, ok := decompose(tr, res, "campaign", func(tr *tracer) (stepped, error) { return stepMesh(tr, seed, sz) })
	if !ok {
		return nil
	}
	res.check(st.cold == rep.InitialTicks, "campaign: traced cold start converged in %d ticks, the campaign in %d", st.cold, rep.InitialTicks)

	var steps []float64
	var stepTotal time.Duration
	for _, s := range tr.named("net.Step") {
		steps = append(steps, ms(s.dur()))
		stepTotal += s.dur()
	}
	res.set("net.new_mesh_ms", ms(tr.total("net.NewMesh")), "ms")
	res.set("net.step_ms.p50", quantile(steps, 0.50), "ms")
	res.set("net.step_ms.p99", quantile(steps, 0.99), "ms")
	res.set("net.converged_ms", ms(tr.total("net.Converged"))/float64(len(tr.named("net.Converged"))), "ms")

	cost, err := traceRIPng(tr, st.m, sz, res)
	if err != nil {
		res.fail("campaign: RIPng pass: %v", err)
		return nil
	}
	// The RIPng per-call costs times the stepped mesh's own call counts,
	// against the total Step time.
	fc := st.m.CtrlTotals()
	nodeTicks := float64(st.m.Topo().N) * float64(len(steps))
	explained := cost.tick*nodeTicks + cost.receive*float64(fc.Received) +
		cost.unwrap*float64(fc.InboxDrained-fc.NodeDown) + cost.wrap*float64(fc.LinkDelivered+fc.LostDown+fc.LostRandom)
	res.set("trace.campaign.explained_frac", explained/stepTotal.Seconds(), "ratio")
	return tr
}

// stepped is a mesh stepped through its cold start and quiescent ticks.
type stepped struct {
	m    *tnet.Mesh
	cold int64 // ticks to cold-start convergence
}

// stepMesh builds a fresh campaign mesh on one worker and steps it to
// cold-start convergence, then through the quiescent ticks, checking it
// stays converged.
func stepMesh(tr *tracer, seed uint64, sz size) (stepped, error) {
	s := tr.begin("net.Generate", 0)
	topo, err := tnet.Generate("fattree", sz.FatTreeK, seed)
	tr.end(s)
	if err != nil {
		return stepped{}, err
	}
	s = tr.begin("net.NewMesh", 0)
	m, err := tnet.NewMesh(topo, tnet.Options{Table: rtable.Sequential, Mix: "mixed", Seed: seed, Workers: 1})
	tr.end(s)
	if err != nil {
		return stepped{}, err
	}
	// The campaign's own convergence budget at default timers.
	budget := int64(tnet.DefaultTimeoutTicks+tnet.DefaultGCTicks+16*tnet.DefaultUpdateTicks) + 4*int64(topo.Diameter()) + 64
	converged := func() bool {
		s := tr.begin("net.Converged", int(m.Now()))
		ok := m.Converged()
		tr.end(s)
		return ok
	}
	step := func() {
		s := tr.begin("net.Step", int(m.Now()))
		m.Step()
		tr.end(s)
	}
	for !converged() {
		if m.Now() >= budget {
			return stepped{}, fmt.Errorf("no cold-start convergence in %d ticks", budget)
		}
		step()
	}
	cold := m.Now()
	for q := int64(0); q < sz.QuietTicks; q++ {
		step()
		if !converged() {
			return stepped{}, fmt.Errorf("converged mesh diverged at quiescent tick %d: %s", m.Now(), m.Divergence())
		}
	}
	return stepped{m, cold}, nil
}

// ripngCost is the RIPng per-call cost in seconds.
type ripngCost struct{ tick, receive, unwrap, wrap float64 }

// traceRIPng times the RIPng engine and wire codec on a standalone
// engine that holds a converged node's RIB: node 0, a core switch.
// Responses carrying the RIB are received every update interval, as
// the node's neighbours send them, so the routes never age out.
func traceRIPng(tr *tracer, m *tnet.Mesh, sz size, res *result) (ripngCost, error) {
	const nodeID = 0
	var cost ripngCost
	ifaces := 0
	for _, e := range m.Topo().Edges {
		if e.A == nodeID || e.B == nodeID {
			ifaces++
		}
	}
	rib := m.Routes(nodeID)
	// Link-local addresses numbered the way the mesh numbers them.
	lls := make([]ripng.Iface, ifaces)
	for f := range lls {
		lls[f] = ripng.Iface{LinkLocal: ipv6.Addr{Hi: 0xfe80 << 48, Lo: uint64(nodeID+1)<<16 | uint64(f+1)}, Cost: 1}
	}
	// One response per (interface, next hop), split at the MTU, carrying
	// the metrics the neighbour advertised (Receive adds the cost of 1).
	type src struct {
		iface int
		from  ipv6.Addr
	}
	var order []src
	byHop := map[src][]ripng.RTE{}
	for _, r := range rib {
		if r.Metric < 2 || r.Iface >= ifaces {
			return cost, fmt.Errorf("node %d route %v is not a learned route", nodeID, r)
		}
		k := src{r.Iface, r.NextHop}
		if _, ok := byHop[k]; !ok {
			order = append(order, k)
		}
		byHop[k] = append(byHop[k], ripng.RTE{Prefix: r.Prefix, Metric: uint8(r.Metric - 1), Tag: r.Tag})
	}
	type response struct {
		src
		pkt ripng.Packet
	}
	var responses []response
	for _, k := range order {
		rtes := byHop[k]
		for len(rtes) > 0 {
			n := min(len(rtes), ripng.MaxRTEsPerPacket)
			responses = append(responses, response{k, ripng.Packet{Command: ripng.CommandResponse, RTEs: rtes[:n]}})
			rtes = rtes[n:]
		}
	}
	eng := ripng.NewEngine(rtable.New(rtable.Sequential), lls, 0)
	eng.SetTimers(tnet.DefaultUpdateTicks, tnet.DefaultTimeoutTicks, tnet.DefaultGCTicks)
	receive := func(name string) error {
		for i, r := range responses {
			s := tr.begin(name, i)
			err := eng.Receive(r.iface, r.from, r.pkt)
			tr.end(s)
			if err != nil {
				return err
			}
		}
		return nil
	}
	root := tr.begin("ripng.standalone", -1)
	defer tr.end(root)
	if err := receive("ripng.install"); err != nil {
		return cost, err
	}
	res.check(reflect.DeepEqual(eng.Table().Routes(), rib), "campaign: standalone RIPng engine does not reproduce node %d's RIB", nodeID)

	var frames []ripng.OutPacket
	for t := 1; t <= sz.RIPngTicks; t++ {
		if t%int(tnet.DefaultUpdateTicks) == 0 {
			if err := receive("ripng.Receive"); err != nil {
				return cost, err
			}
		}
		s := tr.beginAlloc("ripng.Tick", t)
		eng.Tick(ripng.Clock(t))
		out := eng.Collect()
		tr.end(s)
		if len(out) > len(frames) {
			frames = out
		}
	}
	ticks := tr.named("ripng.Tick")
	var tickBytes int64
	for _, s := range ticks {
		tickBytes += s.Bytes
	}
	cost.tick = tr.total("ripng.Tick").Seconds() / float64(len(ticks))
	cost.receive = tr.total("ripng.Receive").Seconds() / float64(len(tr.named("ripng.Receive")))

	// The wire codec over one periodic emission's frames, repeated.
	const rounds = 200
	wire := make([][]byte, len(frames))
	back := make([]ripng.Packet, len(frames))
	var wireBytes int64
	for round := 0; round < rounds; round++ {
		s := tr.beginAlloc("ripng.WrapUDP", round)
		for i, op := range frames {
			var err error
			if wire[i], err = ripng.WrapUDP(lls[op.Iface].LinkLocal, op.Dst, op.Pkt); err != nil {
				tr.end(s)
				return cost, err
			}
		}
		tr.end(s)
		wireBytes += tr.spans[s].Bytes
		s = tr.beginAlloc("ripng.UnwrapUDP", round)
		for i := range wire {
			var err error
			if _, back[i], err = ripng.UnwrapUDP(wire[i]); err != nil {
				tr.end(s)
				return cost, fmt.Errorf("UnwrapUDP(WrapUDP(frame %d)): %w", i, err)
			}
		}
		tr.end(s)
		wireBytes += tr.spans[s].Bytes
	}
	for i := range frames {
		res.check(reflect.DeepEqual(back[i], frames[i].Pkt), "campaign: UnwrapUDP(WrapUDP(frame %d)) = %v, want %v", i, back[i], frames[i].Pkt)
	}
	n := float64(rounds * len(frames))
	cost.wrap = tr.total("ripng.WrapUDP").Seconds() / n
	cost.unwrap = tr.total("ripng.UnwrapUDP").Seconds() / n

	res.set("ripng.tick_us", cost.tick*1e6, "us")
	res.set("ripng.tick_b", float64(tickBytes)/float64(len(ticks)), "B")
	res.set("ripng.receive_us", cost.receive*1e6, "us")
	res.set("ripng.wrap_ns", cost.wrap*1e9, "ns")
	res.set("ripng.unwrap_ns", cost.unwrap*1e9, "ns")
	res.set("ripng.wire_b", float64(wireBytes)/n, "B")
	return cost, nil
}
