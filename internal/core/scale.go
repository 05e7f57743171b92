// Model-based scaled evaluation: the large-database answer to the
// question the paper's Table 1 leaves open. Cycle-accurate simulation of
// a million-route table is out of reach (the sequential scan alone is
// 10⁶ probes per datagram), so the evaluator calibrates a two-point
// linear cycle model from small cycle-accurate anchor runs —
//
//	cycles(n) = overhead + perProbe · probes(n)
//
// where the per-probe cost and the fixed per-datagram overhead come from
// the anchors' exact hardware access counters (Metrics.RTULoads), and
// probes(n) at the target size is measured on the software table with a
// sampled destination workload. The physical co-analysis then prices the
// table storage itself (estimate.TableSRAM), which the paper-scale flow
// can ignore but which dominates the die at 10⁵–10⁶ routes.
package core

import (
	"fmt"
	"math"

	"taco/internal/bits"
	"taco/internal/estimate"
	"taco/internal/fu"
	"taco/internal/program"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// DefaultAnchorEntries are the cycle-accurate calibration sizes: both
// small enough to simulate in milliseconds, far enough apart for a
// stable slope.
var DefaultAnchorEntries = [2]int{100, 400}

// DefaultSampleLookups is the destination-sample size for measuring
// probes(n) on the software table.
const DefaultSampleLookups = 512

// ScaleSpec parameterises one scaled evaluation.
type ScaleSpec struct {
	Kind    rtable.Kind
	Entries int
	// AnchorEntries overrides the calibration sizes (zero means
	// DefaultAnchorEntries).
	AnchorEntries [2]int
	// SampleLookups overrides the probe-measurement sample size.
	SampleLookups int
	// ChurnOps applies an update stream (workload.GenerateChurn) to the
	// target table before measurement, exercising the organisation's
	// update path at scale. Note the balanced tree rebuilds per update —
	// keep this small for large tree tables.
	ChurnOps int
}

// ScaleModel records the calibration behind a scaled Metrics row.
type ScaleModel struct {
	// AnchorEntries, AnchorCycles and AnchorProbes are the two
	// cycle-accurate calibration points (probes are per datagram, from
	// the RTU hardware counters).
	AnchorEntries [2]int
	AnchorCycles  [2]float64
	AnchorProbes  [2]float64
	// PerProbeCycles and OverheadCycles are the fitted line.
	PerProbeCycles float64
	OverheadCycles float64
	// DonorKind is the backend the anchors ran on. It differs from the
	// row's kind for table organisations without a hardware RTU
	// (multibit, binary trie): those borrow the balanced tree's anchors
	// and scale the per-probe cost by program.ModelPerProbe's documented
	// kernel factors, flagged by Modelled.
	DonorKind rtable.Kind
	Modelled  bool
}

// ScaleKey identifies the generated inputs of a scaled evaluation. It
// holds every value the input generators read, after EvaluateScaled's
// defaulting, so evaluations with equal keys see the same routes, churn
// stream and destination sample whatever their kind, configuration or
// constraints.
type ScaleKey struct {
	Entries       int
	ChurnOps      int
	SampleLookups int
	Seed          uint64
	Ifaces        int
	MissRatio     float64
}

// InputKey returns the key of the inputs a scaled evaluation of spec
// under sim generates.
func InputKey(spec ScaleSpec, sim SimOptions) ScaleKey {
	spec, sim = scaleDefaults(spec, sim)
	return ScaleKey{
		Entries:       spec.Entries,
		ChurnOps:      spec.ChurnOps,
		SampleLookups: spec.SampleLookups,
		Seed:          sim.Seed,
		Ifaces:        sim.Ifaces,
		MissRatio:     sim.MissRatio,
	}
}

// scaleDefaults fills the zero values of a scaled evaluation's spec and
// simulation options.
func scaleDefaults(spec ScaleSpec, sim SimOptions) (ScaleSpec, SimOptions) {
	if spec.AnchorEntries == ([2]int{}) {
		spec.AnchorEntries = DefaultAnchorEntries
	}
	if spec.SampleLookups <= 0 {
		spec.SampleLookups = DefaultSampleLookups
	}
	if sim.Packets <= 0 {
		sim = DefaultSimOptions()
	}
	return spec, sim
}

// ScaleInputs is the generated workload of a scaled evaluation: the
// base routes, the churn stream played into the table, and the sampled
// lookup destinations. Evaluation only reads it, so one value serves
// any number of concurrent evaluations with its key.
type ScaleInputs struct {
	Key    ScaleKey
	Routes []rtable.Route
	Churn  []workload.ChurnOp
	// Dests is nil when the inputs were built without a sample:
	// analytic kinds (see Analytic) look nothing up.
	Dests []bits.Word128
}

// NewScaleInputs generates the inputs of a scaled evaluation of spec
// under sim. sample draws the destination sample, which only kinds
// that are not Analytic need. A spec with no entries gets empty inputs;
// EvaluateScaledWith rejects it.
func NewScaleInputs(spec ScaleSpec, sim SimOptions, sample bool) *ScaleInputs {
	key := InputKey(spec, sim)
	in := &ScaleInputs{Key: key}
	if key.Entries <= 0 {
		return in
	}
	in.Routes = workload.GenerateLargeRoutes(workload.LargeTableSpec{
		Entries: key.Entries,
		Ifaces:  key.Ifaces,
		Seed:    key.Seed,
	})
	if key.ChurnOps > 0 {
		in.Churn = workload.GenerateChurn(in.Routes, workload.ChurnSpec{
			Ops: key.ChurnOps, Seed: key.Seed, Ifaces: key.Ifaces,
		})
	}
	if sample {
		in.Dests = workload.SampleDests(in.Routes, key.SampleLookups, key.MissRatio, key.Seed)
	}
	return in
}

// Analytic reports whether kind's probe count at scale is known by
// construction (a sequential scan probes every entry, a CAM searches
// once), so its scaled evaluation builds no table and looks nothing up.
func Analytic(kind rtable.Kind) bool {
	return kind == rtable.Sequential || kind == rtable.CAM
}

// EvaluateScaled runs the scaling methodology for one (configuration,
// kind, size) instance. cfg's table kind must match spec.Kind; the
// returned Metrics carries the modelled cycles per packet, the required
// clock, and a physical estimate that includes the table SRAM.
func EvaluateScaled(cfg fu.Config, spec ScaleSpec, cons Constraints, sim SimOptions) (Metrics, error) {
	return EvaluateScaledWith(cfg, spec, cons, sim, NewScaleInputs(spec, sim, !Analytic(spec.Kind)))
}

// EvaluateScaledWith is EvaluateScaled on inputs built beforehand by
// NewScaleInputs, which must carry InputKey(spec, sim) and, for a kind
// that is not Analytic, a destination sample. It only reads in.
func EvaluateScaledWith(cfg fu.Config, spec ScaleSpec, cons Constraints, sim SimOptions, in *ScaleInputs) (Metrics, error) {
	if cfg.Table != spec.Kind {
		return Metrics{}, fmt.Errorf("core: config table %v does not match scale spec %v", cfg.Table, spec.Kind)
	}
	if spec.Entries <= 0 {
		return Metrics{}, fmt.Errorf("core: scale spec needs a positive entry count")
	}
	if key := InputKey(spec, sim); in.Key != key {
		return Metrics{}, fmt.Errorf("core: scale inputs built for %+v, spec needs %+v", in.Key, key)
	}
	if !Analytic(spec.Kind) && in.Dests == nil {
		return Metrics{}, fmt.Errorf("core: scale inputs carry no destination sample for %v", spec.Kind)
	}
	spec, sim = scaleDefaults(spec, sim)

	// 1. Cycle-accurate anchors. Kinds without a hardware RTU borrow the
	// balanced tree's (same prolog/epilog, so the fixed overhead
	// transfers; the per-probe slope is rescaled below).
	donor := spec.Kind
	modelled := false
	switch spec.Kind {
	case rtable.Multibit, rtable.Trie, rtable.TiledTCAM, rtable.Compressed:
		donor = rtable.BalancedTree
		modelled = true
	}
	anchorCfg := cfg
	anchorCfg.Table = donor
	model := ScaleModel{AnchorEntries: spec.AnchorEntries, DonorKind: donor, Modelled: modelled}
	for i, n := range spec.AnchorEntries {
		aCons := cons
		aCons.TableEntries = n
		am, err := Evaluate(anchorCfg, aCons, sim)
		if err != nil {
			return Metrics{}, fmt.Errorf("core: anchor %d entries: %w", n, err)
		}
		if am.RTULoads == 0 {
			return Metrics{}, fmt.Errorf("core: anchor %d entries: no RTU load counter", n)
		}
		model.AnchorCycles[i] = am.CyclesPerPacket
		model.AnchorProbes[i] = float64(am.RTULoads) / float64(am.PacketsRun)
	}
	dp := model.AnchorProbes[1] - model.AnchorProbes[0]
	if math.Abs(dp) > 1e-9 {
		model.PerProbeCycles = (model.AnchorCycles[1] - model.AnchorCycles[0]) / dp
	}
	model.OverheadCycles = model.AnchorCycles[0] - model.PerProbeCycles*model.AnchorProbes[0]
	if modelled {
		model.PerProbeCycles, _ = program.ModelPerProbe(spec.Kind, model.PerProbeCycles)
	}

	// 2. Probes at the target size. Sequential and CAM are analytic
	// (probes = n and 1 by construction — their software scans would be
	// O(n·samples) for an answer we already know); tree and trie kinds
	// are measured on the built table under a sampled workload.
	avgProbes, dims, entries, err := measureProbes(spec.Kind, in)
	if err != nil {
		return Metrics{}, err
	}

	// 3. Co-analysis at the modelled cycle count, with the table SRAM
	// added to the processor estimate.
	cycles := model.OverheadCycles + model.PerProbeCycles*avgProbes
	required := cycles * cons.PacketRate()
	est := estimate.Physical(cfg, required, cons.Tech)
	mem := estimate.TableSRAM(spec.Kind, dims, required, cons.Tech)
	est.AreaMM2 += mem.AreaMM2
	est.PowerW += mem.PowerW
	est.Breakdown = append(est.Breakdown, estimate.ModuleCost{
		Module: "tableSRAM", Count: 1, AreaMM2: mem.AreaMM2, PowerW: mem.PowerW,
	})

	return Metrics{
		Kind:               spec.Kind,
		Config:             cfg,
		CyclesPerPacket:    cycles,
		RequiredClockHz:    required,
		Est:                est,
		ClockFeasible:      est.Feasible,
		MeetsPower:         est.PowerW <= cons.MaxPowerW,
		MeetsArea:          est.AreaMM2 <= cons.MaxAreaMM2,
		CAMChipPowerW:      mem.CAMPowerW,
		TableEntries:       entries,
		AvgProbesPerPacket: avgProbes,
		TableMem:           &mem,
		ScaleModel:         &model,
	}, nil
}

// measureProbes returns the per-lookup probe count, storage dimensions
// and live entry count of kind on the inputs.
func measureProbes(kind rtable.Kind, in *ScaleInputs) (float64, rtable.MemDims, int, error) {
	if Analytic(kind) {
		// Net live entries after the churn stream.
		entries := len(in.Routes)
		for _, op := range in.Churn {
			switch op.Op {
			case workload.ChurnInsert:
				entries++
			case workload.ChurnDelete:
				entries--
			}
		}
		probes := 1.0 // CAM: one associative search per lookup
		if kind == rtable.Sequential {
			probes = float64(entries) // full scan per lookup
		}
		return probes, rtable.MemDims{Entries: entries}, entries, nil
	}

	tbl := rtable.New(kind)
	if err := rtable.InsertAll(tbl, in.Routes); err != nil {
		return 0, rtable.MemDims{}, 0, fmt.Errorf("core: build %v table: %w", kind, err)
	}
	if len(in.Churn) > 0 {
		if _, err := workload.ApplyChurn(tbl, in.Churn); err != nil {
			return 0, rtable.MemDims{}, 0, err
		}
	}
	tbl.ResetStats()
	for _, dst := range in.Dests {
		tbl.Lookup(dst)
	}
	st := tbl.Stats()
	avg := float64(st.Probes) / float64(st.Lookups)
	dims := rtable.MemDims{Entries: tbl.Len()}
	if ms, ok := tbl.(rtable.MemSizer); ok {
		dims = ms.MemDims()
	}
	return avg, dims, tbl.Len(), nil
}
