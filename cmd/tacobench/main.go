// Command tacobench measures the compiled fast path against the
// interpreter on the nine Table 1 cells and writes the committed
// benchmark record (BENCH_0008.json): per-cell ns/op and allocs/op on
// four paths — interpreted, compiled bare, compiled with obs counters
// attached, and compiled with the flight recorder armed — the speedup
// ratio, the counter- and recorder-overhead ratios, the cycles/packet
// each side observed (which must be identical, or the run fails), and
// the per-packet latency percentiles of the measured batch. Medians
// over -runs repetitions tame scheduler noise; `make bench-json`
// regenerates the file.
//
// -guard-overhead and -guard-recorder turn the record into a gate: the
// run fails when the aggregate compiled-with-counters (respectively
// compiled-with-recorder) time exceeds the given multiple of
// compiled-bare (the CI overhead guard uses 1.3 / 1.6).
//
// Usage:
//
//	tacobench [-runs 5] [-packets 32] [-entries 100] [-o BENCH_0008.json]
//	tacobench -guard-overhead 1.3 -guard-recorder 1.6 -o -
//
// -cpuprofile/-memprofile write pprof profiles of the measurement.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"taco/internal/cliutil"
	"taco/internal/fu"
	"taco/internal/linecard"
	"taco/internal/obs"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// cellRecord is one Table 1 cell's measurement on the three step paths.
type cellRecord struct {
	Kind   string
	Config string
	// CyclesPerPacket is the simulated metric — identical on every path
	// by construction (the run aborts otherwise).
	CyclesPerPacket float64
	// Latency percentiles (machine cycles, store->transmit) of the
	// measured batch — also path-identical by construction.
	LatencyP50  int64
	LatencyP90  int64
	LatencyP99  int64
	LatencyP999 int64

	InterpretedNsOp     int64
	CompiledNsOp        int64
	CompiledObsNsOp     int64 // compiled with obs.Counters attached
	CompiledRecNsOp     int64 // compiled with the flight recorder armed
	InterpretedAllocsOp int64
	CompiledAllocsOp    int64
	CompiledObsAllocsOp int64
	CompiledRecAllocsOp int64

	// Speedup is interpreted ns/op over compiled-bare ns/op.
	Speedup float64
	// CounterOverhead is compiled-with-counters ns/op over compiled-bare
	// ns/op — the price of leaving observation on.
	CounterOverhead float64
	// RecorderOverhead is compiled-with-recorder ns/op over compiled-bare
	// ns/op — the price of flying with the black box armed.
	RecorderOverhead float64
}

// benchReport is the BENCH_0007.json schema.
type benchReport struct {
	Benchmark string
	// Workload identifies the measured batch.
	Workload struct {
		Packets int
		Entries int
		Ifaces  int
		Seed    uint64
	}
	Runs  int
	Cells []cellRecord
	// AggregateSpeedup is the full-sweep ratio: summed interpreted ns/op
	// over summed compiled ns/op (what a Table 1 regeneration saves).
	AggregateSpeedup float64
	// AggregateCounterOverhead is summed compiled-with-counters ns/op
	// over summed compiled-bare ns/op across the sweep.
	AggregateCounterOverhead float64
	// AggregateRecorderOverhead is summed compiled-with-recorder ns/op
	// over summed compiled-bare ns/op across the sweep.
	AggregateRecorderOverhead float64
}

func main() {
	var (
		runs    = flag.Int("runs", 5, "repetitions per cell; the median ns/op is recorded")
		packets = flag.Int("packets", 32, "datagrams per simulated batch")
		entries = flag.Int("entries", 100, "routing-table entries")
		out     = flag.String("o", "BENCH_0008.json", "output file (- for stdout)")
		guard   = flag.Float64("guard-overhead", 0,
			"fail when aggregate compiled-with-counters time exceeds this multiple of compiled-bare (0 disables)")
		guardRec = flag.Float64("guard-recorder", 0,
			"fail when aggregate compiled-with-recorder time exceeds this multiple of compiled-bare (0 disables)")
	)
	var prof cliutil.Profiling
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	stop, err := prof.Start()
	if err == nil {
		err = run(*runs, *packets, *entries, *out, *guard, *guardRec)
	}
	stop()
	if err != nil {
		cliutil.Fatal("tacobench", err)
	}
}

// run measures the nine cells, writes the record to out and applies the
// overhead guards.
func run(runs, packets, entries int, out string, guard, guardRec float64) error {
	rep := benchReport{Benchmark: "table1-compiled-vs-interpreted-obs-recorder", Runs: runs}
	rep.Workload.Packets = packets
	rep.Workload.Entries = entries
	rep.Workload.Ifaces = 4
	rep.Workload.Seed = 2003

	var sumInterp, sumCompiled, sumObs, sumRec int64
	for _, kind := range []rtable.Kind{rtable.Sequential, rtable.BalancedTree, rtable.CAM} {
		for _, cfg := range fu.PaperConfigs(kind) {
			rec, err := measureCell(kind, cfg, entries, packets, runs)
			if err != nil {
				return fmt.Errorf("%v/%s: %w", kind, cfg.Name, err)
			}
			fmt.Fprintf(os.Stderr, "tacobench: %-13v %-16s %9d ns/op interpreted, %9d ns/op compiled, %9d ns/op compiled+obs, %9d ns/op compiled+rec, %.2fx, obs %.2fx, rec %.2fx\n",
				kind, cfg.Name, rec.InterpretedNsOp, rec.CompiledNsOp, rec.CompiledObsNsOp,
				rec.CompiledRecNsOp, rec.Speedup, rec.CounterOverhead, rec.RecorderOverhead)
			sumInterp += rec.InterpretedNsOp
			sumCompiled += rec.CompiledNsOp
			sumObs += rec.CompiledObsNsOp
			sumRec += rec.CompiledRecNsOp
			rep.Cells = append(rep.Cells, rec)
		}
	}
	rep.AggregateSpeedup = round2(float64(sumInterp) / float64(sumCompiled))
	rep.AggregateCounterOverhead = round2(float64(sumObs) / float64(sumCompiled))
	rep.AggregateRecorderOverhead = round2(float64(sumRec) / float64(sumCompiled))
	fmt.Fprintf(os.Stderr, "tacobench: aggregate Table 1 speedup %.2fx, counter overhead %.2fx, recorder overhead %.2fx\n",
		rep.AggregateSpeedup, rep.AggregateCounterOverhead, rep.AggregateRecorderOverhead)

	if err := writeReport(out, rep); err != nil {
		return err
	}
	if guard > 0 && rep.AggregateCounterOverhead > guard {
		return fmt.Errorf("counter overhead %.2fx exceeds the %.2fx guard",
			rep.AggregateCounterOverhead, guard)
	}
	if guardRec > 0 && rep.AggregateRecorderOverhead > guardRec {
		return fmt.Errorf("recorder overhead %.2fx exceeds the %.2fx guard",
			rep.AggregateRecorderOverhead, guardRec)
	}
	return nil
}

// writeReport writes the record as indented JSON to path, or to stdout
// when path is "-".
func writeReport(path string, rep benchReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// measureCell benchmarks one cell on all four paths and checks the
// cycle- and latency-identity invariants across them.
func measureCell(kind rtable.Kind, cfg fu.Config, entries, packets, runs int) (cellRecord, error) {
	rec := cellRecord{Kind: kind.String(), Config: cfg.Name}
	var cycles [4]float64
	var p99s [4]int64
	for mode := 0; mode < 4; mode++ {
		compiled := mode >= 1
		observe := mode == 2
		record := mode == 3
		ns := make([]int64, 0, runs)
		var allocs int64
		for r := 0; r < runs; r++ {
			res, cyc, lat, err := benchOnce(kind, cfg, entries, packets, compiled, observe, record)
			if err != nil {
				return rec, err
			}
			ns = append(ns, res.NsPerOp())
			allocs = res.AllocsPerOp()
			cycles[mode] = cyc
			p99s[mode] = lat.P99
			if mode == 0 {
				rec.LatencyP50, rec.LatencyP90 = lat.P50, lat.P90
				rec.LatencyP99, rec.LatencyP999 = lat.P99, lat.P999
			}
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		med := ns[len(ns)/2]
		switch mode {
		case 0:
			rec.InterpretedNsOp, rec.InterpretedAllocsOp = med, allocs
		case 1:
			rec.CompiledNsOp, rec.CompiledAllocsOp = med, allocs
		case 2:
			rec.CompiledObsNsOp, rec.CompiledObsAllocsOp = med, allocs
		case 3:
			rec.CompiledRecNsOp, rec.CompiledRecAllocsOp = med, allocs
		}
	}
	for mode := 1; mode < 4; mode++ {
		if cycles[0] != cycles[mode] {
			return rec, fmt.Errorf("cycles/packet diverged: interpreted %v, mode %d %v",
				cycles[0], mode, cycles[mode])
		}
		if p99s[0] != p99s[mode] {
			return rec, fmt.Errorf("latency p99 diverged: interpreted %d, mode %d %d",
				p99s[0], mode, p99s[mode])
		}
	}
	rec.CyclesPerPacket = cycles[0]
	rec.Speedup = round2(float64(rec.InterpretedNsOp) / float64(rec.CompiledNsOp))
	rec.CounterOverhead = round2(float64(rec.CompiledObsNsOp) / float64(rec.CompiledNsOp))
	rec.RecorderOverhead = round2(float64(rec.CompiledRecNsOp) / float64(rec.CompiledNsOp))
	return rec, nil
}

// benchOnce runs the exact BenchmarkTable1 batch (reset-reuse, one
// batch per iteration) under testing.Benchmark.
func benchOnce(kind rtable.Kind, cfg fu.Config, entries, packets int, compiled, observe, record bool) (testing.BenchmarkResult, float64, obs.LatencyPercentiles, error) {
	routes := workload.GenerateRoutes(workload.TableSpec{Entries: entries, Ifaces: 4, Seed: 2003})
	tbl := rtable.New(kind)
	if err := rtable.InsertAll(tbl, routes); err != nil {
		return testing.BenchmarkResult{}, 0, obs.LatencyPercentiles{}, err
	}
	spec := workload.PaperTrafficSpec(packets)
	spec.MissRatio = 0.05
	pkts, err := workload.GenerateTraffic(routes, spec)
	if err != nil {
		return testing.BenchmarkResult{}, 0, obs.LatencyPercentiles{}, err
	}
	tr, err := router.NewTACO(cfg, tbl, 4)
	if err != nil {
		return testing.BenchmarkResult{}, 0, obs.LatencyPercentiles{}, err
	}
	if observe {
		tr.Machine.AttachCounters()
	}
	if record {
		tr.ArmRecorder(0)
	}
	if compiled {
		if err := tr.UseCompiled(); err != nil {
			return testing.BenchmarkResult{}, 0, obs.LatencyPercentiles{}, err
		}
	}
	budget := int64(packets) * int64(entries+64) * 64
	var runErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Reset()
			for j, p := range pkts {
				tr.Deliver(j%4, linecard.Datagram{Data: p.Data, Seq: p.Seq})
			}
			if err := tr.Run(int64(len(pkts)), budget); err != nil {
				runErr = err
				b.FailNow()
			}
		}
	})
	if runErr != nil {
		return res, 0, obs.LatencyPercentiles{}, runErr
	}
	return res, tr.CyclesPerPacket(), tr.LatencyHist().Percentiles(), nil
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}
