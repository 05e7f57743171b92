// Command tacoasm assembles, optimizes and disassembles TACO programs.
// With -figure3 it reproduces the paper's Figure 3 code-optimization
// example.
//
// Usage:
//
//	tacoasm -figure3 [-config 3bus1fu]
//	tacoasm -f prog.s [-opt] [-config 1bus] [-o prog.bin]
//	tacoasm -d prog.bin [-config 1bus]
package main

import (
	"flag"
	"fmt"
	"os"

	"taco/internal/asm"
	"taco/internal/cliutil"
	"taco/internal/fu"
	"taco/internal/isa"
	"taco/internal/program"
	"taco/internal/sched"
	"taco/internal/tta"
)

func main() {
	var (
		figure3 = flag.Bool("figure3", false, "reproduce the paper's Figure 3 example")
		file    = flag.String("f", "", "assembly file to assemble")
		dis     = flag.String("d", "", "binary file to disassemble")
		opt     = flag.Bool("opt", false, "apply TTA optimizations and bus scheduling")
		config  = flag.String("config", "3bus1fu", "architecture: 1bus | 3bus1fu | 3bus3fu")
		out     = flag.String("o", "", "write encoded program to this file")
	)
	var prof cliutil.Profiling
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		cliutil.Fatal("tacoasm", err)
	}
	defer stopProf()

	cfg, err := cliutil.ConfigByName(*config, 0)
	if err != nil {
		cliutil.Fatal("tacoasm", err)
	}
	m, err := fu.NewComputeMachine(cfg)
	if err != nil {
		cliutil.Fatal("tacoasm", err)
	}

	switch {
	case *figure3:
		if err := runFigure3(m, cfg); err != nil {
			cliutil.Fatal("tacoasm", err)
		}
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			cliutil.Fatal("tacoasm", err)
		}
		prog, err := asm.Assemble(string(src), m)
		if err != nil {
			cliutil.Fatal("tacoasm", err)
		}
		if *opt {
			res, err := sched.Compile(prog, m, sched.AllOptimizations)
			if err != nil {
				cliutil.Fatal("tacoasm", err)
			}
			fmt.Printf("; optimized: %d -> %d moves, %d cycles on %d bus(es)\n",
				res.MovesIn, res.MovesOut, res.Cycles, cfg.Buses)
			prog = res.Program
		}
		fmt.Print(asm.Disassemble(prog, m))
		if *out != "" {
			data, err := isa.EncodeProgram(prog)
			if err != nil {
				cliutil.Fatal("tacoasm", err)
			}
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				cliutil.Fatal("tacoasm", err)
			}
			fmt.Printf("; wrote %d bytes to %s\n", len(data), *out)
		}
	case *dis != "":
		data, err := os.ReadFile(*dis)
		if err != nil {
			cliutil.Fatal("tacoasm", err)
		}
		prog, err := isa.DecodeProgram(data)
		if err != nil {
			cliutil.Fatal("tacoasm", err)
		}
		fmt.Print(asm.Disassemble(prog, m))
	default:
		cliutil.Fatal("tacoasm", fmt.Errorf("nothing to do: pass -figure3, -f prog.s or -d prog.bin"))
	}
}

func runFigure3(m *tta.Machine, cfg fu.Config) error {
	const b, c = 5, 6
	f3, err := program.Figure3(m, b, c)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 3 — TACO code optimization, a = (b*2 + c)/4 with b=%d, c=%d\n\n", b, c)
	fmt.Printf("Non-optimized (%d moves, %d cycles on %d bus(es)):\n%s\n",
		f3.MovesNonOpt, f3.CyclesNonOpt, cfg.Buses, asm.Disassemble(f3.NonOptimized, m))
	fmt.Printf("TACO TTA-optimized (%d moves, %d cycles):\n%s\n",
		f3.MovesOpt, f3.CyclesOpt, asm.Disassemble(f3.Optimized, m))
	fmt.Printf("moves reduced by %.0f%%, cycles by %.0f%%\n",
		100*(1-float64(f3.MovesOpt)/float64(f3.MovesNonOpt)),
		100*(1-float64(f3.CyclesOpt)/float64(f3.CyclesNonOpt)))
	return nil
}
