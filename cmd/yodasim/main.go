// Command yodasim runs every table and figure of the paper's evaluation
// (§2.3, §7, §8) — the testbed experiments in the deterministic simulator,
// Figures 15 and 16 over the synthetic trace day — and prints the table
// or figure the paper reports.
//
// Usage:
//
//	yodasim -exp table1|fig6|fig9|fig10|fig11|fig12|fig12b|fig13|fig14|cpu|upgrade|fig15|fig16|mflow|all [-seed N] [-recovery hybrid] [-cpuprofile F] [-memprofile F]
//
// For fig15 and fig16, -seed is the seed of the trace day.
//
// Independent trials run on their own goroutines: the Figure 6
// rule-count points, the Figure 12 arms, and (with -exp all) the
// experiments themselves. Every trial owns its cluster or rule engine,
// seeded from -seed, and output order is fixed, so the bytes printed do
// not depend on how the trials interleave.
//
// -exp mflow is the scale run and not part of all: 32,768 concurrent flows
// through the real l4lb + core.Instance + TCPStore stack behind scripted
// client and backend nodes, 2 of 8 instances killed, every flow probed
// and closed; -recovery hybrid runs it under cluster.EnableHybrid.
//
// -cpuprofile and -memprofile write pprof profiles of the run (see
// EXPERIMENTS.md §Profiling); profiling real CPU does not perturb the
// virtual clock, so profiled results stay bit-identical.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1, fig6, fig9, fig10, fig12, fig12b, fig13, fig14, cpu, upgrade, fig15, fig16, mflow, all")
	seed := flag.Int64("seed", 1, "simulation seed (fig15, fig16: trace seed)")
	recovery := flag.String("recovery", "", "mflow recovery mode: empty (the paper's protocol, every orphan read back from TCPStore) or hybrid (cluster.EnableHybrid: derivable flows skip the store)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof allocation profile (taken at exit) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yodasim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "yodasim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "yodasim: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // flush recent frees so the profile reflects live + cumulative allocs
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "yodasim: -memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	runners := map[string]func() fmt.Stringer{
		"table1": func() fmt.Stringer { return experiments.RunTable1(*seed) },
		"fig6": func() fmt.Stringer {
			cfg := experiments.DefaultFig6Config()
			cfg.Seed = *seed
			return experiments.RunFig6(cfg)
		},
		"fig9": func() fmt.Stringer {
			cfg := experiments.DefaultFig9Config()
			cfg.Seed = *seed
			return experiments.RunFig9(cfg)
		},
		"fig10": func() fmt.Stringer {
			cfg := experiments.DefaultFig10Config()
			cfg.Seed = *seed
			return experiments.RunFig10(cfg)
		},
		"fig12": func() fmt.Stringer {
			cfg := experiments.DefaultFig12Config()
			cfg.Seed = *seed
			return experiments.RunFig12(cfg)
		},
		// Figure 11 is the CPU half of the Figure 10 harness.
		"fig11": func() fmt.Stringer {
			cfg := experiments.DefaultFig10Config()
			cfg.Seed = *seed
			return experiments.RunFig10(cfg)
		},
		"fig12b": func() fmt.Stringer { return experiments.RunFig12b(*seed) },
		"fig13": func() fmt.Stringer {
			cfg := experiments.DefaultFig13Config()
			cfg.Seed = *seed
			return experiments.RunFig13(cfg)
		},
		"fig14": func() fmt.Stringer {
			cfg := experiments.DefaultFig14Config()
			cfg.Seed = *seed
			return experiments.RunFig14(cfg)
		},
		"cpu": func() fmt.Stringer {
			cfg := experiments.DefaultCPUConfig()
			cfg.Seed = *seed
			return experiments.RunCPU(cfg)
		},
		"upgrade": func() fmt.Stringer {
			cfg := experiments.DefaultUpgradeConfig()
			cfg.Seed = *seed
			return experiments.RunUpgrade(cfg)
		},
		"fig15": func() fmt.Stringer { return experiments.RunFig15(*seed) },
		"fig16": func() fmt.Stringer { return experiments.RunFig16(*seed) },
		// mflow (see the package comment) is a capacity run, not a paper
		// figure, so -exp all leaves it out.
		"mflow": func() fmt.Stringer {
			cfg := experiments.DefaultMflowConfig()
			cfg.Seed = *seed
			cfg.Recovery = *recovery
			return experiments.RunMflow(cfg)
		},
	}

	order := []string{"table1", "fig6", "fig9", "fig10", "cpu", "fig12", "fig12b", "fig13", "fig14", "upgrade", "fig15", "fig16"}
	if *exp != "all" {
		run, ok := runners[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; one of %v, fig11, mflow, or all\n", *exp, order)
			os.Exit(2)
		}
		fmt.Println(run().String())
		return
	}
	// Each experiment builds its own simulated cluster from -seed, so
	// they are independent trials: run them concurrently and print in the
	// fixed order.
	outputs := make([]string, len(order))
	var wg sync.WaitGroup
	for i, name := range order {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outputs[i] = runners[name]().String()
		}()
	}
	wg.Wait()
	for _, out := range outputs {
		fmt.Println(out)
	}
}
