package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"profess"
	"profess/internal/sim"
	"profess/internal/workload"
)

// Scale every workload runs at: the professbench defaults.
const (
	instructions   = 2_000_000
	sampleFraction = 0.05
)

// fig10Mixes is the fixed Table 10 subset of the fig10 workloads: the two
// swap-heavy mixes (w03, w13) and the two Fig. 2/16 fairness mixes (w09,
// w16).
var fig10Mixes = []string{"w03", "w09", "w13", "w16"}

var fig10Schemes = []profess.Scheme{profess.SchemePoM, profess.SchemeMDM, profess.SchemeProFess}

// bench is one benchmark workload: the planned experiment whose cells a
// run sweeps, how many cells run at once, and the report rendered from
// the completed cells.
type bench struct {
	name        string
	sampled     bool // plan cells are rewritten to the sampled tier
	parallelism int
	// render re-invokes the experiment's drivers. Under PlanSweep it
	// enumerates the cells; after ExecuteOpts every call is a cache hit.
	render func(ctx context.Context) (string, error)
	// labels names each cell by its scheme and program list, with the
	// Table 10 mix name in place of its four programs.
	labels map[string]string
}

var workloadNames = []string{"fig10-full", "fig10-sampled", "fleet16"}

// newBench builds a workload's cells with seed XORed into every generator
// seed and into Config.Seed; seed 0 gives professbench's cells exactly.
func newBench(name string, seed uint64, nproc int) (*bench, error) {
	switch name {
	case "fig10-full", "fig10-sampled":
		return newFig10(name, seed, nproc)
	case "fleet16":
		return newFleet16(seed, nproc)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func reseed(specs []profess.ProgramSpec, seed uint64) {
	for i := range specs {
		specs[i].Params.Seed ^= seed
	}
}

// cellLabel names a cell by scheme and programs, e.g. "pom/mcf" for a
// stand-alone run or "profess/w09" for a mix.
func (b *bench) cellLabel(scheme profess.Scheme, specs []profess.ProgramSpec) string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	progs := strings.Join(names, "+")
	if l, ok := b.labels[progs]; ok {
		progs = l
	}
	return string(scheme) + "/" + progs
}

// newFig10 is professbench -exp fig10 -workloads w03,w09,w13,w16: every
// mix under PoM, MDM and ProFess, plus the stand-alone runs its slowdowns
// divide by, rendered as per-mix weighted speedup and unfairness.
func newFig10(name string, seed uint64, nproc int) (*bench, error) {
	cfg := profess.MultiCoreConfig(profess.PaperScale)
	cfg.Instructions = instructions
	cfg.Seed ^= seed
	type mix struct {
		name  string
		specs []profess.ProgramSpec
		alone []profess.ProgramSpec
	}
	b := &bench{name: name, sampled: name == "fig10-sampled", parallelism: nproc, labels: map[string]string{}}
	var mixes []mix
	for _, wn := range fig10Mixes {
		w, err := workload.WorkloadByName(wn)
		if err != nil {
			return nil, err
		}
		specs, err := sim.SpecsForWorkload(w, cfg.Scale)
		if err != nil {
			return nil, err
		}
		reseed(specs, seed)
		// A stand-alone baseline is always instance 0 of its program, as
		// in profess.BaselineCache.
		alone := make([]profess.ProgramSpec, len(w.Programs))
		for i, p := range w.Programs {
			if alone[i], err = profess.SpecFor(p, cfg); err != nil {
				return nil, err
			}
		}
		reseed(alone, seed)
		b.labels[strings.Join(w.Programs[:], "+")] = wn
		mixes = append(mixes, mix{wn, specs, alone})
	}
	b.render = func(ctx context.Context) (string, error) {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%-5s %-8s %8s %8s\n", "mix", "scheme", "WS", "maxsdn")
		for _, m := range mixes {
			for _, s := range fig10Schemes {
				res, err := profess.RunSpecsContext(ctx, m.specs, s, cfg)
				if err != nil {
					return "", fmt.Errorf("%s/%s: %w", m.name, s, err)
				}
				sdn := make([]float64, len(m.alone))
				for i, a := range m.alone {
					ar, err := profess.RunSpecsContext(ctx, []profess.ProgramSpec{a}, s, cfg)
					if err != nil {
						return "", fmt.Errorf("%s/%s alone %s: %w", m.name, s, a.Name, err)
					}
					sdn[i] = profess.Slowdown(ar.PerCore[0].FirstIPC, res.PerCore[i].FirstIPC)
				}
				fmt.Fprintf(&sb, "%-5s %-8s %8.3f %8.3f\n", m.name, s, profess.WeightedSpeedup(sdn), profess.Unfairness(sdn))
			}
		}
		return sb.String(), nil
	}
	return b, nil
}

// newFleet16 is the Scale16 sixteen-program, eight-cluster ProFess fleet
// as a one-cell sweep on the sharded engine with nproc shards.
func newFleet16(seed uint64, nproc int) (*bench, error) {
	cfg := profess.Scale16Config(profess.PaperScale)
	cfg.Instructions = instructions
	cfg.Shards = nproc
	cfg.Seed ^= seed
	specs, err := profess.Fleet16Specs(cfg.Scale)
	if err != nil {
		return nil, err
	}
	reseed(specs, seed)
	b := &bench{name: "fleet16", parallelism: 1, labels: map[string]string{}}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	b.labels[strings.Join(names, "+")] = "fleet16"
	b.render = func(ctx context.Context) (string, error) {
		res, err := profess.RunSpecsContext(ctx, specs, profess.SchemeProFess, cfg)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "fleet16 profess: %d cycles\n", res.Cycles)
		for _, c := range res.PerCore {
			fmt.Fprintf(&sb, "  %-12s IPC %.4f\n", c.Program, c.IPC)
		}
		return sb.String(), nil
	}
	return b, nil
}

// professbenchKeys plans professbench's own fig10 driver on the same mixes
// and returns its cell keys, sorted: at seed 0 they must equal the
// benchmark's full-fidelity keys.
func professbenchKeys() ([]string, error) {
	plan, err := profess.PlanSweep([]profess.PlannedExperiment{{
		Name: "fig10",
		Run: func() error {
			_, err := profess.RunMultiProgram(fig10Schemes, profess.ExpOptions{
				Instructions: instructions,
				Workloads:    fig10Mixes,
			})
			return err
		},
	}})
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(plan.Cells))
	for i, c := range plan.Cells {
		keys[i] = c.Key
	}
	sort.Strings(keys)
	return keys, nil
}
