package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"profess"
	"profess/internal/lease"
)

// cellOut is one plan cell's outcome as a child process saw it.
type cellOut struct {
	Label   string    `json:"label"`
	Mix     bool      `json:"mix"`    // a multi-program cell, not a stand-alone baseline
	Digest  string    `json:"digest"` // SHA-256 of the Result JSON
	IPC     []float64 `json:"ipc"`
	CI95    []float64 `json:"ci95"`
	Windows int64     `json:"windows"`
	MS      float64   `json:"ms"`   // journal claimed→done, host ms
	Done    int       `json:"done"` // done records in the journal
	Err     string    `json:"err,omitempty"`
}

// childOut is everything one cold sweep measured; the parent aggregates
// several of them into one result line.
type childOut struct {
	WallS    float64 `json:"wall_s"`
	SetupS   float64 `json:"setup_s"`
	PlanMS   float64 `json:"plan_ms"`
	ExecS    float64 `json:"exec_s"`
	RenderMS float64 `json:"render_ms"`
	BusyPct  float64 `json:"busy_pct"`
	// CPUPerWall is process CPU time over wall time across ExecuteOpts.
	CPUPerWall float64 `json:"cpu_per_wall"`

	Cells   []cellOut          `json:"cells"`
	Counts  map[string]float64 `json:"counts"`  // deterministic model and sweep counts
	Runtime map[string]float64 `json:"runtime"` // allocation and GC
	Profile map[string]float64 `json:"profile,omitempty"`
	// KeysMatch reports, at seed 0 on the fig10 workloads, whether the
	// plan's full-fidelity keys equal professbench's fig10 keys.
	KeysMatch *bool  `json:"keys_match,omitempty"`
	Report    string `json:"report"`
}

// runChild runs one workload as a cold sweep in this process, with a
// fresh cache directory dir, and returns what it measured.
// With profile set, a CPU profile of the sweep goes to profPath and is
// folded into per-layer self times.
func runChild(name string, seed uint64, dir string, profile bool, profPath string) (*childOut, error) {
	nproc := runtime.NumCPU()
	var prof *os.File
	if profile {
		var err error
		if prof, err = os.Create(profPath); err != nil {
			return nil, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile() // a no-op once stopped below
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sims0 := profess.RunCacheDetail().Sims
	ctx := context.Background()

	// Set-up: the workload's configs and specs, the cache directory, the
	// plan and the sample rewrite. It ends at the first journal claim.
	t0 := time.Now()
	b, err := newBench(name, seed, nproc)
	if err != nil {
		return nil, err
	}
	if err := profess.SetRunCacheDir(dir); err != nil {
		return nil, err
	}
	plan, err := profess.PlanSweep([]profess.PlannedExperiment{{
		Name: name,
		Run:  func() error { _, err := b.render(ctx); return err },
	}})
	if err != nil {
		return nil, err
	}
	fullKeys := make([]string, len(plan.Cells))
	for i, c := range plan.Cells {
		fullKeys[i] = c.Key
	}
	if b.sampled {
		plan.Sample(sampleFraction, 0)
	}
	tPlan := time.Now()
	cpu0 := cpuTime()
	rep, execErr := plan.ExecuteOpts(ctx, profess.ExecOptions{Parallelism: b.parallelism, Fresh: true})
	tExec := time.Now()
	cpu1 := cpuTime()
	var report string
	if execErr == nil {
		report, execErr = b.render(ctx)
	}
	tEnd := time.Now()
	if profile {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	if rep == nil {
		return nil, execErr
	}

	out := &childOut{
		WallS:      tEnd.Sub(t0).Seconds(),
		PlanMS:     float64(tPlan.Sub(t0).Microseconds()) / 1e3,
		ExecS:      tExec.Sub(tPlan).Seconds(),
		RenderMS:   float64(tEnd.Sub(tExec).Microseconds()) / 1e3,
		CPUPerWall: (cpu1 - cpu0).Seconds() / tExec.Sub(tPlan).Seconds(),
		Report:     report,
		Runtime: map[string]float64{
			"mallocs":  float64(ms1.Mallocs - ms0.Mallocs),
			"bytes":    float64(ms1.TotalAlloc - ms0.TotalAlloc),
			"gc":       float64(ms1.NumGC - ms0.NumGC),
			"pause_ms": float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		},
	}

	recs, err := lease.ReadJournal(rep.JournalPath)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	claimed := map[string]int64{}
	done := map[string]int{}
	span := map[string]float64{}
	var firstClaim int64
	for _, r := range recs {
		switch r.Status {
		case lease.StatusClaimed:
			claimed[r.Key] = r.Nanos
			if firstClaim == 0 || r.Nanos < firstClaim {
				firstClaim = r.Nanos
			}
		case lease.StatusDone:
			done[r.Key]++
			span[r.Key] = float64(r.Nanos-claimed[r.Key]) / 1e6
		}
	}
	if firstClaim == 0 {
		return nil, errors.New("journal holds no claimed record")
	}
	out.SetupS = float64(firstClaim-t0.UnixNano()) / 1e9

	var busyMS float64
	var c counts
	for _, pc := range plan.Cells {
		co := cellOut{Label: b.cellLabel(pc.Scheme, pc.Specs), Mix: len(pc.Specs) > 1, MS: span[pc.Key], Done: done[pc.Key]}
		busyMS += co.MS
		// A completed cell is a run-cache hit; one that failed in the
		// sweep simulates again here and reports its error.
		res, err := profess.RunSpecsContext(ctx, pc.Specs, pc.Scheme, pc.Cfg)
		if err != nil {
			co.Err = err.Error()
		} else {
			js, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			sum := sha256.Sum256(js)
			co.Digest = hex.EncodeToString(sum[:])
			for _, core := range res.PerCore {
				co.IPC = append(co.IPC, core.IPC)
				co.CI95 = append(co.CI95, core.IPCCI95)
			}
			co.Windows = res.Sampling.Windows
			c.add(res)
		}
		out.Cells = append(out.Cells, co)
	}
	workers := b.parallelism
	if workers > len(plan.Cells) {
		workers = len(plan.Cells)
	}
	out.BusyPct = 100 * busyMS / (float64(workers) * out.ExecS * 1e3)
	out.Counts = c.metrics()
	out.Counts["sweep.cells"] = float64(len(plan.Cells))
	out.Counts["sweep.sims"] = float64(profess.RunCacheDetail().Sims - sims0)
	out.Counts["sweep.retries"] = float64(rep.Retries)

	if seed == 0 && name != "fleet16" {
		want, err := professbenchKeys()
		if err != nil {
			return nil, err
		}
		sort.Strings(fullKeys)
		match := len(want) == len(fullKeys)
		for i := 0; match && i < len(want); i++ {
			match = want[i] == fullKeys[i]
		}
		out.KeysMatch = &match
	}

	if profile {
		f, err := foldProfile(profPath)
		if err != nil {
			return nil, err
		}
		out.Profile = map[string]float64{
			"profile.total_s":    f.totalS,
			"event.shard_self_s": f.shardSelfS,
			"sim.ff_cum_pct":     f.ffCumPct,
		}
		for _, l := range foldLayers {
			out.Profile[l+".self_s"] = f.selfS[l]
		}
	}
	return out, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counts sums the simulated statistics of a sweep's cells. Every one is a
// deterministic function of the cells, so it repeats exactly.
type counts struct {
	instr, cycles, served, m1, stc, l3 float64
	swaps, swapBusy, windows           float64
	rowHit, rowAll                     [2]float64
}

func (c *counts) add(r *profess.Result) {
	c.cycles += float64(r.Cycles)
	c.swaps += float64(r.Counts.Swaps)
	c.swapBusy += float64(r.Counts.SwapBusy)
	c.windows += float64(r.Sampling.Windows)
	for k := 0; k < 2; k++ {
		c.rowHit[k] += float64(r.Counts.RowHits[k])
		c.rowAll[k] += float64(r.Counts.RowHits[k] + r.Counts.RowMisses[k])
	}
	for _, core := range r.PerCore {
		c.instr += float64(core.Instructions)
		c.served += float64(core.Served)
		c.m1 += core.M1Fraction * float64(core.Served)
		c.stc += core.STCHitRate * float64(core.Served)
		c.l3 += core.L3MPKI * float64(core.Instructions)
	}
}

func (c *counts) metrics() map[string]float64 {
	pct := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return 100 * a / b
	}
	l3 := 0.0
	if c.instr > 0 {
		l3 = c.l3 / c.instr
	}
	return map[string]float64{
		"sim.minstr":            c.instr / 1e6,
		"sim.mcycles":           c.cycles / 1e6,
		"l3.mpki":               l3,
		"stc.hit_pct":           pct(c.stc, c.served),
		"ctl.m1_served_pct":     pct(c.m1, c.served),
		"ctl.swaps":             c.swaps,
		"mem.row_hit_pct.m1":    pct(c.rowHit[0], c.rowAll[0]),
		"mem.row_hit_pct.m2":    pct(c.rowHit[1], c.rowAll[1]),
		"mem.swap_busy_mcycles": c.swapBusy / 1e6,
		"sample.windows":        c.windows,
	}
}

// finite reports whether xs is non-empty and every value is finite and
// non-negative.
func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return false
		}
	}
	return len(xs) > 0
}
