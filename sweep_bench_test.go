package profess

import (
	"testing"
)

// Sweep benchmarks measure the planner end to end on a small
// two-experiment sweep (the fig2/fig10 pair, whose PoM cells overlap):
//
//	BenchmarkSweep_Unplanned  the pre-planner behaviour — experiments
//	                          simulate as they render, dedup only within
//	                          the in-process cache
//	BenchmarkSweep_Cold       plan + execute + render with an empty cache
//	BenchmarkSweep_Warm       the same sweep against a populated disk
//	                          tier — zero simulations
//
// Reported metrics: cells (distinct simulations planned), dedup-x (cell
// requests per distinct cell), sims / disk-hits per regeneration.
func sweepBenchOpts() ExpOptions {
	return ExpOptions{Instructions: 400_000, Workloads: []string{"w09"}, Parallelism: 1}
}

func runSweepExperiments(b *testing.B, opts ExpOptions) {
	b.Helper()
	for _, e := range sweepTestExperiments(opts, nil) {
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweep_Unplanned(b *testing.B) {
	opts := sweepBenchOpts()
	for i := 0; i < b.N; i++ {
		ResetRunCache()
		runSweepExperiments(b, opts)
	}
	reportCacheMetrics(b)
}

func BenchmarkSweep_Cold(b *testing.B) {
	opts := sweepBenchOpts()
	for i := 0; i < b.N; i++ {
		ResetRunCache()
		plan, err := PlanSweep(sweepTestExperiments(opts, nil))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.ExecuteOpts(nil, ExecOptions{Parallelism: opts.Parallelism}); err != nil {
			b.Fatal(err)
		}
		runSweepExperiments(b, opts)
		if i == 0 {
			b.ReportMetric(float64(len(plan.Cells)), "cells")
			b.ReportMetric(float64(plan.Requested)/float64(len(plan.Cells)), "dedup-x")
		}
	}
	reportCacheMetrics(b)
}

func BenchmarkSweep_Warm(b *testing.B) {
	opts := sweepBenchOpts()
	dir := b.TempDir()
	ResetRunCache()
	if err := SetRunCacheDir(dir); err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := SetRunCacheDir(""); err != nil {
			b.Fatal(err)
		}
		ResetRunCache()
	}()
	// Populate the disk tier once; the measured iterations then model a
	// fresh process re-rendering the sweep from disk.
	runSweepExperiments(b, opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResetRunCache()
		plan, err := PlanSweep(sweepTestExperiments(opts, nil))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.ExecuteOpts(nil, ExecOptions{Parallelism: opts.Parallelism}); err != nil {
			b.Fatal(err)
		}
		runSweepExperiments(b, opts)
	}
	d := RunCacheDetail()
	b.ReportMetric(float64(d.Sims), "sims")
	b.ReportMetric(float64(d.DiskHits), "disk-hits")
}
