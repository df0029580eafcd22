// Command perfbench is the repository's benchmark: cold sweeps of the
// Fig. 10 multi-program experiment, at full fidelity and on the sampled
// tier, and of the sixteen-program Scale16 fleet, each through the public
// sweep API in child processes of its own. It prints host facts and then,
// as its last line, one JSON result. See README.md for the metrics.
//
//	bash perfbench/run.sh --workload fig10-full --seed 0 --seconds 15 --trace 0
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"profess"
)

// refJSON holds, for seed 0, the Result digest and per-program IPCs of
// every full-fidelity cell of fig10-full and fleet16 (see -writeref).
//
//go:embed ref/seed0.json
var refJSON []byte

// refCell is one committed seed-0 cell.
type refCell struct {
	Digest string    `json:"digest"`
	IPC    []float64 `json:"ipc"`
}

// minRuns is the fewest cold sweeps a result is the median of.
const minRuns = 3

func main() {
	var (
		wl       = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Uint64("seed", 0, "XORed into every generator seed and Config.Seed (0 = professbench's cells)")
		seconds  = flag.Int("seconds", 15, "keep starting cold sweeps until this many seconds have passed")
		trace    = flag.Int("trace", 0, "1 = print per-layer metrics from profiled sweeps instead of end-to-end metrics")
		writeRef = flag.Bool("writeref", false, "run fig10-full and fleet16 at seed 0 and rewrite perfbench/ref/seed0.json")
		child    = flag.String("child", "", "run one cold sweep in this process and write its record to this file")
		dir      = flag.String("dir", "", "with -child: the sweep's fresh cache directory")
		profile  = flag.Bool("profile", false, "with -child: record a CPU profile")
	)
	flag.Parse()
	if *child != "" {
		out, err := runChild(*wl, *seed, *dir, *profile, *child+".pprof")
		if err == nil {
			var js []byte
			if js, err = json.Marshal(out); err == nil {
				err = os.WriteFile(*child, js, 0o644)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
			os.Exit(1)
		}
		return
	}
	var err error
	if *writeRef {
		err = writeReference()
	} else {
		err = run(*wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// sweep is one child process's record plus its peak resident set.
type sweep struct {
	*childOut
	rssMB float64
}

// runner starts child sweeps under one scratch directory.
type runner struct {
	self, work string
	n          int
}

func newRunner() (*runner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprint(os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	return &runner{self: self, work: work}, nil
}

func (r *runner) close() { os.RemoveAll(r.work) }

// sweep runs one cold sweep in a child process with a fresh cache
// directory, removed afterwards.
func (r *runner) sweep(name string, seed uint64, profile bool) (*sweep, error) {
	r.n++
	dir := filepath.Join(r.work, fmt.Sprint(r.n))
	out := dir + ".json"
	defer os.Remove(out + ".pprof")
	defer os.Remove(out)
	defer os.RemoveAll(dir)
	cmd := exec.Command(r.self, "-child", out, "-dir", dir, "-workload", name,
		"-seed", fmt.Sprint(seed), fmt.Sprintf("-profile=%t", profile))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s sweep: %w", name, err)
	}
	js, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	s := &sweep{childOut: &childOut{}}
	if err := json.Unmarshal(js, s.childOut); err != nil {
		return nil, err
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	fmt.Fprintf(os.Stderr, "perfbench: sweep %d %s seed %d profile=%t: wall %.3f s, set-up %.2f ms, %.0f MiB\n",
		r.n, name, seed, profile, s.WallS, 1e3*s.SetupS, s.rssMB)
	return s, nil
}

// run measures one workload: cold sweeps until the time is spent, then
// the medians, the correctness gate and the result line.
func run(name string, seed uint64, seconds time.Duration, traced bool) error {
	if _, err := newBench(name, seed, 1); err != nil {
		return err
	}
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	r, err := newRunner()
	if err != nil {
		return err
	}
	defer r.close()

	g := gate{refs: refs}
	// Untimed sweeps before the measurement. Full-fidelity workloads are
	// checked against the committed seed-0 digests on every run; the
	// sampled workload needs the full-fidelity IPCs of its own seed.
	reference := refs["fig10-full"]
	switch {
	case name == "fig10-sampled" && seed != 0:
		full, err := r.sweep("fig10-full", seed, false)
		if err != nil {
			return err
		}
		g.check(full, full, "fig10-full", seed, false)
		reference = cellsToRef(full.Cells)
	case name != "fig10-sampled" && seed != 0:
		check, err := r.sweep(name, 0, false)
		if err != nil {
			return err
		}
		g.check(check, check, name, 0, true)
	}

	// A plain run is the median of at least minRuns sweeps; a traced run
	// alternates plain and profiled sweeps, at least one of each.
	atLeast := minRuns
	if traced {
		atLeast = 1
	}
	var plain, profiled []*sweep
	start := time.Now()
	for len(plain) < atLeast || time.Since(start) < seconds {
		s, err := r.sweep(name, seed, false)
		if err != nil {
			return err
		}
		plain = append(plain, s)
		if traced {
			if s, err = r.sweep(name, seed, true); err != nil {
				return err
			}
			profiled = append(profiled, s)
		}
	}
	if name != "fig10-sampled" {
		reference = cellsToRef(plain[0].Cells)
	}
	for _, s := range append(append([]*sweep(nil), plain...), profiled...) {
		g.check(s, plain[0], name, seed, true)
	}
	acc := accuracy(plain[0].Cells, reference)

	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s instr=%d scale=%g seed=%d workload=%s sweeps=%d+%d profiled\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), instructions, profess.PaperScale,
		seed, name, len(plain), len(profiled))
	for _, p := range g.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", p)
	}
	if g.missingCI > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d sampled cells measured fewer than two windows (no confidence interval)\n", g.missingCI, g.attempted)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d report:\n%s", name, seed, plain[0].Report)

	var metrics map[string]metric
	if traced {
		metrics = layerMetrics(plain, profiled, acc)
	} else {
		metrics = endToEnd(plain, g, acc)
	}
	js, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(g.problems) == 0, g.attempted, g.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// gate is the correctness check over every sweep of a run.
type gate struct {
	refs              map[string]map[string]refCell
	attempted, failed int
	// missingCI counts sampled cells whose estimate rests on fewer than
	// two windows; they count as failed without making the run incorrect.
	missingCI int
	problems  []string
}

func (g *gate) fail(format string, args ...any) {
	g.problems = append(g.problems, fmt.Sprintf(format, args...))
}

// check gates the cells of s, a sweep of workload name at seed, and
// compares s with first, the first sweep of the same inputs: digests and
// model counts must repeat exactly. The cells count toward attempted and
// failed when counted is set: for every sweep of the workload itself, but
// not for the sampled workload's full-fidelity reference sweep, so that a
// healthy run's ok_pct does not depend on how many sweeps fit in the time.
func (g *gate) check(s, first *sweep, name string, seed uint64, counted bool) {
	sampled := name == "fig10-sampled"
	for i, c := range s.Cells {
		if counted {
			g.attempted++
		}
		bad := ""
		switch {
		case c.Err != "":
			bad = c.Err
		case c.Done != 1:
			bad = fmt.Sprintf("%d done journal records", c.Done)
		case !finite(c.IPC) || !finite(c.CI95) || slices.Min(c.IPC) <= 0:
			bad = "missing or non-finite IPC estimate"
		case !sampled && seed == 0 && g.refs[name][c.Label].Digest != c.Digest:
			bad = "Result digest differs from ref/seed0.json"
		case sampled && c.Windows < 2:
			// The estimate exists but has no confidence interval: a
			// failed cell, yet not a wrong output.
			g.failed++
			g.missingCI++
		}
		if bad != "" {
			if counted {
				g.failed++
			}
			g.fail("cell %s: %s", c.Label, bad)
		}
		if i >= len(first.Cells) || first.Cells[i].Digest != c.Digest {
			g.fail("cell %s: Result differs between sweeps of one run", c.Label)
		}
	}
	if len(s.Cells) != len(first.Cells) {
		g.fail("sweeps planned %d and %d cells", len(first.Cells), len(s.Cells))
	}
	for k, v := range first.Counts {
		if s.Counts[k] != v {
			g.fail("count %s differs between sweeps: %v vs %v", k, v, s.Counts[k])
		}
	}
	if s.KeysMatch != nil && !*s.KeysMatch {
		g.fail("seed-0 cell keys differ from professbench -exp fig10 -workloads %s", strings.Join(fig10Mixes, ","))
	}
}

// acc is the sampled tier's accuracy against full fidelity.
type acc struct{ errPct, coveragePct float64 }

// accuracy compares the per-program IPCs of the multi-program cells with
// the reference: the mean relative error, and the share of programs whose
// 95% interval covers the reference IPC. Full-fidelity cells are their
// own reference, so they score 0% error and 100% coverage.
func accuracy(cells []cellOut, reference map[string]refCell) acc {
	var errSum float64
	var n, covered int
	for _, c := range cells {
		if !c.Mix {
			continue
		}
		ref := reference[c.Label].IPC
		for i, ipc := range c.IPC {
			if i >= len(ref) || ref[i] <= 0 {
				return acc{math.NaN(), math.NaN()}
			}
			d := math.Abs(ipc - ref[i])
			errSum += d / ref[i]
			n++
			if d <= c.CI95[i] {
				covered++
			}
		}
	}
	if n == 0 {
		return acc{math.NaN(), math.NaN()}
	}
	return acc{100 * errSum / float64(n), 100 * float64(covered) / float64(n)}
}

func cellsToRef(cells []cellOut) map[string]refCell {
	m := make(map[string]refCell, len(cells))
	for _, c := range cells {
		m[c.Label] = refCell{Digest: c.Digest, IPC: c.IPC}
	}
	return m
}

func loadRefs() (map[string]map[string]refCell, error) {
	refs := map[string]map[string]refCell{}
	if err := json.Unmarshal(refJSON, &refs); err != nil {
		return nil, fmt.Errorf("ref/seed0.json: %w", err)
	}
	return refs, nil
}

// writeReference regenerates ref/seed0.json from one seed-0 sweep of each
// full-fidelity workload. Run it from the repository root, and only for a
// change meant to alter simulated results.
func writeReference() error {
	r, err := newRunner()
	if err != nil {
		return err
	}
	defer r.close()
	refs := map[string]map[string]refCell{}
	for _, name := range []string{"fig10-full", "fleet16"} {
		s, err := r.sweep(name, 0, false)
		if err != nil {
			return err
		}
		refs[name] = cellsToRef(s.Cells)
	}
	js, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "ref", "seed0.json"), append(js, '\n'), 0o644)
}

// endToEnd reduces the plain sweeps to the end-to-end metrics: host times
// are medians over the sweeps, simulated outcomes repeat exactly.
func endToEnd(plain []*sweep, g gate, a acc) map[string]metric {
	// The peak over the sweeps: a sweep's peak depends on when its
	// collections happen to run, and the highest is what a user provisions.
	var peakRSS float64
	for _, s := range plain {
		peakRSS = math.Max(peakRSS, s.rssMB)
	}
	per := func(f func(s *sweep) float64) float64 { return medianOf(plain, f) }
	return map[string]metric{
		"wall_s":            {per(func(s *sweep) float64 { return s.WallS }), "s"},
		"sim_minstr_per_s":  {per(func(s *sweep) float64 { return s.Counts["sim.minstr"] / s.WallS }), "Minstr/s"},
		"peak_rss_mb":       {peakRSS, "MiB"},
		"setup_s":           {per(func(s *sweep) float64 { return s.SetupS }), "s"},
		"ok_pct":            {100 * float64(g.attempted-g.failed) / float64(g.attempted), "%"},
		"ipc_acc_pct":       {100 - a.errPct, "%"},
		"ci95_coverage_pct": {a.coveragePct, "%"},
	}
}

// layerMetrics reduces a traced run: the CPU-profile fold comes from the
// profiled sweeps, spans, counts and allocation figures (medians) from the
// plain sweeps between them.
func layerMetrics(plain, profiled []*sweep, a acc) map[string]metric {
	m := map[string]metric{}
	// Profile figures are means over the profiled sweeps, so the module
	// self times still sum to profile.total_s.
	for k := range profiled[0].Profile {
		unit := "s"
		if strings.HasSuffix(k, "_pct") {
			unit = "%"
		}
		var sum float64
		for _, s := range profiled {
			sum += s.Profile[k]
		}
		m[k] = metric{sum / float64(len(profiled)), unit}
	}
	first := plain[0]
	cells := first.Counts["sweep.cells"]
	for k, v := range first.Counts {
		m[k] = metric{v, countUnit(k)}
	}
	isMix := func(c cellOut) bool { return c.Mix }
	isAlone := func(c cellOut) bool { return !c.Mix }
	m["sweep.plan_ms"] = metric{medianOf(plain, func(s *sweep) float64 { return s.PlanMS }), "ms"}
	m["sweep.execute_s"] = metric{medianOf(plain, func(s *sweep) float64 { return s.ExecS }), "s"}
	m["sweep.render_ms"] = metric{medianOf(plain, func(s *sweep) float64 { return s.RenderMS }), "ms"}
	m["sweep.busy_pct"] = metric{medianOf(plain, func(s *sweep) float64 { return s.BusyPct }), "%"}
	m["cell.mix_ms.p50"] = metric{medianOf(plain, func(s *sweep) float64 { return median(cellMS(s.Cells, isMix)) }), "ms"}
	m["cell.alone_ms.p50"] = metric{medianOf(plain, func(s *sweep) float64 { return median(cellMS(s.Cells, isAlone)) }), "ms"}
	m["cell_ms.p50"] = metric{medianOf(plain, func(s *sweep) float64 { return median(cellMS(s.Cells, nil)) }), "ms"}
	m["cell_ms.tail"] = metric{medianOf(plain, func(s *sweep) float64 { return tail(cellMS(s.Cells, nil)) }), "ms"}
	m["alloc.mallocs_per_cell"] = metric{medianOf(plain, func(s *sweep) float64 { return s.Runtime["mallocs"] / cells }), "count"}
	m["alloc.mb_per_cell"] = metric{medianOf(plain, func(s *sweep) float64 { return s.Runtime["bytes"] / cells / 1e6 }), "MB"}
	m["gc.cycles"] = metric{medianOf(plain, func(s *sweep) float64 { return s.Runtime["gc"] }), "count"}
	m["gc.pause_ms"] = metric{medianOf(plain, func(s *sweep) float64 { return s.Runtime["pause_ms"] }), "ms"}
	m["shard.cpu_per_wall"] = metric{medianOf(plain, func(s *sweep) float64 { return s.CPUPerWall }), "ratio"}
	m["sample.ipc_err_pct"] = metric{a.errPct, "%"}
	m["tracing.overhead_s"] = metric{medianOf(profiled, func(s *sweep) float64 { return s.WallS }) - medianOf(plain, func(s *sweep) float64 { return s.WallS }), "s"}
	return m
}

func countUnit(k string) string {
	switch {
	case strings.Contains(k, "_pct"):
		return "%"
	case k == "l3.mpki":
		return "1/kinstr"
	case k == "sim.minstr":
		return "Minstr"
	case strings.HasSuffix(k, "mcycles"):
		return "Mcycles"
	}
	return "count"
}

// cellMS returns the claimed→done times of the cells keep accepts (all
// when keep is nil), sorted.
func cellMS(cells []cellOut, keep func(cellOut) bool) []float64 {
	var xs []float64
	for _, c := range cells {
		if keep == nil || keep(c) {
			xs = append(xs, c.MS)
		}
	}
	sort.Float64s(xs)
	return xs
}

// tail is the highest percentile of sorted xs with at least ten samples
// beyond it; 0 when there are fewer than eleven.
func tail(xs []float64) float64 {
	if len(xs) < 11 {
		return 0
	}
	return xs[len(xs)-11]
}

// medianOf is the median of f over the sweeps.
func medianOf(ss []*sweep, f func(s *sweep) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if k, v, ok := bytes.Cut(line, []byte{':'}); ok && string(bytes.TrimSpace(k)) == "model name" {
			return string(bytes.TrimSpace(v))
		}
	}
	return "unknown"
}
