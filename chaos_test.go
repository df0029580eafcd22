package profess

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"profess/internal/lease"
)

// The chaos suite proves the crash-safety contract of the sweep
// executor: real worker subprocesses sharing one cache directory are
// SIGKILLed at random points mid-sweep, and fresh workers must finish
// the sweep from the journal — byte-identical reports, no cell
// simulated concurrently by two live owners, no leaked lease or temp
// files. Subprocesses are this test binary re-exec'd against a single
// guarded helper test, the standard multi-process testing pattern.

// Env knobs for the re-exec helpers.
const (
	chaosWorkerEnv = "PROFESS_CHAOS_WORKER" // "1": run the sweep-worker helper
	chaosWriterEnv = "PROFESS_CHAOS_CACHEWRITER"
	chaosDirEnv    = "PROFESS_CHAOS_DIR"    // shared cache directory
	chaosSlowEnv   = "PROFESS_CHAOS_SLOWMS" // artificial per-simulation latency
)

// chaosExecOpts are the worker-side executor settings: a short poll so
// workers notice cells freed by killed owners quickly.
func chaosExecOpts() ExecOptions {
	return ExecOptions{Parallelism: 2, Poll: 50 * time.Millisecond}
}

// TestChaosWorkerProcess is the re-exec'd sweep worker, not a test in
// its own right: it plans the shared chaos sweep against the directory
// in the environment and executes it until done or killed.
func TestChaosWorkerProcess(t *testing.T) {
	dir := os.Getenv(chaosDirEnv)
	if os.Getenv(chaosWorkerEnv) != "1" || dir == "" {
		t.Skip("re-exec helper for the chaos harness")
	}
	SetRunCaching(true)
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	if ms, _ := strconv.Atoi(os.Getenv(chaosSlowEnv)); ms > 0 {
		simCellHook = func(string) error {
			time.Sleep(time.Duration(ms) * time.Millisecond)
			return nil
		}
	}
	plan, err := PlanSweep(sweepTestExperiments(sweepTestOpts(), nil))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.ExecuteOpts(context.Background(), chaosExecOpts())
	if err != nil {
		t.Fatalf("worker execute: %v", err)
	}
	if got := rep.Done + rep.Resumed + rep.External; got != rep.Cells {
		t.Fatalf("worker finished with %d/%d cells settled", got, rep.Cells)
	}
}

// chaosWorkerCmd builds one re-exec'd sweep worker against dir.
func chaosWorkerCmd(t *testing.T, dir string, slowMS int) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestChaosWorkerProcess$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(),
		chaosWorkerEnv+"=1",
		chaosDirEnv+"="+dir,
		chaosSlowEnv+"="+strconv.Itoa(slowMS),
	)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	return cmd, &out
}

// assertNoDebris checks the shared directory holds no lease files and
// no orphaned atomic-write temp files.
func assertNoDebris(t *testing.T, dir string) {
	t.Helper()
	for _, pattern := range []string{
		filepath.Join(dir, "leases", "*"),
		filepath.Join(dir, ".tmp-*"),
	} {
		if matches, _ := filepath.Glob(pattern); len(matches) != 0 {
			t.Errorf("leaked files: %v", matches)
		}
	}
}

// TestChaosKill9Resume is the acceptance harness: workers are SIGKILLed
// at random points of a shared sweep, then fresh workers join and must
// complete it — reports byte-identical to a never-crashed run, zero
// cells simulated by two live owners at once, no leaked lease or temp
// files.
func TestChaosKill9Resume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real subprocesses")
	}
	opts := sweepTestOpts()

	// Reference reports from fully uncached in-process runs.
	SetRunCaching(false)
	want := map[string]string{}
	for _, e := range sweepTestExperiments(opts, want) {
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	SetRunCaching(true)

	dir := t.TempDir()

	// Kill phase: start a deliberately slowed worker, SIGKILL it
	// mid-sweep, repeat. Each round strands unlocked lease files, a
	// journal with dangling claims, and possibly a half-written temp
	// file — exactly the crash states resume must absorb.
	rng := rand.New(rand.NewSource(42)) // fixed seed: reproducible kill points
	for round := 0; round < 3; round++ {
		cmd, out := chaosWorkerCmd(t, dir, 150)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		delay := time.Duration(100+rng.Intn(500)) * time.Millisecond
		time.Sleep(delay)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatalf("round %d: kill: %v\nworker output:\n%s", round, err, out)
		}
		_ = cmd.Wait() // expected to report the kill
	}

	// Recovery phase: two fresh workers join concurrently and must both
	// finish the sweep, claiming whatever the dead workers held.
	w1, out1 := chaosWorkerCmd(t, dir, 0)
	w2, out2 := chaosWorkerCmd(t, dir, 0)
	if err := w1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w1.Wait(); err != nil {
		t.Fatalf("recovery worker 1 failed: %v\n%s", err, out1)
	}
	if err := w2.Wait(); err != nil {
		t.Fatalf("recovery worker 2 failed: %v\n%s", err, out2)
	}

	// Render phase: a pristine process (simulated by dropping the
	// in-process tier) attached to the survivors' directory must render
	// every report byte-identically with zero simulations.
	ResetRunCache()
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := SetRunCacheDir(""); err != nil {
			t.Fatal(err)
		}
		ResetRunCache()
	}()
	plan, err := PlanSweep(sweepTestExperiments(opts, nil))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.ExecuteOpts(context.Background(), chaosExecOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != rep.Cells {
		t.Errorf("verification pass resumed %d/%d cells; the workers' journal must cover the whole sweep", rep.Resumed, rep.Cells)
	}
	got := map[string]string{}
	for _, e := range sweepTestExperiments(opts, got) {
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if d := RunCacheDetail(); d.Sims != 0 {
		t.Errorf("rendering after the chaos run simulated %d cells, want 0", d.Sims)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s report differs from the never-crashed run:\n--- reference ---\n%s\n--- chaos ---\n%s", name, w, got[name])
		}
	}

	assertNoDebris(t, dir)
	auditJournal(t, filepath.Join(dir, "sweeps", plan.Hash()+".jsonl"), plan)
}

// auditJournal asserts the no-duplication property: for each cell, the
// [claimed, done] intervals of different owners never overlap. Owners
// killed mid-cell never write their done record, so their claims stay
// open and legal; two live owners simulating one cell concurrently
// would close overlapping intervals and fail here.
func auditJournal(t *testing.T, path string, plan *SweepPlan) {
	t.Helper()
	recs, err := lease.ReadJournal(path)
	if err != nil {
		t.Fatalf("journal audit: %v", err)
	}
	type interval struct {
		owner      string
		start, end int64
	}
	open := map[string]map[string]int64{} // key -> owner -> claim time
	closed := map[string][]interval{}
	done := map[string]bool{}
	for _, r := range recs {
		switch r.Status {
		case lease.StatusClaimed:
			if open[r.Key] == nil {
				open[r.Key] = map[string]int64{}
			}
			open[r.Key][r.Owner] = r.Nanos
		case lease.StatusDone:
			done[r.Key] = true
			if start, ok := open[r.Key][r.Owner]; ok {
				closed[r.Key] = append(closed[r.Key], interval{r.Owner, start, r.Nanos})
				delete(open[r.Key], r.Owner)
			}
		}
	}
	for _, c := range plan.Cells {
		if !done[c.Key] {
			t.Errorf("cell %s has no done record in the journal", c.Key[:12])
		}
	}
	for key, ivs := range closed {
		for i := 0; i < len(ivs); i++ {
			for j := i + 1; j < len(ivs); j++ {
				a, b := ivs[i], ivs[j]
				if a.owner != b.owner && a.start < b.end && b.start < a.end {
					t.Errorf("cell %s simulated concurrently by two live owners (%s and %s)", key[:12], a.owner, b.owner)
				}
			}
		}
	}
}

// TestExecuteCancelLeavesResumableJournal pins the cancellation
// contract: ctx cancellation mid-sweep returns ctx.Err() itself (not
// joined cell errors), drains promptly, releases every lease, and
// leaves a journal from which a second call completes the sweep.
func TestExecuteCancelLeavesResumableJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := withDiskCache(t)

	// Slow every real simulation down so cancellation lands mid-sweep.
	simCellHook = func(string) error {
		time.Sleep(100 * time.Millisecond)
		return nil
	}
	defer func() { simCellHook = nil }()

	plan, err := PlanSweep(sweepTestExperiments(sweepTestOpts(), nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	rep, err := plan.ExecuteOpts(ctx, ExecOptions{Parallelism: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled execute returned %v, want context.Canceled", err)
	}
	if err.Error() != context.Canceled.Error() {
		t.Errorf("cancellation must be returned distinctly, not joined with cell errors: %q", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("cancelled execute took %v to drain", d)
	}
	if rep.Done >= rep.Cells {
		t.Fatalf("all %d cells finished before cancellation; the resume leg tests nothing", rep.Cells)
	}
	// Leases must be gone the moment the call returns.
	if matches, _ := filepath.Glob(filepath.Join(dir, "leases", "*")); len(matches) != 0 {
		t.Errorf("cancelled execute leaked leases: %v", matches)
	}

	simCellHook = nil
	rep2, err := plan.ExecuteOpts(context.Background(), ExecOptions{Parallelism: 2})
	if err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	if rep2.Resumed != rep.Done {
		t.Errorf("resume skipped %d cells, want the %d the cancelled call completed", rep2.Resumed, rep.Done)
	}
	if rep2.Resumed+rep2.Done != rep2.Cells {
		t.Errorf("resume settled %d+%d of %d cells", rep2.Resumed, rep2.Done, rep2.Cells)
	}
	assertNoDebris(t, dir)
}

// TestExecuteRetriesTransientFailures checks the backoff loop: every
// cell fails once with a transient error and must still complete, with
// the retries and the failures visible in the report and the journal.
func TestExecuteRetriesTransientFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := withDiskCache(t)

	var mu sync.Mutex
	failedOnce := map[string]bool{}
	simCellHook = func(key string) error {
		mu.Lock()
		defer mu.Unlock()
		if !failedOnce[key] {
			failedOnce[key] = true
			return errors.New("injected transient failure")
		}
		return nil
	}
	defer func() { simCellHook = nil }()

	plan, err := PlanSweep(sweepTestExperiments(sweepTestOpts(), nil))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.ExecuteOpts(context.Background(), ExecOptions{
		Parallelism:  2,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("transient failures must be retried away, got %v", err)
	}
	if rep.Done != rep.Cells || rep.Failed != 0 {
		t.Errorf("report %+v, want all %d cells done", rep, rep.Cells)
	}
	if rep.Retries != rep.Cells {
		t.Errorf("%d retries for %d once-failing cells", rep.Retries, rep.Cells)
	}
	recs, err := lease.ReadJournal(filepath.Join(dir, "sweeps", plan.Hash()+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var journalFails int
	for _, r := range recs {
		if r.Status == lease.StatusFailed {
			journalFails++
		}
	}
	if journalFails != rep.Cells {
		t.Errorf("journal records %d failed attempts, want %d", journalFails, rep.Cells)
	}
	assertNoDebris(t, dir)
}

// TestExecuteExhaustsAttempts checks the failure cap: a permanently
// failing cell fails the sweep after MaxAttempts, without poisoning the
// other cells.
func TestExecuteExhaustsAttempts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	withDiskCache(t)

	plan, err := PlanSweep(sweepTestExperiments(sweepTestOpts(), nil))
	if err != nil {
		t.Fatal(err)
	}
	doomed := plan.Cells[0].Key
	simCellHook = func(key string) error {
		if key == doomed {
			return errors.New("injected permanent failure")
		}
		return nil
	}
	defer func() { simCellHook = nil }()

	rep, err := plan.ExecuteOpts(context.Background(), ExecOptions{
		Parallelism:  2,
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
	})
	if err == nil {
		t.Fatal("permanently failing cell must fail the sweep")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("failure must not masquerade as cancellation: %v", err)
	}
	if rep.Failed != 1 || rep.Done != rep.Cells-1 {
		t.Errorf("report %+v, want 1 failed and %d done", rep, rep.Cells-1)
	}
	if rep.Retries != 1 {
		t.Errorf("%d retries, want 1 (MaxAttempts=2)", rep.Retries)
	}
}

// TestChaosCacheWriterProcess is the re-exec'd disk-cache writer: it
// hammers one run key with stores so two such processes race the same
// entry file.
func TestChaosCacheWriterProcess(t *testing.T) {
	dir := os.Getenv(chaosDirEnv)
	if os.Getenv(chaosWriterEnv) != "1" || dir == "" {
		t.Skip("re-exec helper for the cache write race test")
	}
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	res := &Result{Scheme: "pom", Cycles: 12345, EnergyEff: 1.5, STCHitRate: 0.25}
	for i := 0; i < 300; i++ {
		theDiskCache.store("chaos-race-key", res)
	}
	if _, ok := theDiskCache.load("chaos-race-key"); !ok {
		t.Fatal("entry unreadable from the writing process")
	}
}

// TestDiskCacheMultiProcessWrites races two real processes storing the
// same run key into one directory: both must succeed, and the surviving
// entry must pass checksum validation.
func TestDiskCacheMultiProcessWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	writer := func() (*exec.Cmd, *bytes.Buffer) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestChaosCacheWriterProcess$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), chaosWriterEnv+"=1", chaosDirEnv+"="+dir)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		return cmd, &out
	}
	w1, out1 := writer()
	w2, out2 := writer()
	if err := w1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w1.Wait(); err != nil {
		t.Fatalf("writer 1: %v\n%s", err, out1)
	}
	if err := w2.Wait(); err != nil {
		t.Fatalf("writer 2: %v\n%s", err, out2)
	}

	// The survivor must be a complete, checksum-valid entry.
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := SetRunCacheDir(""); err != nil {
			t.Fatal(err)
		}
	}()
	res, ok := theDiskCache.load("chaos-race-key")
	if !ok {
		t.Fatal("surviving entry failed validation")
	}
	if res.Cycles != 12345 {
		t.Errorf("surviving entry decoded to %+v", res)
	}
	// And no writer left its temp file behind.
	if tmps, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(tmps) != 0 {
		t.Errorf("leaked temp files: %v", tmps)
	}
}
