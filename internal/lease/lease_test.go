package lease

import (
	"bufio"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func newTestManager(t *testing.T, dir string) *Manager {
	t.Helper()
	m, err := NewManager(dir, "testplan")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAcquireExcludes(t *testing.T) {
	dir := t.TempDir()
	a := newTestManager(t, dir)
	b := newTestManager(t, dir)

	l, err := a.Acquire("cell1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Acquire("cell1"); !errors.Is(err, ErrHeld) {
		t.Fatalf("second owner acquired a live lease: %v", err)
	}
	// flock excludes per open file description: the holder's own
	// manager is excluded too.
	if _, err := a.Acquire("cell1"); !errors.Is(err, ErrHeld) {
		t.Fatalf("holder's manager acquired its own live lease again: %v", err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err != nil {
		t.Errorf("second release: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cell1.lease")); !os.IsNotExist(err) {
		t.Errorf("released lease file still present: %v", err)
	}
	lb, err := b.Acquire("cell1")
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	lb.Release()
}

// strand writes the file a SIGKILLed owner leaves behind: present on
// disk, locked by nobody.
func strand(t *testing.T, dir string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "cell.lease"), []byte(`{"Owner":"dead"}`), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestExpiredTakeover(t *testing.T) {
	dir := t.TempDir()
	strand(t, dir)
	l, err := newTestManager(t, dir).Acquire("cell")
	if err != nil {
		t.Fatalf("claiming a dead owner's lease failed: %v", err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "*")); len(matches) != 0 {
		t.Errorf("files left after release: %v", matches)
	}
}

// TestExpiredTakeoverRace races claimants for a dead owner's stranded
// lease file: exactly one may win while the winner holds it.
func TestExpiredTakeoverRace(t *testing.T) {
	dir := t.TempDir()
	strand(t, dir)
	const claimants = 8
	var (
		won   atomic.Int32
		start sync.WaitGroup
		wg    sync.WaitGroup
	)
	held := make([]*Lease, claimants)
	start.Add(1)
	for i := 0; i < claimants; i++ {
		m := newTestManager(t, dir)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			l, err := m.Acquire("cell")
			if err == nil {
				won.Add(1)
				held[i] = l
			} else if !errors.Is(err, ErrHeld) {
				t.Errorf("claimant %d: %v", i, err)
			}
		}(i)
	}
	start.Done()
	wg.Wait()
	if n := won.Load(); n != 1 {
		t.Fatalf("%d claimants won the stranded lease, want exactly 1", n)
	}
	for _, l := range held {
		if l != nil {
			l.Release()
		}
	}
}

// TestRemoveStale checks end-of-sweep cleanup: it unlinks a dead
// owner's file whatever its plan, leaves a live lease and other files
// alone, and creates nothing.
func TestRemoveStale(t *testing.T) {
	dir := t.TempDir()
	strand(t, dir)
	other, err := NewManager(dir, "otherplan")
	if err != nil {
		t.Fatal(err)
	}
	live, err := other.Acquire("live")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := newTestManager(t, dir).RemoveStale(); err != nil {
		t.Fatal(err)
	}
	got, _ := filepath.Glob(filepath.Join(dir, "*"))
	want := []string{filepath.Join(dir, "live.lease"), filepath.Join(dir, "notes.txt")}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("files after RemoveStale = %v, want %v", got, want)
	}
	if err := live.Release(); err != nil {
		t.Fatalf("live lease disturbed by RemoveStale: %v", err)
	}
}

// TestMutualExclusionStress hammers one key with acquire/release loops
// and counts holders inside the critical section, while a cleaner runs
// RemoveStale over the directory. The post-lock inode check is what
// keeps this at one: without it, a claimant that opened the file just
// before the holder (or the cleaner) unlinked it locks the orphan while
// another claimant locks the fresh file at the path. A holder whose
// file the cleaner unlinked would also fail its Release.
func TestMutualExclusionStress(t *testing.T) {
	dir := t.TempDir()
	const workers, attempts = 8, 2000
	var (
		inside, overlaps atomic.Int32
		acquired         atomic.Int64
		wg               sync.WaitGroup
		done             = make(chan struct{})
		cleaned          = make(chan struct{})
	)
	go func() {
		defer close(cleaned)
		m := newTestManager(t, dir)
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := m.RemoveStale(); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	for w := 0; w < workers; w++ {
		m := newTestManager(t, dir)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				l, err := m.Acquire("cell")
				if errors.Is(err, ErrHeld) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				acquired.Add(1)
				if inside.Add(1) != 1 {
					overlaps.Add(1)
				}
				runtime.Gosched() // widen the window for a second holder
				inside.Add(-1)
				if err := l.Release(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	<-cleaned
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("a second holder entered a held lease %d times", n)
	}
	if acquired.Load() == 0 {
		t.Fatal("no claimant ever acquired the lease")
	}
}

// Env knobs for the re-exec'd lease holder.
const (
	holderDirEnv = "PROFESS_LEASE_HOLDER_DIR"
	holderReady  = "lease-holder: acquired"
)

// TestLeaseHolderProcess is the re-exec'd holder, not a test in its own
// right: it acquires "cell", announces it on stdout and holds the lease
// until killed (or until its stdin closes).
func TestLeaseHolderProcess(t *testing.T) {
	dir := os.Getenv(holderDirEnv)
	if dir == "" {
		t.Skip("re-exec helper for TestKill9ReleasesLease")
	}
	if _, err := newTestManager(t, dir).Acquire("cell"); err != nil {
		t.Fatal(err)
	}
	os.Stdout.WriteString(holderReady + "\n")
	io.Copy(io.Discard, os.Stdin)
}

// TestKill9ReleasesLease pins the crash contract: a live holder in
// another process excludes us, and the moment it is SIGKILLed and waited
// for its lease is free, with no expiry to wait out.
func TestKill9ReleasesLease(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestLeaseHolderProcess$", "-test.count=1")
	cmd.Env = append(os.Environ(), holderDirEnv+"="+dir)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer stdin.Close()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	ready := false
	for sc := bufio.NewScanner(stdout); !ready && sc.Scan(); {
		ready = strings.Contains(sc.Text(), holderReady)
	}
	if !ready {
		cmd.Wait()
		t.Fatal("holder process exited without acquiring the lease")
	}

	m := newTestManager(t, dir)
	if _, err := m.Acquire("cell"); !errors.Is(err, ErrHeld) {
		t.Fatalf("acquired a lease held by a live process: %v", err)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reports the kill; the kernel has dropped the lock once it returns
	l, err := m.Acquire("cell")
	if err != nil {
		t.Fatalf("lease of a killed holder not free at once: %v", err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
}
