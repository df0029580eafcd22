// Package lease coordinates crash-safe, multi-process sweep execution
// through two primitives under a shared directory (in practice the
// persistent run-cache directory):
//
//   - Leases: one lock file per cell, claimed with a non-blocking
//     exclusive flock(2). The kernel drops the lock when the holder's
//     descriptor closes or its process dies, kill -9 included, so a dead
//     owner's cell is free at once. Processes on one host and a local
//     filesystem only; NFS and other network filesystems are unsupported.
//
//   - A journal: one append-only JSONL file per sweep of claimed, done
//     and failed cell records (see Journal), through which any process
//     joins a sweep in flight or resumes one whose workers were killed.
//
// Both are advisory: results live in the idempotent, content-addressed
// run cache, so a lost lease or a corrupt journal costs duplicated work,
// never wrong results.
package lease

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// ErrHeld reports that a lease is currently held by another live owner.
var ErrHeld = errors.New("lease: held by a live owner")

// Manager acquires leases for one owner process.
type Manager struct {
	dir, owner, plan string
}

// Lease is one held cell claim, owned by the goroutine that acquired it.
type Lease struct {
	f *os.File // nil once released
}

// NewManager creates the lease directory dir if needed; every lease file
// it writes is tagged with plan, the sweep's plan hash. The owner id is
// host:pid:start-time; the start time keeps ids unique across pid reuse.
func NewManager(dir, plan string) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lease: dir: %w", err)
	}
	host, _ := os.Hostname()
	owner := fmt.Sprintf("%s:%d:%x", host, os.Getpid(), time.Now().UnixNano())
	return &Manager{dir: dir, owner: owner, plan: plan}, nil
}

// Owner returns the manager's owner id.
func (m *Manager) Owner() string { return m.owner }

// Acquire claims the cell key (a run-cache content hash, hence a safe
// file name), returning ErrHeld while a live owner holds it. A dead
// owner's leftover file is unlocked, so claiming it needs nothing special.
func (m *Manager) Acquire(key string) (*Lease, error) {
	l, err := lock(filepath.Join(m.dir, key+".lease"), os.O_CREATE)
	if err != nil {
		return nil, err
	}
	// The payload is for humans (`cat` a lease); the lock is the claim.
	payload, _ := json.Marshal(struct{ Owner, Plan string }{m.owner, m.plan})
	_ = l.f.Truncate(0)
	_, _ = l.f.Write(append(payload, '\n'))
	return l, nil
}

// RemoveStale unlinks every lease file in the directory that no live
// owner holds, whatever its plan: files stranded by workers killed
// mid-cell. It creates no files; held leases are left to their holders.
func (m *Manager) RemoveStale() error {
	paths, err := filepath.Glob(filepath.Join(m.dir, "*.lease"))
	for _, p := range paths {
		if l, lerr := lock(p, 0); lerr == nil {
			err = errors.Join(err, l.Release())
		} else if !errors.Is(lerr, ErrHeld) && !errors.Is(lerr, fs.ErrNotExist) {
			err = errors.Join(err, lerr)
		}
	}
	return err
}

// lock opens path with the extra open flags and locks it. A holder
// unlinks its file before unlocking it, so between our open and our
// lock the file may have left the path: a lock on that orphan excludes
// nobody, so lock retries on the file now at path.
func lock(path string, flag int) (*Lease, error) {
	for {
		f, err := lockFile(path, flag)
		if err != nil {
			return nil, err
		}
		fi, err := f.Stat()
		pi, perr := os.Stat(path)
		if err == nil && perr == nil && os.SameFile(fi, pi) {
			return &Lease{f: f}, nil
		}
		f.Close()
		if err = errors.Join(err, perr); err != nil && !errors.Is(perr, fs.ErrNotExist) {
			return nil, fmt.Errorf("lease: %w", err)
		}
	}
}

// Release unlinks the lease file while still holding its lock, then
// unlocks it by closing. Releasing twice is a no-op.
func (l *Lease) Release() error {
	if l.f == nil {
		return nil
	}
	err := errors.Join(os.Remove(l.f.Name()), l.f.Close())
	l.f = nil
	return err
}
