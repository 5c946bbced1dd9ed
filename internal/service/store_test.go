package service

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultfs"
)

func plainStore(t *testing.T, fsys faultfs.FS) *store {
	t.Helper()
	st, err := newStore(t.TempDir(), fsys, &retrier{sleep: noSleep})
	if err != nil {
		t.Fatalf("newStore: %v", err)
	}
	return st
}

// TestWriteAtomicCrashNeverHalfVisible: for a crash at EVERY operation in the
// atomic-write sequence (create, write, sync, close, rename, dir sync), the
// target file afterwards holds either the complete old content or the
// complete new content — never a prefix — and the startup sweep leaves no
// temp residue behind.
func TestWriteAtomicCrashNeverHalfVisible(t *testing.T) {
	old := []byte(`{"state":"queued"}`)
	next := []byte(`{"state":"running","attempts":1}`)
	steps := []faultfs.Fault{
		{Op: faultfs.OpCreateTemp, N: 1, Crash: true},
		{Op: faultfs.OpWrite, PathSubstr: ".tmp-", N: 1, TornBytes: 5, Crash: true},
		{Op: faultfs.OpSync, PathSubstr: ".tmp-", N: 1, Crash: true},
		{Op: faultfs.OpClose, PathSubstr: ".tmp-", N: 1, Crash: true},
		{Op: faultfs.OpRename, PathSubstr: "state.json", N: 1, Crash: true},
		{Op: faultfs.OpSyncDir, N: 1, Crash: true},
	}
	for _, fault := range steps {
		t.Run(string(fault.Op), func(t *testing.T) {
			dir := t.TempDir()
			jd := filepath.Join(dir, "j000001")
			if err := os.MkdirAll(jd, 0o755); err != nil {
				t.Fatal(err)
			}
			target := filepath.Join(jd, "state.json")
			if err := os.WriteFile(target, old, 0o644); err != nil {
				t.Fatal(err)
			}

			inj := faultfs.NewInjector(faultfs.OS{}, fault)
			st := &store{dir: dir, fs: inj, retry: &retrier{sleep: noSleep}}
			err := st.writeAtomic(target, next)
			// Rename and dir-sync crashes may leave the NEW content visible
			// (the rename itself can have completed); everything earlier must
			// leave the OLD content. Either way: a complete version.
			got, rerr := os.ReadFile(target)
			if rerr != nil {
				t.Fatalf("target vanished after crash at %s: %v", fault.Op, rerr)
			}
			if string(got) != string(old) && string(got) != string(next) {
				t.Fatalf("half-visible artifact after crash at %s: %q", fault.Op, got)
			}
			if fault.Op != faultfs.OpSyncDir && err == nil {
				t.Fatalf("crash at %s reported no error", fault.Op)
			}

			// A fresh store's startup scan sweeps any stranded temp file.
			clean := plainStore(t, faultfs.OS{})
			clean.dir = dir
			if _, err := clean.loadAll(); err != nil {
				t.Fatalf("loadAll after crash: %v", err)
			}
			entries, _ := os.ReadDir(jd)
			for _, e := range entries {
				if strings.HasPrefix(e.Name(), ".tmp-") {
					t.Fatalf("temp residue %s survived the startup sweep", e.Name())
				}
			}
		})
	}
}

// TestWriteAtomicRetriesTransient: a transient errno mid-sequence is retried
// with a fresh temp file and succeeds; the sleep hook observes the backoff.
func TestWriteAtomicRetriesTransient(t *testing.T) {
	var slept []time.Duration
	retried := 0
	inj := faultfs.NewInjector(faultfs.OS{},
		faultfs.Fault{Op: faultfs.OpSync, PathSubstr: ".tmp-", N: 1, Err: syscall.ENOSPC},
	)
	st, err := newStore(t.TempDir(), inj, &retrier{
		sleep:   func(d time.Duration) { slept = append(slept, d) },
		onRetry: func() { retried++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(st.dir, "state.json")
	if err := st.writeAtomic(target, []byte("payload")); err != nil {
		t.Fatalf("writeAtomic did not recover from transient ENOSPC: %v", err)
	}
	if retried != 1 || len(slept) != 1 {
		t.Fatalf("retried %d times with %d sleeps, want 1 and 1", retried, len(slept))
	}
	if slept[0] <= 0 || slept[0] > retryMaxDelay {
		t.Fatalf("backoff %v outside (0, %v]", slept[0], retryMaxDelay)
	}
	if got, _ := os.ReadFile(target); string(got) != "payload" {
		t.Fatalf("target content %q after retry", got)
	}
}

// TestWriteAtomicFailsFastOnPermanent: a non-transient errno is not retried.
func TestWriteAtomicFailsFastOnPermanent(t *testing.T) {
	retried := 0
	inj := faultfs.NewInjector(faultfs.OS{},
		faultfs.Fault{Op: faultfs.OpSync, PathSubstr: ".tmp-", N: 1, Err: syscall.EACCES},
	)
	st, err := newStore(t.TempDir(), inj, &retrier{sleep: noSleep, onRetry: func() { retried++ }})
	if err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(st.dir, "state.json")
	if err := st.writeAtomic(target, []byte("x")); err == nil {
		t.Fatal("permanent EACCES reported success")
	}
	if retried != 0 {
		t.Fatalf("permanent error retried %d times", retried)
	}
	if _, err := os.Stat(target); err == nil {
		t.Fatal("failed write left a visible target")
	}
}

// TestRetryGivesUpAfterBudget: a fault on every attempt exhausts the retry
// budget and surfaces the final transient error.
func TestRetryGivesUpAfterBudget(t *testing.T) {
	calls, retries := 0, 0
	r := &retrier{sleep: noSleep, onRetry: func() { retries++ }}
	err := r.do("k", func() error {
		calls++
		return fmt.Errorf("wrapped: %w", syscall.EAGAIN)
	})
	if err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if calls != retryAttempts || retries != retryAttempts-1 {
		t.Fatalf("calls %d / retries %d, want %d / %d", calls, retries, retryAttempts, retryAttempts-1)
	}
}

// TestBackoffDelayDeterministicCappedJittered pins the backoff contract:
// same (key, attempt) → same delay; each delay sits in [d/2, d] for the
// doubling window d; the window caps at retryMaxDelay.
func TestBackoffDelayDeterministicCappedJittered(t *testing.T) {
	for attempt := 1; attempt <= 10; attempt++ {
		d1 := backoffDelay("some/path", attempt)
		d2 := backoffDelay("some/path", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: nondeterministic delay %v vs %v", attempt, d1, d2)
		}
		window := retryBaseDelay << (attempt - 1)
		if window <= 0 || window > retryMaxDelay {
			window = retryMaxDelay
		}
		if d1 < window/2 || d1 > window {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d1, window/2, window)
		}
	}
	if backoffDelay("a", 1) == backoffDelay("b", 1) &&
		backoffDelay("a", 2) == backoffDelay("b", 2) &&
		backoffDelay("a", 3) == backoffDelay("b", 3) {
		t.Fatal("jitter ignores the key: concurrent retries would stampede in lockstep")
	}
}

// TestCheckpointGenerationsRotateAndPrune: successive checkpoints produce
// ascending generations, only the newest keepCheckpoints survive, and the
// listing is newest-first.
func TestCheckpointGenerationsRotateAndPrune(t *testing.T) {
	st := plainStore(t, faultfs.OS{})
	const id = "j000001"
	if err := st.fs.MkdirAll(st.jobDir(id), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		payload := fmt.Sprintf("gen%d", i)
		err := st.saveCheckpoint(id, func(w io.Writer) error {
			_, err := w.Write([]byte(payload))
			return err
		})
		if err != nil {
			t.Fatalf("saveCheckpoint %d: %v", i, err)
		}
	}
	gens := st.checkpointGens(id)
	wantOrder := []string{"checkpoint.000005", "checkpoint.000004", "checkpoint.000003"}
	if len(gens) != len(wantOrder) {
		t.Fatalf("%d generations survive, want %d (%v)", len(gens), len(wantOrder), gens)
	}
	for i, g := range gens {
		if filepath.Base(g) != wantOrder[i] {
			t.Fatalf("generation order %v, want %v", gens, wantOrder)
		}
		want := fmt.Sprintf("gen%d", 5-i)
		if got, _ := os.ReadFile(g); string(got) != want {
			t.Fatalf("%s holds %q, want %q", filepath.Base(g), got, want)
		}
	}
	if !st.hasCheckpoint(id) {
		t.Fatal("hasCheckpoint false with generations present")
	}
}

// TestCheckpointFailureKeepsOldGenerations: when writing a new generation
// fails permanently, the previous generations are untouched.
func TestCheckpointFailureKeepsOldGenerations(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS{},
		faultfs.Fault{Op: faultfs.OpRename, PathSubstr: "checkpoint.", N: 2, Err: syscall.EACCES},
	)
	st, err := newStore(t.TempDir(), inj, &retrier{sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	const id = "j000001"
	if err := st.fs.MkdirAll(st.jobDir(id), 0o755); err != nil {
		t.Fatal(err)
	}
	save := func(p string) error {
		return st.saveCheckpoint(id, func(w io.Writer) error { _, err := w.Write([]byte(p)); return err })
	}
	if err := save("good"); err != nil {
		t.Fatalf("first checkpoint: %v", err)
	}
	if err := save("doomed"); err == nil {
		t.Fatal("faulted checkpoint reported success")
	}
	gens := st.checkpointGens(id)
	if len(gens) != 1 || filepath.Base(gens[0]) != "checkpoint.000001" {
		t.Fatalf("surviving generations %v, want only checkpoint.000001", gens)
	}
	if got, _ := os.ReadFile(gens[0]); string(got) != "good" {
		t.Fatalf("surviving generation corrupted: %q", got)
	}
}
