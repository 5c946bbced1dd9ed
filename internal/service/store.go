package service

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/aig"
	"repro/internal/aiger"
	"repro/internal/faultfs"
)

// On-disk layout, one directory per job under the manager's root:
//
//	<dir>/<id>/spec.json        the normalized JobSpec
//	<dir>/<id>/circuit          the submitted circuit, verbatim
//	<dir>/<id>/checkpoint.NNNNNN  core.Session checkpoint generations
//	<dir>/<id>/state.json       last persisted lifecycle state
//	<dir>/<id>/result.aag       the optimized circuit, once done
//
// Every file is written via temp-file + rename with an fsync of the file
// before the rename and an fsync of the parent directory after it, so a
// crash at any instant leaves either the old or the new version durable,
// never a torn or half-visible one. Checkpoints are kept as the last
// keepCheckpoints generations (checkpoint.000001, .000002, ...): restore
// tries the newest first and falls back generation by generation on
// corruption, so one torn or rotted checkpoint never loses a job. A job
// whose state.json is missing or non-terminal is re-enqueued at startup —
// unless it has crash-looped through too many recovery attempts, in which
// case it is quarantined (see Manager). All filesystem traffic flows
// through a faultfs.FS so the chaos tests can torture these exact paths.

// persistedState is the state.json payload.
type persistedState struct {
	State    State   `json:"state"`
	Error    string  `json:"error,omitempty"`
	TimedOut bool    `json:"timed_out,omitempty"`
	Reason   string  `json:"reason,omitempty"`
	FinalErr float64 `json:"final_error,omitempty"`
	// Attempts counts recovery attempts since the last successful
	// checkpoint; the startup rescan quarantines a job beyond the limit.
	Attempts int `json:"attempts,omitempty"`
}

// keepCheckpoints is how many checkpoint generations survive pruning.
const keepCheckpoints = 3

type store struct {
	dir   string
	fs    faultfs.FS
	retry *retrier
}

func newStore(dir string, fsys faultfs.FS, retry *retrier) (*store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: creating job dir: %w", err)
	}
	return &store{dir: dir, fs: fsys, retry: retry}, nil
}

func (st *store) jobDir(id string) string { return filepath.Join(st.dir, id) }

// writeAtomic writes data to path via a temp file in the same directory,
// fsyncs it, renames it into place and fsyncs the directory (the shared
// faultfs.WriteAtomic primitive), retrying the whole sequence on transient
// errnos. A failure leaves the target file untouched (old version or absent)
// and no temp residue.
func (st *store) writeAtomic(path string, data []byte) error {
	return st.retry.do(path, func() error {
		return faultfs.WriteAtomic(st.fs, path, data)
	})
}

// createJob persists a new job's spec and circuit.
func (st *store) createJob(id string, spec JobSpec, circuit []byte) error {
	dir := st.jobDir(id)
	if err := st.fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	specJSON, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	if err := st.writeAtomic(filepath.Join(dir, "spec.json"), specJSON); err != nil {
		return err
	}
	if err := st.writeAtomic(filepath.Join(dir, "circuit"), circuit); err != nil {
		return err
	}
	return st.saveState(id, persistedState{State: StateQueued})
}

func (st *store) saveState(id string, ps persistedState) error {
	data, err := json.Marshal(ps)
	if err != nil {
		return err
	}
	return st.writeAtomic(filepath.Join(st.jobDir(id), "state.json"), data)
}

func (st *store) loadCircuit(id string) ([]byte, error) {
	return st.fs.ReadFile(filepath.Join(st.jobDir(id), "circuit"))
}

// --- checkpoint generations ------------------------------------------------

const ckptPrefix = "checkpoint"

// checkpointSeqs lists the sequence numbers of the job's checkpoint
// generations, newest first.
func (st *store) checkpointSeqs(id string) []int {
	entries, err := st.fs.ReadDir(st.jobDir(id))
	if err != nil {
		return nil
	}
	var seqs []int
	for _, e := range entries {
		if rest, ok := strings.CutPrefix(e.Name(), ckptPrefix+"."); ok {
			if n, err := strconv.Atoi(rest); err == nil && n > 0 {
				seqs = append(seqs, n)
			}
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(seqs)))
	return seqs
}

// checkpointGens lists the paths of the job's checkpoint generations,
// newest first.
func (st *store) checkpointGens(id string) []string {
	var out []string
	for _, n := range st.checkpointSeqs(id) {
		out = append(out, filepath.Join(st.jobDir(id), ckptGenName(n)))
	}
	return out
}

func ckptGenName(n int) string { return fmt.Sprintf("%s.%06d", ckptPrefix, n) }

func (st *store) hasCheckpoint(id string) bool {
	return len(st.checkpointGens(id)) > 0
}

// saveCheckpoint snapshots the session into a fresh checkpoint generation
// (temp file, fsync, rename, fsync dir — under transient-errno retry), then
// prunes generations beyond keepCheckpoints. Pruning failures are ignored:
// an extra old generation is harmless, a failed new one is not.
func (st *store) saveCheckpoint(id string, snapshot func(w io.Writer) error) error {
	dir := st.jobDir(id)
	next := 1
	if seqs := st.checkpointSeqs(id); len(seqs) > 0 {
		next = seqs[0] + 1
	}
	target := filepath.Join(dir, ckptGenName(next))
	err := st.retry.do(target, func() error {
		tmp, err := st.fs.CreateTemp(dir, ".ckpt-*")
		if err != nil {
			return err
		}
		name := tmp.Name()
		cleanup := func() { _ = st.fs.Remove(name) }
		if err := snapshot(tmp); err != nil {
			tmp.Close()
			cleanup()
			return err
		}
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			cleanup()
			return err
		}
		if err := tmp.Close(); err != nil {
			cleanup()
			return err
		}
		if err := st.fs.Rename(name, target); err != nil {
			cleanup()
			return err
		}
		return st.fs.SyncDir(dir)
	})
	if err != nil {
		return err
	}
	if gens := st.checkpointGens(id); len(gens) > keepCheckpoints {
		for _, old := range gens[keepCheckpoints:] {
			_ = st.fs.Remove(old)
		}
	}
	return nil
}

func (st *store) saveResult(id string, g *aig.Graph) error {
	var buf strings.Builder
	if err := aiger.Write(&buf, g, "aag"); err != nil {
		return err
	}
	return st.writeAtomic(filepath.Join(st.jobDir(id), "result.aag"), []byte(buf.String()))
}

func (st *store) loadResult(id string) (*aig.Graph, error) {
	f, err := st.fs.Open(filepath.Join(st.jobDir(id), "result.aag"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return aiger.Read(f)
}

// storedJob is one job recovered from disk at startup.
type storedJob struct {
	id            string
	spec          JobSpec
	state         persistedState
	hasCheckpoint bool
}

// loadAll scans the job directory and returns every persisted job sorted by
// id (ids are zero-padded sequence numbers, so lexical order is submission
// order). Stale temp files from writes interrupted by a crash — never
// renamed into place, so never visible as artifacts — are swept out here.
func (st *store) loadAll() ([]storedJob, error) {
	entries, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var out []storedJob
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "j") {
			continue
		}
		id := e.Name()
		st.sweepTemps(id)
		specData, err := st.fs.ReadFile(filepath.Join(st.jobDir(id), "spec.json"))
		if err != nil {
			continue // torn submission: spec.json is written first, skip
		}
		var spec JobSpec
		if err := json.Unmarshal(specData, &spec); err != nil {
			continue
		}
		sj := storedJob{id: id, spec: spec, hasCheckpoint: st.hasCheckpoint(id)}
		if data, err := st.fs.ReadFile(filepath.Join(st.jobDir(id), "state.json")); err == nil {
			_ = json.Unmarshal(data, &sj.state)
		}
		if sj.state.State == "" {
			sj.state.State = StateQueued
		}
		out = append(out, sj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out, nil
}

// sweepTemps removes interrupted-write residue (.tmp-*, .ckpt-*) from a job
// directory. Errors are ignored: a leftover temp file is invisible to every
// reader, sweeping is pure hygiene.
func (st *store) sweepTemps(id string) {
	entries, err := st.fs.ReadDir(st.jobDir(id))
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ".tmp-") || strings.HasPrefix(name, ".ckpt-") {
			_ = st.fs.Remove(filepath.Join(st.jobDir(id), name))
		}
	}
}

// nextID returns the next job id after the highest one present on disk.
func (st *store) nextID(loaded []storedJob) int {
	next := 1
	for _, sj := range loaded {
		if n, err := strconv.Atoi(strings.TrimPrefix(sj.id, "j")); err == nil && n >= next {
			next = n + 1
		}
	}
	return next
}

func formatID(n int) string { return fmt.Sprintf("j%06d", n) }
