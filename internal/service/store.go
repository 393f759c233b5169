package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the service's durability layer: an append-only JSONL journal
// under Config.StoreDir that records every accepted submission and every
// terminal outcome. Each append is fsynced
// before the triggering operation acknowledges, so a daemon that is
// SIGKILLed and restarted against the same directory loses no accepted job:
// finished results (and their exact bytes) are served from the journal, and
// jobs that were queued or running at the kill are re-enqueued under their
// original IDs and re-run — deterministically to the same bytes.
//
// The journal is a log, not a database: recovery replays it from the top,
// later records superseding earlier ones, and a torn final line (the
// append the crash interrupted) is ignored.

// storeJournalName is the journal file inside Config.StoreDir.
const storeJournalName = "journal.jsonl"

// storeRecord is one journal line. Kind selects which fields are meaningful:
//
//	job      ID, Key, Graph, Priority, At, and either Problem (canonical
//	         encoding) or, for a cache hit served from a journaled result,
//	         State done (recovery reads the bytes from the key's result)
//	result   ID, Key, State (done/failed/canceled), Result, Summary, Total, Error, At
//	cancel   ID, At
//
// Older journals also hold "hint" records (a scalar winner's combination
// rank, written before scalar jobs walked ranked) and "frontier" records (a
// Pareto result's members as warm-start seeds, written before Pareto runs
// pruned against their own frontier only); recovery skips them like any
// other kind it does not know.
type storeRecord struct {
	Kind     string          `json:"kind"`
	ID       string          `json:"id,omitempty"`
	Key      string          `json:"key,omitempty"`
	Graph    string          `json:"graph,omitempty"`
	Priority int             `json:"priority,omitempty"`
	Problem  json.RawMessage `json:"problem,omitempty"`
	At       time.Time       `json:"at,omitzero"`
	State    State           `json:"state,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Summary  string          `json:"summary,omitempty"`
	Total    int             `json:"total,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// jobStore owns the journal file handle. Appends are serialized by its own
// mutex. Submit, Cancel and run also hold the Server's mutex across their
// appends, fsync included: journal order must be the order in which jobs
// were accepted and finished, since recovery rebuilds the job order and the
// ID sequence from it.
type jobStore struct {
	mu sync.Mutex
	f  *os.File

	appends atomic.Int64 // records appended and synced
	bytes   atomic.Int64 // bytes those records took, newlines included
}

// openJobStore opens (creating as needed) the journal under dir and replays
// its existing records.
func openJobStore(dir string) (*jobStore, []storeRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("service: store dir: %w", err)
	}
	path := filepath.Join(dir, storeJournalName)
	recs, err := replayJournal(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: opening store journal: %w", err)
	}
	return &jobStore{f: f}, recs, nil
}

// replayJournal reads every decodable record in order, whatever its
// length: replay holds every record in memory anyway, so a line cap would
// bound nothing and only make long records unrecoverable. Decoding stops at
// the first malformed line, which is the torn tail of an interrupted
// append — everything before it was fsynced whole.
func replayJournal(path string) ([]storeRecord, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: reading store journal: %w", err)
	}
	defer f.Close()
	var recs []storeRecord
	r := bufio.NewReaderSize(f, 64<<10)
	for {
		line, rerr := r.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return nil, fmt.Errorf("service: reading store journal: %w", rerr)
		}
		if line = bytes.TrimSpace(line); len(line) > 0 {
			var rec storeRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				break // torn tail from an interrupted append
			}
			recs = append(recs, rec)
		}
		if rerr == io.EOF {
			break
		}
	}
	return recs, nil
}

// Append writes one record and fsyncs it. Callers must not acknowledge the
// recorded operation (202 a submission, serve a result as durable) before
// Append returns.
func (st *jobStore) Append(rec storeRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, err := st.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("service: appending store journal: %w", err)
	}
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("service: syncing store journal: %w", err)
	}
	st.appends.Add(1)
	st.bytes.Add(int64(len(data) + 1))
	return nil
}

func (st *jobStore) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.f.Close()
}
