package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/sim"
)

// journalRecord is one line of the coordinator's journal (SERVICE.md
// documents the format). "submit" records carry the full configuration
// so a restarted coordinator can re-enqueue unfinished jobs; "state"
// records append lifecycle transitions. Replay folds the two into the
// job table: a job with no terminal state record was unfinished when
// the process stopped and is re-queued.
type journalRecord struct {
	Op       string      `json:"op"` // "submit" or "state"
	ID       string      `json:"id"`
	Seq      uint64      `json:"seq,omitempty"`
	Tenant   string      `json:"tenant,omitempty"`
	Priority int         `json:"priority,omitempty"`
	Hash     string      `json:"hash,omitempty"`
	Key      string      `json:"key,omitempty"`
	Base     string      `json:"base,omitempty"`
	Config   *sim.Config `json:"config,omitempty"`
	State    State       `json:"state,omitempty"`
	CacheHit bool        `json:"cacheHit,omitempty"`
	Err      string      `json:"err,omitempty"`
	WallMS   float64     `json:"wall_ms,omitempty"`
	T        time.Time   `json:"t"`
}

// journal appends records to a JSONL file, syncing after submissions
// and terminal transitions so an accepted job survives a crash. It is
// safe for concurrent use (the coordinator already serialises writes
// under its own lock, but the journal does not rely on that).
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal opens (creating if needed) the journal at path for
// appending. A torn tail (a last line without its newline) gets one,
// so the next record starts a line of its own instead of extending the
// torn one into a line replay cannot parse.
func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	if err := endLine(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	return &journal{f: f}, nil
}

// endLine appends a newline to f unless f is empty or ends with one.
func endLine(f *os.File) error {
	fi, err := f.Stat()
	if err != nil || fi.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, fi.Size()-1); err != nil || last[0] == '\n' {
		return err
	}
	_, err = f.Write([]byte{'\n'})
	return err
}

// append writes one record. sync forces the line to stable storage —
// used for submissions and terminal states; the "running" transition
// is advisory (replay ignores it), so it skips the fsync.
func (jl *journal) append(rec journalRecord, sync bool) error {
	if jl == nil {
		return nil
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: journal: %w", err)
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if _, err := jl.f.Write(append(blob, '\n')); err != nil {
		return fmt.Errorf("service: journal: %w", err)
	}
	if sync {
		if err := jl.f.Sync(); err != nil {
			return fmt.Errorf("service: journal: %w", err)
		}
	}
	return nil
}

// Close flushes and closes the journal file. Nil-safe.
func (jl *journal) Close() error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.f.Sync()
	return jl.f.Close()
}

// readJournal loads every parseable record from path, in order. A
// missing file is an empty journal. An unparsable line — the torn tail
// of a crashed write, which openJournal ends with a newline — is
// skipped rather than failing the replay: a strict prefix of a record
// never parses, so nothing it held is misread, and the records a
// restarted coordinator appended after it still replay.
func readJournal(path string) ([]journalRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	defer f.Close()
	var recs []journalRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24) // configs can be large
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // a torn tail
		}
		recs = append(recs, rec)
	}
	return recs, nil
}
