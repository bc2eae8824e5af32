package tukey

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FileSessionStore is the persistent SessionStore: an in-memory map backed
// by an append-only log. Each mutation (put, delete, expiry sweep) appends
// one JSON line; construction replays the log and compacts it back to a
// header plus one put per live session. A console restart pointed at the
// same -session-file keeps every live session valid — the ROADMAP's "a
// restart logs everyone out" limitation, lifted.
//
// It is a log, not a whole-file snapshot, because with sliding-TTL refresh
// every console request may touch the store, and rewriting the entire
// session map per touch is O(sessions) work and an fsync on the hot path.
// An append is O(1) regardless of how many sessions are live. The file
// only shrinks at load time; a long-lived process's log grows with
// mutation count, which is the usual append-only trade and is bounded in
// practice by restart cadence.
//
// One process owns the file at a time — concurrent *stores* on one path
// would interleave appends but replay each other's tail only on reload.
// Replicas that need a truly shared store use the tukeystate plane, not a
// shared file.
type FileSessionStore struct {
	mu   sync.Mutex
	m    map[string]Session
	path string
	// pending queues serialized log records under mu; flush drains it to
	// the file under writeMu with mu released, so Gets (every console
	// request resolves its token here) never stall behind an fsync while
	// append order still matches mutation order.
	pending [][]byte
	saveErr error

	writeMu sync.Mutex
	f       *os.File // lazily opened O_APPEND handle
}

// logVersion is the append-log format version; a file whose first line
// is not a header carrying it is refused.
const logVersion = 2

// logHeader is the first line of the log.
type logHeader struct {
	Version int `json:"version"`
}

// logRecord is one appended mutation.
type logRecord struct {
	Op      string     `json:"op"` // "put" | "del" | "expire"
	Token   string     `json:"token,omitempty"`
	Session *Session   `json:"session,omitempty"`
	Before  *time.Time `json:"before,omitempty"`
}

// NewFileSessionStore opens (or creates) the store at path, replaying any
// log a previous process appended and compacting it: the rewritten file
// holds the header and one put per live session, so log growth is bounded
// by mutations since the last open, not since the file was created.
func NewFileSessionStore(path string) (*FileSessionStore, error) {
	s := &FileSessionStore{m: make(map[string]Session), path: path}
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("tukey: session file: %w", err)
	}
	if err := s.load(raw); err != nil {
		return nil, err
	}
	if err := s.compact(); err != nil {
		return nil, fmt.Errorf("tukey: session file %s: compact: %w", path, err)
	}
	return s, nil
}

// load parses raw as an append log: the version header, then one record
// per line (a header alone is a valid empty store). Anything else marks
// the file corrupt and the caller leaves it untouched — a file without
// the header is not ours to rewrite. A torn final append would also fail
// here, but the store never syncs a partial line (records are written
// whole), so a torn line means foreign writes, and silently dropping it
// could resurrect a deleted session.
func (s *FileSessionStore) load(raw []byte) error {
	corrupt := func(err error) error {
		return fmt.Errorf("tukey: session file %s is corrupt: %w", s.path, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return corrupt(fmt.Errorf("empty log"))
	}
	var hdr logHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Version != logVersion {
		return corrupt(fmt.Errorf("bad log header %q", sc.Text()))
	}
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec logRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return corrupt(err)
		}
		switch rec.Op {
		case "put":
			if rec.Session == nil {
				return corrupt(fmt.Errorf("put record without session"))
			}
			s.m[rec.Token] = *rec.Session
		case "del":
			delete(s.m, rec.Token)
		case "expire":
			if rec.Before == nil {
				return corrupt(fmt.Errorf("expire record without bound"))
			}
			for tok, sess := range s.m {
				if !sess.Expires.IsZero() && rec.Before.After(sess.Expires) {
					delete(s.m, tok)
				}
			}
		default:
			return corrupt(fmt.Errorf("unknown op %q", rec.Op))
		}
	}
	if err := sc.Err(); err != nil {
		return corrupt(err)
	}
	return nil
}

// compact rewrites the file as a fresh log (header + one put per live
// session) via temp file, fsync, rename — atomic, so a crash mid-compact
// leaves the old log intact.
func (s *FileSessionStore) compact() error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	_ = enc.Encode(logHeader{Version: logVersion})
	for tok, sess := range s.m {
		sess := sess
		_ = enc.Encode(logRecord{Op: "put", Token: tok, Session: &sess})
	}
	tmp, err := os.CreateTemp(filepath.Dir(s.path), ".sessions-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(buf.Bytes())
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// append serializes rec onto the pending queue under s.mu (which the
// caller holds), then drains the queue to disk with s.mu released. Errors
// are logged on transition and remembered (Err) rather than failing the
// session operation: losing persistence degrades to in-memory behavior,
// it does not log the current user out — but it must not do so silently,
// or the operator discovers it at the next restart.
func (s *FileSessionStore) append(rec logRecord) {
	line, err := json.Marshal(rec)
	if err != nil {
		// A Session is plain data; this cannot happen, but never drop a
		// mutation silently.
		s.noteErrLocked(err)
		return
	}
	s.pending = append(s.pending, append(line, '\n'))
	s.mu.Unlock()
	defer s.mu.Lock()

	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	// Drain everything queued — possibly including records queued by other
	// goroutines while we waited on writeMu; whoever gets here first writes
	// them in queue (= mutation) order.
	s.mu.Lock()
	batch := s.pending
	s.pending = nil
	s.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	err = s.flushLocked(batch)

	s.mu.Lock()
	s.noteErrLocked(err)
	s.mu.Unlock()
}

// noteErrLocked records a persistence error (or clears it), logging the
// failure transition. Callers hold s.mu.
func (s *FileSessionStore) noteErrLocked(err error) {
	if err != nil && s.saveErr == nil {
		log.Printf("tukey: session store %s: persistence failing, sessions will not survive a restart: %v", s.path, err)
	}
	s.saveErr = err
}

// flushLocked appends batch to the log file, opening it (with a header if
// new) on first use. Callers hold s.writeMu.
func (s *FileSessionStore) flushLocked(batch [][]byte) error {
	if s.f == nil {
		f, fresh, err := s.openAppend()
		if err != nil {
			return err
		}
		if fresh {
			hdr, _ := json.Marshal(logHeader{Version: logVersion})
			if _, err := f.Write(append(hdr, '\n')); err != nil {
				f.Close()
				return err
			}
		}
		s.f = f
	}
	var buf bytes.Buffer
	for _, line := range batch {
		buf.Write(line)
	}
	if _, err := s.f.Write(buf.Bytes()); err != nil {
		return err
	}
	return s.f.Sync()
}

// openAppend opens the log for appending, reporting whether the file is
// fresh (needs a header).
func (s *FileSessionStore) openAppend() (*os.File, bool, error) {
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o600)
	if err != nil {
		return nil, false, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, false, err
	}
	return f, st.Size() == 0, nil
}

// Err reports the most recent persistence failure, nil when the last write
// (if any) landed.
func (s *FileSessionStore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saveErr
}

// Path returns the backing file's path.
func (s *FileSessionStore) Path() string { return s.path }

// Get implements SessionStore.
func (s *FileSessionStore) Get(token string) (Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.m[token]
	return sess, ok
}

// Put implements SessionStore.
func (s *FileSessionStore) Put(token string, sess Session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[token] = sess
	s.append(logRecord{Op: "put", Token: token, Session: &sess})
}

// Delete implements SessionStore.
func (s *FileSessionStore) Delete(token string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[token]; !ok {
		return
	}
	delete(s.m, token)
	s.append(logRecord{Op: "del", Token: token})
}

// Count implements SessionStore.
func (s *FileSessionStore) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// ExpireBefore implements SessionStore.
func (s *FileSessionStore) ExpireBefore(t time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for tok, sess := range s.m {
		if !sess.Expires.IsZero() && t.After(sess.Expires) {
			delete(s.m, tok)
			n++
		}
	}
	if n > 0 {
		t := t
		s.append(logRecord{Op: "expire", Before: &t})
	}
	return n
}
