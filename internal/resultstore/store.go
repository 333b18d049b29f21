package resultstore

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"pmm/internal/rtdbs"
)

// Layout on disk, designed to be append-friendly: adding an entry never
// rewrites existing data.
//
//	<dir>/MANIFEST.json            format version, simulation epoch and
//	                               object encoding
//	<dir>/index.log                one JSON line per entry, append-only
//	<dir>/objects/<aa>/<hash>.bin  one result per key in the binary
//	                               encoding of codec.go, fanned out by
//	                               the first key byte (git-style)
//
// Object files are written to a unique temp name and renamed into
// place, and the index line is appended only after the rename, so a
// concurrent or crashed writer can never leave an index entry pointing
// at a half-written object. The manifest pins the epoch the store was
// filled under and the encoding of its objects; opening a store written
// under a different epoch or encoding evicts every entry (a stale epoch
// could never hit anyway — the epoch salts the key — but eviction
// reclaims the space and keeps the store single-epoch, and objects in
// another encoding would not decode).

// manifest pins the canonical format, the simulation epoch and the
// object encoding.
type manifest struct {
	Format  string `json:"format"`
	Epoch   string `json:"epoch"`
	Objects string `json:"objects"`
}

// indexEntry is one line of index.log.
type indexEntry struct {
	Key    string `json:"key"`
	Policy string `json:"policy"`
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Path is the store directory.
	Path string `json:"path"`
	// Entries is the number of results currently indexed.
	Entries int `json:"entries"`
	// Hits and Misses count Get outcomes since Open.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts results stored since Open; PutErrors counts store
	// writes that failed (the result is still returned to the caller —
	// a broken store degrades to pass-through, never data loss).
	Puts      int64 `json:"puts"`
	PutErrors int64 `json:"putErrors,omitempty"`
	// Evictions counts entries discarded since Open — objects of a
	// stale epoch or encoding dropped at Open plus corrupt objects
	// dropped on Get.
	Evictions int64 `json:"evictions"`
}

// Store is a concurrency-safe content-addressed result store. All
// methods may be called from multiple goroutines (the sweep engine's
// worker pool does).
type Store struct {
	dir string

	mu    sync.Mutex
	index map[Key]indexEntry
	log   *os.File
	stats Stats
}

// Open opens (creating if needed) the store rooted at dir. A store
// written under a different simulation epoch or object encoding is
// emptied, counting the dropped entries as evictions.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := &Store{dir: dir, index: make(map[Key]indexEntry)}
	s.stats.Path = dir

	current := manifest{Format: formatVersion, Epoch: rtdbs.SimEpoch, Objects: objectEncoding}
	manifestPath := filepath.Join(dir, "MANIFEST.json")
	raw, err := os.ReadFile(manifestPath)
	switch {
	case err == nil:
		var m manifest
		if jsonErr := json.Unmarshal(raw, &m); jsonErr != nil || m != current {
			if err := s.evictAll(); err != nil {
				return nil, err
			}
		} else if err := s.loadIndex(); err != nil {
			return nil, err
		}
	case os.IsNotExist(err):
		// Fresh store.
	default:
		return nil, fmt.Errorf("resultstore: %w", err)
	}

	m, err := json.Marshal(current)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	if err := os.WriteFile(manifestPath, m, 0o644); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s.log, err = os.OpenFile(filepath.Join(dir, "index.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s.stats.Entries = len(s.index)
	return s, nil
}

// Path returns the store directory.
func (s *Store) Path() string { return s.dir }

// loadIndex replays index.log. A truncated final line (crashed writer)
// is tolerated; entries whose object file has vanished are dropped.
func (s *Store) loadIndex() error {
	raw, err := os.ReadFile(filepath.Join(s.dir, "index.log"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	for len(raw) > 0 {
		nl := bytes.IndexByte(raw, '\n')
		if nl < 0 {
			break // truncated trailing line: ignore
		}
		line := raw[:nl]
		raw = raw[nl+1:]
		var e indexEntry
		if json.Unmarshal(line, &e) != nil {
			continue
		}
		kb, err := hex.DecodeString(e.Key)
		if err != nil || len(kb) != len(Key{}) {
			continue
		}
		var k Key
		copy(k[:], kb)
		if _, err := os.Stat(s.objectPath(k)); err != nil {
			continue // object vanished behind the index: drop the entry
		}
		s.index[k] = e
	}
	return nil
}

// evictAll empties the store (stale epoch or encoding): it removes
// every file under objects/, whatever its name — objects of any
// encoding and temp files a crashed writer left — and the index,
// counting one eviction per object file.
func (s *Store) evictAll() error {
	files, _ := filepath.Glob(filepath.Join(s.dir, "objects", "*", "*"))
	for _, f := range files {
		// A file that cannot be removed only wastes space: the index
		// that named it is dropped below.
		_ = os.Remove(f)
		if !strings.HasPrefix(filepath.Base(f), tempPrefix) {
			s.stats.Evictions++
		}
	}
	if err := os.Remove(filepath.Join(s.dir, "index.log")); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// tempPrefix starts the name of an object file Put has not yet renamed
// into place.
const tempPrefix = "put-"

// objectPath fans entries out by the first key byte.
func (s *Store) objectPath(k Key) string {
	hex := k.String()
	return filepath.Join(s.dir, "objects", hex[:2], hex[2:]+".bin")
}

// Get returns the stored result for key, or (nil, false) on a miss. A
// corrupt or missing object behind an index entry is evicted and
// reported as a miss, so a damaged store degrades to re-simulation
// rather than failure.
func (s *Store) Get(k Key) (*rtdbs.Results, bool) {
	s.mu.Lock()
	_, ok := s.index[k]
	s.mu.Unlock()
	if !ok {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	raw, err := os.ReadFile(s.objectPath(k))
	if err == nil {
		if res, err := decodeResults(raw); err == nil {
			s.count(func(st *Stats) { st.Hits++ })
			return res, true
		}
	}
	// Index says present but the object is unreadable: evict.
	os.Remove(s.objectPath(k))
	s.mu.Lock()
	delete(s.index, k)
	s.stats.Entries = len(s.index)
	s.stats.Evictions++
	s.stats.Misses++
	s.mu.Unlock()
	return nil, false
}

// Put stores a result under key. Storing an already-present key is a
// no-op. The object lands via temp-file + rename, then the index line
// is appended, so readers never observe a partial entry. Failures are
// counted in Stats.PutErrors as well as returned; callers holding a
// freshly simulated result should keep it and ignore the error — a
// broken store costs cache hits, never data.
func (s *Store) Put(k Key, res *rtdbs.Results) error {
	s.mu.Lock()
	_, dup := s.index[k]
	s.mu.Unlock()
	if dup {
		return nil
	}
	raw := encodeResults(nil, res)
	path := s.objectPath(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return s.putFailed(err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), tempPrefix+"*")
	if err != nil {
		return s.putFailed(err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return s.putFailed(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return s.putFailed(err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return s.putFailed(err)
	}

	e := indexEntry{Key: k.String(), Policy: res.Policy}
	line, err := json.Marshal(e)
	if err != nil {
		return s.putFailed(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.index[k]; dup {
		return nil // racing Put of the same key landed first
	}
	if _, err := s.log.Write(append(line, '\n')); err != nil {
		s.stats.PutErrors++
		return fmt.Errorf("resultstore: %w", err)
	}
	s.index[k] = e
	s.stats.Entries = len(s.index)
	s.stats.Puts++
	return nil
}

// putFailed counts and wraps a Put failure.
func (s *Store) putFailed(err error) error {
	s.count(func(st *Stats) { st.PutErrors++ })
	return fmt.Errorf("resultstore: %w", err)
}

// Close flushes the index log. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// count applies a counter update under the lock.
func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}
