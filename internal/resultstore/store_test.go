package resultstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"pmm/internal/rtdbs"
)

// tinyRun executes a short real simulation, so round-trip tests cover
// the full Results surface (events, traces, per-class stats) rather
// than a synthetic subset.
func tinyRun(t *testing.T, seed int64) *rtdbs.Results {
	t.Helper()
	cfg := testConfig()
	cfg.Seed = seed
	cfg.Duration = 600
	return simulate(t, cfg)
}

func TestStoreRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cfg := testConfig()
	cfg.Duration = 600
	k := KeyFor(cfg)
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	res := tinyRun(t, cfg.Seed)
	if res.Terminated == 0 {
		t.Fatal("tiny run terminated nothing; lengthen it")
	}
	if err := s.Put(k, res); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("round-trip altered the result:\n got %+v\nwant %+v", got, res)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("counters wrong: %+v", st)
	}

	// A second Open must see the entry (index replay) and return the
	// identical result.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got2, ok := s2.Get(k)
	if !ok {
		t.Fatal("entry lost across Open")
	}
	if !reflect.DeepEqual(got2, res) {
		t.Fatal("persisted result differs")
	}
}

func TestStoreEpochEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Duration = 600
	k := KeyFor(cfg)
	if err := s.Put(k, tinyRun(t, cfg.Seed)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Forge a manifest from another epoch: reopening must evict all.
	m, _ := json.Marshal(manifest{Format: formatVersion, Epoch: "some-older-epoch", Objects: objectEncoding})
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), m, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get(k); ok {
		t.Fatal("stale-epoch entry survived")
	}
	st := s2.Stats()
	if st.Evictions != 1 || st.Entries != 0 {
		t.Fatalf("eviction counters wrong: %+v", st)
	}
}

func TestStoreCorruptObjectDegradesToMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	cfg := testConfig()
	cfg.Duration = 600
	k := KeyFor(cfg)
	res := tinyRun(t, cfg.Seed)
	full := encodeResults(nil, res)
	for name, corrupt := range map[string][]byte{
		"not json":  []byte("not json"),
		"truncated": full[:len(full)/2],
	} {
		t.Run(name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Put(k, res); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.objectPath(k), corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(k); ok {
				t.Fatal("corrupt object returned as hit")
			}
			if st := s.Stats(); st.Evictions != 1 || st.Misses != 1 || st.Entries != 0 {
				t.Fatalf("corrupt object not evicted: %+v", st)
			}
			// The entry is gone; a fresh Put must succeed and hit again.
			if err := s.Put(k, res); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(k); !ok {
				t.Fatal("re-Put after eviction missed")
			}
		})
	}
}

// TestStoreOpenEvictsParentFormat: a store an earlier build filled —
// its manifest names no object encoding, its object is JSON, and a
// crashed writer left a temp file — is emptied at Open: one eviction
// for the one object, no file left under objects/, and the store then
// serves a fresh Put.
func TestStoreOpenEvictsParentFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	dir := t.TempDir()
	cfg := testConfig()
	cfg.Duration = 600
	k := KeyFor(cfg)
	res := tinyRun(t, cfg.Seed)
	hex := k.String()
	fan := filepath.Join(dir, "objects", hex[:2])
	if err := os.MkdirAll(fan, 0o755); err != nil {
		t.Fatal(err)
	}
	obj, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"MANIFEST.json": []byte(fmt.Sprintf(`{"format":%q,"epoch":%q}`, formatVersion, rtdbs.SimEpoch)),
		"index.log":     []byte(fmt.Sprintf(`{"key":%q,"policy":%q}`+"\n", hex, res.Policy)),
		filepath.Join("objects", hex[:2], hex[2:]+".json"): obj,
		filepath.Join("objects", hex[:2], "put-12345"):     obj[:len(obj)/2],
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Evictions != 1 || st.Entries != 0 {
		t.Fatalf("parent-format store not evicted: %+v", st)
	}
	left, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*"))
	if err != nil || len(left) != 0 {
		t.Fatalf("files left under objects/: %v (%v)", left, err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("evicted entry hit")
	}
	if err := s.Put(k, res); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || !reflect.DeepEqual(got, res) {
		t.Fatalf("fresh Put after eviction: hit %v", ok)
	}
}

// TestStoreConcurrent exercises the worker-pool access pattern: many
// goroutines putting and getting distinct and overlapping keys. Run
// under -race in CI.
func TestStoreConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := tinyRun(t, 1)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				cfg := testConfig()
				cfg.Seed = int64(i % 5) // overlapping keys across goroutines
				k := KeyFor(cfg)
				if err := s.Put(k, res); err != nil {
					t.Error(err)
					return
				}
				if _, ok := s.Get(k); !ok {
					t.Errorf("goroutine %d: miss after Put", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Entries != 5 {
		t.Fatalf("want 5 distinct entries, got %+v", st)
	}
}

// TestStoreOpenDropsVanishedObjects: index entries whose object file
// disappeared (external cleanup) are dropped at Open, so Stats.Entries
// reflects what Get can actually serve.
func TestStoreOpenDropsVanishedObjects(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Duration = 600
	k := KeyFor(cfg)
	if err := s.Put(k, tinyRun(t, cfg.Seed)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.Remove(s.objectPath(k)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Entries != 0 {
		t.Fatalf("vanished object still indexed: %+v", st)
	}
	if _, ok := s2.Get(k); ok {
		t.Fatal("hit on vanished object")
	}
}
