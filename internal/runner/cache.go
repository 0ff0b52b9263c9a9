package runner

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/sim"
)

// SchemaVersion namespaces cache entries. Bump it whenever the result
// layout or simulator semantics change so stale entries are ignored
// rather than misread; the config hash already covers configuration
// fields themselves (a Config gaining a field changes every key).
//
// v2: stats.Stats gained the CPI-stack attribution fields (CPIStack,
// CPICycles and the credit counters). Attribution is always on and not
// a Config knob, so runs within v2 hash identically whether or not
// anything reads the stack; v1 entries (which would decode with a zero
// CPICycles, the audit's unattributed marker) are retired wholesale.
const SchemaVersion = 2

// ConfigKey returns the stable content hash naming cfg in the
// persistent cache: a SHA-256 of the canonically-serialized
// configuration under the current schema version. Two configs hash
// equal exactly when every field (machine, OS policy, workloads,
// seeds, TEMPO switches, …) is equal.
func ConfigKey(cfg sim.Config) (string, error) {
	// "tempo" and "" both name the default machine (translation.New),
	// so both spellings get the key of the empty, omitted field.
	if cfg.Mech == "tempo" {
		cfg.Mech = ""
	}
	// JSON of a struct is deterministic: fields serialize in
	// declaration order, maps are not part of Config.
	blob, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("runner: hashing config: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "tempo-result-v%d\n", SchemaVersion)
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// DiskCache persists simulation results under a directory, one
// gob-encoded file per config hash:
//
//	<dir>/v<SchemaVersion>/<hh>/<hash>.gob
//
// where <hh> is the first hash byte (fanout keeps directories small
// for full-scale sweeps). Writes are atomic (temp file + rename), so
// concurrent workers and even concurrent processes sharing a cache
// directory never observe torn entries. Corrupt or unreadable entries
// degrade to misses.
type DiskCache struct {
	dir string

	// staleVersions are other v* schema roots found under the cache
	// directory at open time, with staleEntries total entries between
	// them — a populated cache written by a different engine version,
	// which this version cannot read (keys are version-prefixed).
	staleVersions []int
	staleEntries  int
	// decodeFailures counts entries that existed under the current
	// schema root but failed to gob-decode (corrupt, or a result-layout
	// change without a SchemaVersion bump).
	decodeFailures atomic.Uint64
}

// NewDiskCache opens (creating if needed) a cache rooted at dir.
func NewDiskCache(dir string) (*DiskCache, error) {
	root := filepath.Join(dir, fmt.Sprintf("v%d", SchemaVersion))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	c := &DiskCache{dir: root}
	c.scanStale(dir)
	return c, nil
}

// scanStale inventories sibling v* schema roots so lookups against a
// cache populated by a different engine version are surfaced as a
// schema mismatch instead of silently missing on every key.
func (c *DiskCache) scanStale(root string) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "v") {
			continue
		}
		ver, err := strconv.Atoi(e.Name()[1:])
		if err != nil || ver == SchemaVersion {
			continue
		}
		n := countGobs(filepath.Join(root, e.Name()))
		if n > 0 {
			c.staleVersions = append(c.staleVersions, ver)
			c.staleEntries += n
		}
	}
	sort.Ints(c.staleVersions)
}

// countGobs counts .gob entries under dir.
func countGobs(dir string) int {
	n := 0
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(path) == ".gob" {
			n++
		}
		return nil
	})
	return n
}

// Stale reports the foreign schema versions present under the cache
// root and how many entries they hold — entries this engine version
// ignores. Empty/zero for a cache written only by the current schema.
func (c *DiskCache) Stale() (versions []int, entries int) {
	return c.staleVersions, c.staleEntries
}

// DecodeFailures counts Get calls that found an entry under the
// current schema root but could not decode it. Each one degraded to a
// miss (and will be overwritten by the re-run's Put).
func (c *DiskCache) DecodeFailures() uint64 { return c.decodeFailures.Load() }

// Dir returns the versioned cache root.
func (c *DiskCache) Dir() string { return c.dir }

func (c *DiskCache) path(key string) string {
	fan := "xx"
	if len(key) >= 2 {
		fan = key[:2]
	}
	return filepath.Join(c.dir, fan, key+".gob")
}

// Get loads the result stored under key, reporting whether it exists
// and decoded cleanly.
func (c *DiskCache) Get(key string) (*sim.Result, bool) {
	f, err := os.Open(c.path(key))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	var res sim.Result
	if err := gob.NewDecoder(f).Decode(&res); err != nil {
		c.decodeFailures.Add(1)
		return nil, false
	}
	return &res, true
}

// Put stores res under key atomically.
func (c *DiskCache) Put(key string, res *sim.Result) error {
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("runner: cache put: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("runner: cache put: %w", err)
	}
	if err := gob.NewEncoder(tmp).Encode(res); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache put: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache put: %w", err)
	}
	return nil
}

// Len counts the entries currently stored (walks the directory; meant
// for tests and end-of-run reporting, not hot paths).
func (c *DiskCache) Len() int {
	n := 0
	filepath.Walk(c.dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(path) == ".gob" {
			n++
		}
		return nil
	})
	return n
}
