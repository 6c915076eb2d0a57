package core

// Persistent compile cache (DESIGN.md §6j). Shader compilation dominates
// cold-start on the modeled device: every program costs 2×4 ms front-end
// plus 2 ms link under the vc4 timing model, and a service pool opening
// four devices recompiles the same kernels four times. The cache keys the
// *generated program text* — which deterministically encodes the
// KernelSpec (via generateFragmentShader) and the codegen revision — and
// stores the gles program binary (serialized bytecode, see
// internal/shader/serialize.go). A hit restores through
// Context.ProgramBinary at the modeled binary-load price (200 µs) instead of
// compiling, and restored programs execute the identical bytecode, so
// results and per-draw shader statistics are bit-for-bit unchanged.
//
// Two tiers: an in-memory map shared by every device holding the same
// *CompileCache (a pool warms from its first device's compiles), and an
// optional on-disk directory (a restarted process warms from a previous
// run). Disk entries are checksummed; corruption, truncation or a format
// version bump fail closed into a normal source compile and the bad entry
// is dropped.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"glescompute/internal/shader"
)

// EnvCompileCache names the environment variable holding the persistent
// compile-cache directory. Devices whose Config.CompileCache is nil share
// one process-wide cache per directory named here; unset means no cache.
const EnvCompileCache = "GLESCOMPUTE_COMPILE_CACHE"

// codegenFingerprint versions everything between the KernelSpec and the
// stored binary that the program text does not itself capture: the shader
// serialization format and the codegen/specializer revision. Bump the
// suffix when compilation output changes for identical source; stale disk
// entries then miss on key and age out. (2: the bytecode compiler inlines
// small functions.)
var codegenFingerprint = "gc-codegen-2/bin-" + strconv.Itoa(shader.BinaryFormatVersion)

// CompileCacheStats counts cache traffic since creation.
type CompileCacheStats struct {
	MemHits  uint64 // served from the in-memory tier
	DiskHits uint64 // served from disk (and promoted to memory)
	Misses   uint64 // not found; caller compiled from source
	Stores   uint64 // entries written after a source compile
	Rejects  uint64 // entries dropped: checksum/restore failure
}

// Hits returns the total entries served from either tier.
func (s CompileCacheStats) Hits() uint64 { return s.MemHits + s.DiskHits }

// CompileCache is a two-tier (memory + optional disk) program-binary
// cache. Safe for concurrent use by multiple devices. The zero value is
// not usable; construct with NewCompileCache.
type CompileCache struct {
	mu    sync.Mutex
	mem   map[string][]byte
	dir   string // "" = memory-only
	stats CompileCacheStats
}

// NewCompileCache creates a cache. dir is the persistence directory
// (created if missing); an empty dir makes a memory-only cache, which
// still de-duplicates compiles across every device sharing the object.
func NewCompileCache(dir string) (*CompileCache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("core: compile cache: %w", err)
		}
	}
	return &CompileCache{mem: map[string][]byte{}, dir: dir}, nil
}

// Stats returns a snapshot of the traffic counters.
func (c *CompileCache) Stats() CompileCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Dir returns the persistence directory ("" for memory-only).
func (c *CompileCache) Dir() string { return c.dir }

// programKey derives the content key for a VS/FS pair. The fragment text
// is the output of generateFragmentShader, so it subsumes
// KernelSpec.CacheKey (name, formats, lanes, fusion flags all change the
// text); codegenFingerprint folds in the serialization format version.
func programKey(vsSrc, fsSrc string) string {
	h := sha256.New()
	h.Write([]byte(codegenFingerprint))
	h.Write([]byte{0})
	h.Write([]byte(vsSrc))
	h.Write([]byte{0})
	h.Write([]byte(fsSrc))
	return hex.EncodeToString(h.Sum(nil))
}

// entryPath maps a key to its disk file.
func (c *CompileCache) entryPath(key string) string {
	return filepath.Join(c.dir, key+".gcpb")
}

// diskMagic heads every cache file, followed by the 32-byte SHA-256 of
// the payload, then the payload (the gles program-binary container).
var diskMagic = []byte("GCC1")

// get returns the cached blob for key, or nil. Disk hits are verified
// against their checksum and promoted to the memory tier; undecodable
// files are deleted and counted as rejects.
func (c *CompileCache) get(key string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if blob, ok := c.mem[key]; ok {
		c.stats.MemHits++
		return blob
	}
	if c.dir == "" {
		c.stats.Misses++
		return nil
	}
	raw, err := os.ReadFile(c.entryPath(key))
	if err != nil {
		c.stats.Misses++
		return nil
	}
	if len(raw) < len(diskMagic)+sha256.Size || string(raw[:len(diskMagic)]) != string(diskMagic) {
		c.rejectLocked(key)
		return nil
	}
	sum := raw[len(diskMagic) : len(diskMagic)+sha256.Size]
	blob := raw[len(diskMagic)+sha256.Size:]
	if got := sha256.Sum256(blob); string(got[:]) != string(sum) {
		c.rejectLocked(key)
		return nil
	}
	c.mem[key] = blob
	c.stats.DiskHits++
	return blob
}

// put stores a freshly compiled program's binary in both tiers. The disk
// write is atomic (temp file + rename) so a crash never leaves a torn
// entry; write errors are ignored — the cache is an accelerator, never a
// correctness dependency.
func (c *CompileCache) put(key string, blob []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem[key] = blob
	c.stats.Stores++
	if c.dir == "" {
		return
	}
	sum := sha256.Sum256(blob)
	raw := make([]byte, 0, len(diskMagic)+sha256.Size+len(blob))
	raw = append(raw, diskMagic...)
	raw = append(raw, sum[:]...)
	raw = append(raw, blob...)
	tmp, err := os.CreateTemp(c.dir, ".gcpb-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(name)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, c.entryPath(key)); err != nil {
		os.Remove(name)
	}
}

// drop evicts key from both tiers — called when a restore from the blob
// failed (corruption that decoded structurally, a version mismatch), so
// the next build recompiles and overwrites.
func (c *CompileCache) drop(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rejectLocked(key)
}

func (c *CompileCache) rejectLocked(key string) {
	delete(c.mem, key)
	if c.dir != "" {
		os.Remove(c.entryPath(key))
	}
	c.stats.Rejects++
}

// envCaches shares one CompileCache per EnvCompileCache directory across
// the process, so devices opened independently (pools, tests, examples)
// still warm each other's memory tier.
var (
	envCacheMu sync.Mutex
	envCaches  = map[string]*CompileCache{}
)

// envCompileCache resolves the environment-configured cache: nil when
// the variable is unset, an error naming the variable and the path when
// the directory is unusable (a typo would otherwise silently cost every
// cold start its cache).
func envCompileCache() (*CompileCache, error) {
	dir := os.Getenv(EnvCompileCache)
	if dir == "" {
		return nil, nil
	}
	envCacheMu.Lock()
	defer envCacheMu.Unlock()
	if cc, ok := envCaches[dir]; ok {
		return cc, nil
	}
	cc, err := NewCompileCache(dir)
	if err != nil {
		return nil, fmt.Errorf("core: %s=%q: %w", EnvCompileCache, dir, err)
	}
	envCaches[dir] = cc
	return cc, nil
}
