package core

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"glescompute/internal/codec"
	"glescompute/internal/shader"
)

// ccTestSource exercises loops, builtins and a uniform so the cached
// binary carries non-trivial structure.
const ccTestSource = `
float gc_kernel(float idx) {
	float s = u_bias;
	for (float k = 0.0; k < 8.0; k += 1.0) {
		s += floor(gc_a(idx) * 0.25 + k) * 0.5;
	}
	return s + exp(gc_a(idx) * 0.01);
}
`

var ccTestSpec = KernelSpec{
	Name:     "cc_probe",
	Inputs:   []Param{{Name: "a", Type: codec.Float32}},
	Uniforms: []string{"u_bias"},
	Source:   ccTestSource,
}

// runCCKernel builds ccTestSpec on the device, runs it over a fixed
// input, and returns the output plus the compile-phase modeled time of
// the build+run (the device timeline is reset first).
func runCCKernel(t *testing.T, d *Device) ([]float32, Timeline) {
	t.Helper()
	d.ResetTimeline()
	k, err := d.BuildKernel(ccTestSpec)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	const n = 64
	in := make([]float32, n)
	for i := range in {
		in[i] = float32(i)*0.75 - 20
	}
	ba, err := d.NewBuffer(codec.Float32, n)
	if err != nil {
		t.Fatal(err)
	}
	defer ba.Free()
	bo, err := d.NewBuffer(codec.Float32, n)
	if err != nil {
		t.Fatal(err)
	}
	defer bo.Free()
	if err := ba.WriteFloat32(in); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run1(bo, []*Buffer{ba}, map[string]float32{"u_bias": 1.5}); err != nil {
		t.Fatal(err)
	}
	out, err := bo.ReadFloat32()
	if err != nil {
		t.Fatal(err)
	}
	return out, d.Timeline()
}

// TestCompileCacheSharedAcrossDevices: the second device of a pool
// sharing one cache restores binaries instead of compiling, its modeled
// compile phase shrinks by the compile/binary-load price ratio, and its
// results stay bit-identical.
func TestCompileCacheSharedAcrossDevices(t *testing.T) {
	cc, err := NewCompileCache("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{RasterWorkers: 2, CompileCache: cc}

	d1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d1.Close()
	want, cold := runCCKernel(t, d1)
	if s := cc.Stats(); s.Stores == 0 || s.Hits() != 0 {
		t.Fatalf("cold build should only store: %+v", s)
	}

	d2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, warm := runCCKernel(t, d2)
	if s := cc.Stats(); s.MemHits == 0 {
		t.Fatalf("warm build missed the memory tier: %+v", s)
	}
	tr := d2.GL().Transfers()
	if tr.BinaryLoadCount == 0 {
		t.Fatal("warm device loaded no program binaries")
	}
	if tr.CompileCount != 0 || tr.LinkCount != 0 {
		t.Fatalf("warm device still compiled from source: %+v", tr)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: cached %v, compiled %v", i, got[i], want[i])
		}
	}
	if cold.Compile <= 0 || warm.Compile <= 0 {
		t.Fatalf("compile phases not modeled: cold %v warm %v", cold.Compile, warm.Compile)
	}
	if ratio := float64(cold.Compile) / float64(warm.Compile); ratio < 10 {
		t.Errorf("modeled compile speedup %.1fx, want >= 10x (cold %v, warm %v)", ratio, cold.Compile, warm.Compile)
	}
}

// TestCompileCacheDiskPersistence: a fresh cache object over the same
// directory (a restarted process) serves from disk.
func TestCompileCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	cc1, err := NewCompileCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Open(Config{RasterWorkers: 2, CompileCache: cc1})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := runCCKernel(t, d1)
	d1.Close()
	entries, err := filepath.Glob(filepath.Join(dir, "*.gcpb"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache entries on disk (err %v)", err)
	}

	cc2, err := NewCompileCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Open(Config{RasterWorkers: 2, CompileCache: cc2})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, _ := runCCKernel(t, d2)
	if s := cc2.Stats(); s.DiskHits == 0 {
		t.Fatalf("restart missed the disk tier: %+v", s)
	}
	if tr := d2.GL().Transfers(); tr.CompileCount != 0 {
		t.Fatalf("restart still compiled from source: %+v", tr)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: disk-cached %v, compiled %v", i, got[i], want[i])
		}
	}

	// Entries a build with the previous codegen revision stored (call-based
	// bytecode, before inlining) must miss, not restore the old programs.
	stale := t.TempDir()
	current := codegenFingerprint
	codegenFingerprint = "gc-codegen-1/bin-" + strconv.Itoa(shader.BinaryFormatVersion)
	cc3, err := NewCompileCache(stale)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := Open(Config{RasterWorkers: 2, CompileCache: cc3})
	if err != nil {
		t.Fatal(err)
	}
	runCCKernel(t, d3)
	d3.Close()
	codegenFingerprint = current
	cc4, err := NewCompileCache(stale)
	if err != nil {
		t.Fatal(err)
	}
	d4, err := Open(Config{RasterWorkers: 2, CompileCache: cc4})
	if err != nil {
		t.Fatal(err)
	}
	defer d4.Close()
	runCCKernel(t, d4)
	if s := cc4.Stats(); s.Hits() != 0 || s.Misses == 0 {
		t.Fatalf("entries stored under the previous fingerprint were served: %+v", s)
	}
	if tr := d4.GL().Transfers(); tr.CompileCount == 0 {
		t.Fatalf("stale entries restored instead of compiling from source: %+v", tr)
	}
}

// TestCompileCacheCorruptionFallsBack: flipped payload bytes fail the
// disk checksum, and a well-checksummed-but-garbage payload fails the
// program-binary restore; both fall back to a working source compile.
func TestCompileCacheCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	cc1, _ := NewCompileCache(dir)
	d1, err := Open(Config{RasterWorkers: 2, CompileCache: cc1})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := runCCKernel(t, d1)
	d1.Close()

	entries, _ := filepath.Glob(filepath.Join(dir, "*.gcpb"))
	if len(entries) == 0 {
		t.Fatal("no cache entries on disk")
	}
	for _, path := range entries {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0x5a // payload corruption behind the checksum
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cc2, _ := NewCompileCache(dir)
	d2, err := Open(Config{RasterWorkers: 2, CompileCache: cc2})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runCCKernel(t, d2)
	d2.Close()
	if s := cc2.Stats(); s.Rejects == 0 {
		t.Fatalf("corrupted entries not rejected: %+v", s)
	}
	if tr := cc2.Stats(); tr.Hits() != 0 {
		t.Fatalf("corrupted entries served: %+v", tr)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d after corruption fallback: %v, want %v", i, got[i], want[i])
		}
	}

	// A payload that checksums correctly but is not a valid program binary
	// must survive the deeper restore failure the same way.
	cc3, _ := NewCompileCache(dir)
	for _, path := range entries {
		key := strings.TrimSuffix(filepath.Base(path), ".gcpb")
		cc3.put(key, []byte("not a program binary"))
	}
	cc4, _ := NewCompileCache(dir)
	d3, err := Open(Config{RasterWorkers: 2, CompileCache: cc4})
	if err != nil {
		t.Fatal(err)
	}
	got3, _ := runCCKernel(t, d3)
	d3.Close()
	if s := cc4.Stats(); s.Rejects == 0 {
		t.Fatalf("invalid binaries not dropped after restore failure: %+v", s)
	}
	for i := range want {
		if got3[i] != want[i] {
			t.Fatalf("element %d after restore-failure fallback: %v, want %v", i, got3[i], want[i])
		}
	}
}

// TestCompileCacheEnvDefault: GLESCOMPUTE_COMPILE_CACHE wires a default
// cache into devices with no explicit Config.CompileCache; reference
// (interpreter) devices never cache (binaries carry bytecode the
// interpreter cannot run); an unusable directory fails Open with an error
// naming the variable and the path instead of silently running uncached.
func TestCompileCacheEnvDefault(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(EnvCompileCache, dir)
	d, err := Open(Config{RasterWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.CompileCache() == nil {
		t.Fatal("env-configured cache not resolved")
	}
	if d.CompileCache().Dir() != dir {
		t.Fatalf("cache dir %q, want %q", d.CompileCache().Dir(), dir)
	}
	runCCKernel(t, d)
	if entries, _ := filepath.Glob(filepath.Join(dir, "*.gcpb")); len(entries) == 0 {
		t.Fatal("env-configured cache wrote nothing")
	}

	di, err := OpenReference(Config{RasterWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	if di.CompileCache() != nil {
		t.Fatal("interpreter device must not cache binaries")
	}
	k, err := di.BuildKernel(ccTestSpec)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if di.GL().GetProgramBinary(k.passes[0].prog) != nil {
		t.Fatal("OpenReference device exported a program binary: it runs on the bytecode VM, not the interpreter")
	}

	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv(EnvCompileCache, notDir)
	bad, err := Open(Config{})
	if err == nil {
		bad.Close()
		t.Fatal("Open succeeded with the compile-cache variable naming a regular file")
	}
	if msg := err.Error(); !strings.Contains(msg, EnvCompileCache) || !strings.Contains(msg, notDir) {
		t.Fatalf("error %q must name %s and the path %q", msg, EnvCompileCache, notDir)
	}
}
