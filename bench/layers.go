package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/gles"
	"glescompute/internal/glsl"
	"glescompute/internal/shader"
)

// Layer probes time calls into one stack layer at a time, outside any
// workload's loop. Traced runs make them after the measured phase, so
// every workload reports the same per-layer speeds next to its own
// counters.

// corpusShader is one GLSL source of the front-end test corpus.
type corpusShader struct {
	name  string
	src   string
	stage glsl.ShaderStage
}

// loadCorpus reads the GLSL corpus shipped with the glsl package, under
// the repository root.
func loadCorpus(root string) ([]corpusShader, error) {
	dir := filepath.Join(root, "internal", "glsl", "testdata")
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	var out []corpusShader
	for _, p := range paths {
		stage := glsl.StageFragment
		if strings.HasSuffix(p, ".vert") {
			stage = glsl.StageVertex
		} else if !strings.HasSuffix(p, ".frag") {
			continue
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, corpusShader{name: filepath.Base(p), src: string(src), stage: stage})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no GLSL corpus under %s", dir)
	}
	return out, nil
}

// runProbes measures the GLSL front end, the bytecode compiler, the VM,
// the sampler, and buffer transfers and launch overhead on a private
// device.
func runProbes(e *env) error {
	corpus, err := loadCorpus(filepath.Dir(e.opts.benchFile))
	if err != nil {
		return err
	}
	reps := 20
	if e.opts.quick {
		reps = 2
	}

	// glsl.CompileSource and shader.Compile, per KB of source.
	var kb float64
	var front, back time.Duration
	var compiled []*shader.Compiled
	for r := 0; r < reps; r++ {
		for _, c := range corpus {
			t0 := time.Now()
			prog, errs := glsl.CompileSource(c.src, c.stage, glsl.CheckOptions{})
			t1 := time.Now()
			if err := errs.Err(); err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			code, err := shader.Compile(prog)
			t2 := time.Now()
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			e.tr.rec(0, "probe.glsl.CompileSource", 0, 0, t0, t1)
			e.tr.rec(0, "probe.shader.Compile", 0, 0, t1, t2)
			front += t1.Sub(t0)
			back += t2.Sub(t1)
			kb += float64(len(c.src)) / 1024
			if r == 0 && c.stage == glsl.StageFragment {
				compiled = append(compiled, code)
			}
		}
	}
	e.set("glsl.front_us_per_kb", us(front)/kb, "us/KB")
	e.set("shader.compile_us_per_kb", us(back)/kb, "us/KB")

	// shader.NewVM + Run over the fragment corpus (null sampler, zero
	// uniforms).
	invocations := 2000 * reps
	t0 := time.Now()
	for _, code := range compiled {
		vm := shader.NewVM(code, nil, shader.DefaultSFU)
		if err := vm.InitGlobals(); err != nil {
			return err
		}
		for i := 0; i < invocations; i++ {
			if _, err := vm.Run(); err != nil {
				return err
			}
		}
	}
	vmTime := time.Since(t0)
	e.tr.rec(0, "probe.shader.VM.Run", 0, 0, t0, t0.Add(vmTime))
	e.set("shader.vm_ns_per_invocation", float64(vmTime.Nanoseconds())/float64(invocations*len(compiled)), "ns")

	dev, err := core.Open(core.Config{})
	if err != nil {
		return err
	}
	defer dev.Close()
	if err := probeSampler(e, dev, reps); err != nil {
		return err
	}
	return probeTransfers(e, dev, reps)
}

// probeSampler times gles.Context.Sample2D on a bound 64×64 RGBA8 texture.
func probeSampler(e *env, dev *core.Device, reps int) error {
	ctx := dev.GL()
	const side = 64
	data := make([]byte, side*side*4)
	for i := range data {
		data[i] = byte(i * 7)
	}
	tex := ctx.CreateTexture()
	defer ctx.DeleteTexture(tex)
	ctx.ActiveTexture(gles.TEXTURE0)
	ctx.BindTexture(gles.TEXTURE_2D, tex)
	ctx.TexImage2D(gles.TEXTURE_2D, 0, gles.RGBA, side, side, 0, gles.RGBA, gles.UNSIGNED_BYTE, data)
	ctx.TexParameteri(gles.TEXTURE_2D, gles.TEXTURE_MIN_FILTER, gles.NEAREST)
	ctx.TexParameteri(gles.TEXTURE_2D, gles.TEXTURE_MAG_FILTER, gles.NEAREST)
	if e := ctx.GetError(); e != gles.NO_ERROR {
		return fmt.Errorf("sampler probe: GL error 0x%04x", e)
	}
	n := 0
	var sink float32
	t0 := time.Now()
	for r := 0; r < 25*reps; r++ {
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				c := ctx.Sample2D(0, (float32(x)+0.5)/side, (float32(y)+0.5)/side)
				sink += c[0]
				n++
			}
		}
	}
	d := time.Since(t0)
	e.tr.rec(0, "probe.gles.Context.Sample2D", 0, 0, t0, t0.Add(d))
	if sink < 0 {
		return fmt.Errorf("sampler probe: impossible negative sample")
	}
	e.set("gles.sample2d_ns", float64(d.Nanoseconds())/float64(n), "ns")
	return nil
}

// probeTransfers times Buffer uploads and readbacks of 64 Ki int32 and the
// launch overhead of a one-element Kernel.Run1.
func probeTransfers(e *env, dev *core.Device, reps int) error {
	const n = 1 << 16
	buf, err := dev.NewBuffer(codec.Int32, n)
	if err != nil {
		return err
	}
	defer buf.Free()
	host := make([]int32, n)
	for i := range host {
		host[i] = int32(i)
	}
	var up, down time.Duration
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := buf.WriteInt32(host); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := buf.ReadInt32(); err != nil {
			return err
		}
		t2 := time.Now()
		e.tr.rec(0, "probe.core.Buffer.WriteInt32", 0, 0, t0, t1)
		e.tr.rec(0, "probe.core.Buffer.ReadInt32", 0, 0, t1, t2)
		up += t1.Sub(t0)
		down += t2.Sub(t1)
	}
	mb := float64(4*n*reps) / 1e6
	e.set("core.upload_mb_per_s", mb/up.Seconds(), "MB/s")
	e.set("core.readback_mb_per_s", mb/down.Seconds(), "MB/s")

	one, err := dev.NewBuffer(codec.Float32, 1)
	if err != nil {
		return err
	}
	defer one.Free()
	out, err := dev.NewBuffer(codec.Float32, 1)
	if err != nil {
		return err
	}
	defer out.Free()
	k, err := dev.BuildKernel(core.KernelSpec{
		Name:   "probe-copy",
		Inputs: []core.Param{{Name: "a", Type: codec.Float32}},
		Source: `float gc_kernel(float idx) { return gc_a(idx); }`,
	})
	if err != nil {
		return err
	}
	defer k.Close()
	var launches []float64
	for r := 0; r <= 10*reps; r++ {
		t0 := time.Now()
		_, err := k.Run1(out, []*core.Buffer{one}, nil)
		t1 := time.Now()
		if err != nil {
			return err
		}
		e.tr.rec(0, "probe.core.Kernel.Run1", 0, 0, t0, t1)
		if r > 0 { // r == 0 warms
			launches = append(launches, us(t1.Sub(t0)))
		}
	}
	e.set("core.launch_overhead_us", medianOf(launches), "us")
	return nil
}

// profClasses are the stack layers whose CPU self-time share is reported.
var profClasses = []string{"glsl", "shader", "gles", "raster", "codec", "core", "nn", "sched", "runtime", "other"}

// setProfile reports each layer's share of the CPU profile's self time,
// aggregated by package from `go tool pprof -top`.
func (e *env) setProfile(path string) error {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0",
		"-nodecount=1000000", "-symbolize=none", path).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	share, err := profileShares(out)
	if err != nil {
		return err
	}
	for _, c := range profClasses {
		e.set("prof."+c+"_pct", share[c], "%")
	}
	return nil
}

// profileShares sums the flat% column of `pprof -top` output per layer.
func profileShares(top []byte) (map[string]float64, error) {
	share := map[string]float64{}
	rows := false
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top row %q: %w", sc.Text(), err)
		}
		share[layerOf(f[5])] += pct
	}
	if !rows {
		return nil, fmt.Errorf("pprof -top printed no table")
	}
	return share, sc.Err()
}

// layerOf maps a symbol ("glescompute/internal/shader.(*VM).exec") to the
// stack layer of its package.
func layerOf(sym string) string {
	pkg := sym
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "glescompute/internal/"):
		name := strings.TrimPrefix(pkg, "glescompute/internal/")
		for _, c := range profClasses {
			if c == name {
				return c
			}
		}
	}
	return "other"
}
