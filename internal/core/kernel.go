package core

import (
	"fmt"
	"strings"
	"sync"

	"glescompute/internal/codec"
	"glescompute/internal/gles"
)

// Param describes one kernel input buffer. Type is its whole storage
// descriptor: a packed type (codec.Int8x4) additionally provides a
// whole-texel accessor to the kernel source (see KernelSpec).
type Param struct {
	Name string
	Type codec.ElemType
}

// OutputSpec describes one kernel output. A kernel with multiple outputs
// is compiled into one fragment-shader pass per output (challenge #8: a
// fragment shader has a single color output in ES 2.0).
type OutputSpec struct {
	Name string
	Type codec.ElemType
}

// KernelSpec declares a compute kernel. Source is GLSL ES 1.00 code that
// must define, for every output O, a function
//
//	float gc_kernel_<O>(float idx)
//
// (or a single `float gc_kernel(float idx)` when there is exactly one
// output named "out"). Inside the source, each input buffer I provides:
//
//	float gc_<I>(float idx)          — linear-indexed element fetch
//	float gc_<I>_at(float col, float row) — 2D element fetch
//	uniform vec2 gc_<I>_dims         — its texture dimensions
//
// plus `uniform float gc_out_n` (output element count), the varying
// `v_uv` (normalized position over the output grid) and any uniforms
// declared in Uniforms.
//
// Packed 4-lane inputs (Type codec.Int8x4) additionally provide
//
//	vec4 gc_<I>4(float tidx)         — whole-texel fetch (4 lanes, texel index)
//
// and the scalar gc_<I>(idx) accessor selects the lane of texel idx/4.
//
// A kernel whose outputs are Int8x4 computes four consecutive elements per
// fragment: its kernel function takes the OUTPUT TEXEL index and returns
// all four lanes,
//
//	vec4 gc_kernel(float tidx)
//
// with logical base index tidx*4. Generated main() masks lanes at or past
// gc_out_n to zero, so tails (n%4 ≠ 0) store deterministic bytes.
type KernelSpec struct {
	Name     string
	Inputs   []Param
	Outputs  []OutputSpec
	Uniforms []string // names of user float uniforms
	Source   string

	// ElementWise declares fusion safety (DESIGN.md §6d): the kernel has a
	// single output whose element i depends only on its inputs at linear
	// index i — every gc_<in>() call passes the kernel's own idx unchanged
	// — and whose length always equals every input's length. Pipeline's
	// fusion planner may merge such a stage into the fragment pass of the
	// stage producing its input, skipping the intermediate texture and its
	// encode/decode round trip. Declaring this on a kernel that reads
	// neighbours (gather), folds (reduce), or uses gc_<in>_at/_dims breaks
	// the fused/unfused equivalence guarantee.
	ElementWise bool

	// FusableEpilogue declares that this kernel's body may be inlined into
	// a consumer's fragment pass as the head of a fused chain: the kernel
	// is a pure function of its output index (true for every gc_kernel, it
	// only opts in to the planner considering it) with a single output.
	// GEMM, convolution and pooling kernels set it so element-wise
	// epilogues (ReLU, requantization, bias/scale) fuse into their pass.
	FusableEpilogue bool
}

// normalized returns the spec with defaults applied: outputs default to a
// single float32 "out" and the name to "kernel". It copies nothing else:
// CacheKey normalizes on every submission.
func (s KernelSpec) normalized() KernelSpec {
	if len(s.Outputs) == 0 {
		s.Outputs = []OutputSpec{{Name: "out", Type: codec.Float32}}
	}
	if s.Name == "" {
		s.Name = "kernel"
	}
	return s
}

// lanes returns the values one fragment computes: the lane width of the
// output type. Called on a normalized spec; validate guarantees every
// output agrees.
func (s KernelSpec) lanes() int { return s.Outputs[0].Type.Lanes() }

// validate rejects unknown element types and outputs of mixed lane width
// (one fragment computes the same lanes for every output pass). Called on
// a normalized spec.
func (s KernelSpec) validate() error {
	for _, in := range s.Inputs {
		if !in.Type.Valid() {
			return fmt.Errorf("core: kernel %q: input %q has unknown element type %s", s.Name, in.Name, in.Type)
		}
	}
	for _, out := range s.Outputs {
		if !out.Type.Valid() {
			return fmt.Errorf("core: kernel %q: output %q has unknown element type %s", s.Name, out.Name, out.Type)
		}
		if out.Type.Lanes() != s.lanes() {
			return fmt.Errorf("core: kernel %q: output %q is %d-lane %s but output %q is %d-lane %s",
				s.Name, out.Name, out.Type.Lanes(), out.Type, s.Outputs[0].Name, s.lanes(), s.Outputs[0].Type)
		}
	}
	return nil
}

// CacheKey returns a canonical content key for the spec: two specs with
// the same key compile to identical programs. BuildKernelCached uses it
// for the per-device compile-once cache; the scheduler additionally keys
// request batches on it, so this sits on the per-submission hot path and
// avoids fmt.
func (s KernelSpec) CacheKey() string {
	s = s.normalized()
	var b strings.Builder
	b.Grow(len(s.Name) + len(s.Source) + 16*(len(s.Inputs)+len(s.Outputs)+len(s.Uniforms)) + 4)
	b.WriteString(s.Name)
	b.WriteByte(0)
	b.WriteString(s.Source)
	b.WriteByte(0)
	for _, in := range s.Inputs {
		b.WriteString("i:")
		b.WriteString(in.Name)
		b.WriteByte(':')
		b.WriteByte(byte('0' + int(in.Type)))
		b.WriteByte(0)
	}
	for _, out := range s.Outputs {
		b.WriteString("o:")
		b.WriteString(out.Name)
		b.WriteByte(':')
		b.WriteByte(byte('0' + int(out.Type)))
		b.WriteByte(0)
	}
	for _, u := range s.Uniforms {
		b.WriteString("u:")
		b.WriteString(u)
		b.WriteByte(0)
	}
	// Fusion metadata is part of the content key: the planner reads these
	// flags back off cached kernels, so a fused-safe and a fused-unsafe
	// spec that happen to share source must not collide in the cache.
	b.WriteString("f:")
	b.WriteByte(flagByte(s.ElementWise))
	b.WriteByte(flagByte(s.FusableEpilogue))
	return b.String()
}

func flagByte(v bool) byte {
	if v {
		return '1'
	}
	return '0'
}

// kernelPass is one compiled shader pass producing one output.
type kernelPass struct {
	out     OutputSpec
	prog    uint32
	vs, fs  uint32 // shader objects, deleted by Close
	posLoc  int
	uvLoc   int
	samLocs []int // sampler uniform per input
	dimLocs []int // dims uniform per input
	outDims int
	outN    int
	userLoc map[string]int
}

// Kernel is a compiled compute kernel (one GL program per output pass).
//
// A Kernel is driven from its device's goroutine like every other device
// object, with one concession to service shutdown: Close may race a Run
// from another goroutine — the two serialize on an internal mutex, so the
// loser of the race sees either a completed Run or ErrClosed, never a
// draw against deleted programs.
type Kernel struct {
	dev    *Device
	spec   KernelSpec
	passes []kernelPass

	mu     sync.Mutex // serializes Close against Run
	closed bool
}

// isClosed reports the closed flag under the lifecycle lock.
func (k *Kernel) isClosed() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.closed
}

// BuildKernel compiles a kernel specification into executable passes.
func (d *Device) BuildKernel(spec KernelSpec) (*Kernel, error) {
	if err := d.checkOpen("BuildKernel"); err != nil {
		return nil, err
	}
	spec = spec.normalized()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	k := &Kernel{dev: d, spec: spec}
	for _, out := range spec.Outputs {
		fsSrc := generateFragmentShader(spec, out)
		prog, vs, fs, err := d.buildProgram(passVertexShader, fsSrc)
		if err != nil {
			k.Close() // release the passes already built for earlier outputs
			return nil, fmt.Errorf("core: kernel %q output %q: %w", spec.Name, out.Name, err)
		}
		ctx := d.ctx
		pass := kernelPass{
			out:     out,
			prog:    prog,
			vs:      vs,
			fs:      fs,
			posLoc:  ctx.GetAttribLocation(prog, "a_position"),
			uvLoc:   ctx.GetAttribLocation(prog, "a_texcoord"),
			outDims: ctx.GetUniformLocation(prog, "gc_out_dims"),
			outN:    ctx.GetUniformLocation(prog, "gc_out_n"),
			userLoc: map[string]int{},
		}
		for _, in := range spec.Inputs {
			pass.samLocs = append(pass.samLocs, ctx.GetUniformLocation(prog, "gc_"+in.Name+"_tex"))
			pass.dimLocs = append(pass.dimLocs, ctx.GetUniformLocation(prog, "gc_"+in.Name+"_dims"))
		}
		for _, u := range spec.Uniforms {
			pass.userLoc[u] = ctx.GetUniformLocation(prog, u)
		}
		k.passes = append(k.passes, pass)
	}
	return k, nil
}

// BuildKernelCached compiles the spec at most once per device: repeated
// calls with content-identical specs (see KernelSpec.CacheKey) return the
// same *Kernel. Cached kernels are owned by the device and closed by
// Device.Close; callers should not Close them individually (doing so is
// safe — the cache lazily recompiles).
func (d *Device) BuildKernelCached(spec KernelSpec) (*Kernel, error) {
	if err := d.checkOpen("BuildKernelCached"); err != nil {
		return nil, err
	}
	key := spec.CacheKey()
	if k, ok := d.kernelCache[key]; ok && !k.isClosed() {
		return k, nil
	}
	k, err := d.BuildKernel(spec)
	if err != nil {
		return nil, err
	}
	if d.kernelCache == nil {
		d.kernelCache = map[string]*Kernel{}
	}
	d.kernelCache[key] = k
	return k, nil
}

// Close deletes the kernel's GL programs and shaders. A closed kernel's
// Run returns ErrClosed. Closing after the owning device has closed is a
// no-op (the context's objects are already gone); Close is idempotent and
// may race a concurrent Run (they serialize; see the Kernel doc).
func (k *Kernel) Close() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return nil
	}
	k.closed = true
	if k.dev.closed {
		return nil
	}
	for i := range k.passes {
		p := &k.passes[i]
		k.dev.ctx.DeleteProgram(p.prog)
		k.dev.ctx.DeleteShader(p.vs)
		k.dev.ctx.DeleteShader(p.fs)
	}
	return nil
}

// passVertexShader is the pass-through vertex shader of challenge #1: the
// mobile API forces the vertex stage to be programmed even though compute
// needs no transformation — it only forwards the varying.
const passVertexShader = `
attribute vec2 a_position;
attribute vec2 a_texcoord;
varying vec2 v_uv;
void main() {
	v_uv = a_texcoord;
	gl_Position = vec4(a_position, 0.0, 1.0);
}
`

// buildProgram compiles and links a VS/FS pair into a GL program; the
// shader object ids are returned so owners can delete them on Close.
//
// When the device has a compile cache, the program binary path is tried
// first: a hit restores pre-compiled bytecode (priced at 200 µs under the
// vc4 model) instead of compiling and linking from source (~10 ms). A
// restored program has no shader objects — vs and fs come back 0, which
// DeleteShader ignores. A blob that fails to restore (corruption that
// passed the disk checksum, a format version skew) is dropped from the
// cache and the build falls back to a normal source compile.
func (d *Device) buildProgram(vsSrc, fsSrc string) (prog, vs, fs uint32, err error) {
	ctx := d.ctx
	var cacheKey string
	if d.ccache != nil {
		cacheKey = programKey(vsSrc, fsSrc)
		if blob := d.ccache.get(cacheKey); blob != nil {
			prog = ctx.CreateProgram()
			ctx.ProgramBinary(prog, blob)
			if ctx.GetProgramiv(prog, gles.LINK_STATUS) == 1 {
				return prog, 0, 0, nil
			}
			d.ccache.drop(cacheKey)
			ctx.DeleteProgram(prog)
			for ctx.GetError() != gles.NO_ERROR {
				// drain the restore failure so it cannot surface against a
				// later, innocent call
			}
		}
	}
	vs = ctx.CreateShader(gles.VERTEX_SHADER)
	ctx.ShaderSource(vs, vsSrc)
	ctx.CompileShader(vs)
	if ctx.GetShaderiv(vs, gles.COMPILE_STATUS) != 1 {
		err = fmt.Errorf("vertex shader: %s", ctx.GetShaderInfoLog(vs))
		ctx.DeleteShader(vs)
		return 0, 0, 0, err
	}
	fs = ctx.CreateShader(gles.FRAGMENT_SHADER)
	ctx.ShaderSource(fs, fsSrc)
	ctx.CompileShader(fs)
	if ctx.GetShaderiv(fs, gles.COMPILE_STATUS) != 1 {
		err = fmt.Errorf("fragment shader: %s\n--- generated source ---\n%s", ctx.GetShaderInfoLog(fs), fsSrc)
		ctx.DeleteShader(vs)
		ctx.DeleteShader(fs)
		return 0, 0, 0, err
	}
	prog = ctx.CreateProgram()
	ctx.AttachShader(prog, vs)
	ctx.AttachShader(prog, fs)
	ctx.LinkProgram(prog)
	if ctx.GetProgramiv(prog, gles.LINK_STATUS) != 1 {
		err = fmt.Errorf("link: %s", ctx.GetProgramInfoLog(prog))
		ctx.DeleteProgram(prog)
		ctx.DeleteShader(vs)
		ctx.DeleteShader(fs)
		return 0, 0, 0, err
	}
	if cacheKey != "" {
		if blob := ctx.GetProgramBinary(prog); blob != nil {
			d.ccache.put(cacheKey, blob)
		}
	}
	return prog, vs, fs, nil
}

// RunStats reports one kernel execution.
type RunStats struct {
	Draw gles.DrawStats
}

// glStateGuard snapshots the context state a compute pass clobbers —
// framebuffer/program/active-texture bindings, the viewport, the 2D
// texture bindings of the units the pass uses, and the vertex attribute
// arrays carrying the live-texel cover — so kernel runs can interleave
// with raw dev.GL() rendering without leaking state into the application.
type glStateGuard struct {
	dev      *Device
	fbo      uint32
	prog     uint32
	active   uint32
	viewport [4]int
	units    []uint32 // TEXTURE_BINDING_2D of units 0..len-1
	attribs  map[int]gles.VertexAttribSnapshot
}

// saveGLState captures the state that binding nUnits texture units and
// the given attribute locations would overwrite.
func (d *Device) saveGLState(nUnits int, attribLocs ...int) *glStateGuard {
	ctx := d.ctx
	g := &glStateGuard{
		dev:     d,
		fbo:     uint32(ctx.GetIntegerv(gles.FRAMEBUFFER_BINDING)[0]),
		prog:    uint32(ctx.GetIntegerv(gles.CURRENT_PROGRAM)[0]),
		active:  uint32(ctx.GetIntegerv(gles.ACTIVE_TEXTURE)[0]),
		attribs: map[int]gles.VertexAttribSnapshot{},
	}
	copy(g.viewport[:], ctx.GetIntegerv(gles.VIEWPORT))
	for u := 0; u < nUnits; u++ {
		ctx.ActiveTexture(uint32(gles.TEXTURE0 + u))
		g.units = append(g.units, uint32(ctx.GetIntegerv(gles.TEXTURE_BINDING_2D)[0]))
	}
	for _, loc := range attribLocs {
		if loc < 0 {
			continue
		}
		if s, ok := ctx.GetVertexAttrib(loc); ok {
			g.attribs[loc] = s
		}
	}
	return g
}

// restore reinstates the captured state; call via defer so error paths
// restore too.
func (g *glStateGuard) restore() {
	ctx := g.dev.ctx
	for u, tex := range g.units {
		ctx.ActiveTexture(uint32(gles.TEXTURE0 + u))
		ctx.BindTexture(gles.TEXTURE_2D, tex)
	}
	for loc, s := range g.attribs {
		ctx.RestoreVertexAttrib(loc, s)
	}
	ctx.ActiveTexture(g.active)
	ctx.UseProgram(g.prog)
	ctx.BindFramebuffer(gles.FRAMEBUFFER, g.fbo)
	ctx.Viewport(g.viewport[0], g.viewport[1], g.viewport[2], g.viewport[3])
}

// checkOutputAliasing rejects an output buffer that is also bound as an
// input: rendering into a texture being sampled is undefined GL (the
// hazard Pipeline's pool resolves automatically with a copy or swap).
func checkOutputAliasing(kernel string, out *Buffer, outName string, ins []*Buffer, inputs []Param) error {
	for i, in := range ins {
		if in.tex == out.tex {
			return fmt.Errorf("core: kernel %q: output %q aliases input %q (INVALID_OPERATION: sampling a texture while rendering into it is undefined; use Pipeline or a copy)",
				kernel, outName, inputs[i].Name)
		}
	}
	return nil
}

// Run executes the kernel: one draw pass per output. outs[i] receives
// output i of the spec; ins[i] feeds input i. uniforms supplies the user
// uniforms by name.
func (k *Kernel) Run(outs []*Buffer, ins []*Buffer, uniforms map[string]float32) (RunStats, error) {
	var stats RunStats
	k.mu.Lock()
	defer k.mu.Unlock()
	if err := k.dev.checkOpen("Kernel.Run"); err != nil {
		return stats, err
	}
	if k.closed {
		return stats, fmt.Errorf("core: kernel %q: Run: %w", k.spec.Name, ErrClosed)
	}
	if len(outs) != len(k.passes) {
		return stats, fmt.Errorf("core: kernel %q has %d outputs, got %d buffers", k.spec.Name, len(k.passes), len(outs))
	}
	if len(ins) != len(k.spec.Inputs) {
		return stats, fmt.Errorf("core: kernel %q has %d inputs, got %d buffers", k.spec.Name, len(k.spec.Inputs), len(ins))
	}
	for i, in := range k.spec.Inputs {
		if ins[i].elem != in.Type {
			return stats, fmt.Errorf("core: input %q expects %s, buffer holds %s", in.Name, in.Type, ins[i].elem)
		}
	}
	for pi := range k.passes {
		if err := checkOutputAliasing(k.spec.Name, outs[pi], k.passes[pi].out.Name, ins, k.spec.Inputs); err != nil {
			return stats, err
		}
		for pj := pi + 1; pj < len(k.passes); pj++ {
			if outs[pi].tex == outs[pj].tex {
				return stats, fmt.Errorf("core: kernel %q: outputs %q and %q share a buffer (the later pass would overwrite the earlier)",
					k.spec.Name, k.passes[pi].out.Name, k.passes[pj].out.Name)
			}
		}
	}
	ctx := k.dev.ctx
	attribLocs := make([]int, 0, 2*len(k.passes))
	for pi := range k.passes {
		attribLocs = append(attribLocs, k.passes[pi].posLoc, k.passes[pi].uvLoc)
	}
	guard := k.dev.saveGLState(len(ins), attribLocs...)
	defer guard.restore()
	for pi := range k.passes {
		pass := &k.passes[pi]
		out := outs[pi]
		if out.elem != pass.out.Type {
			return stats, fmt.Errorf("core: output %q expects %s, buffer holds %s", pass.out.Name, pass.out.Type, out.elem)
		}
		fbo, err := out.ensureFBO()
		if err != nil {
			return stats, err
		}
		ctx.BindFramebuffer(gles.FRAMEBUFFER, fbo)
		ctx.Viewport(0, 0, out.grid.Width, out.grid.Height)
		ctx.UseProgram(pass.prog)

		// Bind inputs to texture units 0..n-1.
		for i := range ins {
			ctx.ActiveTexture(uint32(gles.TEXTURE0 + i))
			ctx.BindTexture(gles.TEXTURE_2D, ins[i].tex)
			ctx.Uniform1i(pass.samLocs[i], int32(i))
			ctx.Uniform2f(pass.dimLocs[i], float32(ins[i].grid.Width), float32(ins[i].grid.Height))
		}
		ctx.Uniform2f(pass.outDims, float32(out.grid.Width), float32(out.grid.Height))
		if pass.outN >= 0 {
			ctx.Uniform1f(pass.outN, float32(out.n))
		}
		for name, loc := range pass.userLoc {
			if loc < 0 {
				continue
			}
			v, ok := uniforms[name]
			if !ok {
				return stats, fmt.Errorf("core: kernel %q: uniform %q not supplied", k.spec.Name, name)
			}
			ctx.Uniform1f(loc, v)
		}

		// The output's live-texel cover in one draw (challenge #2).
		ctx.EnableVertexAttribArray(pass.posLoc)
		ctx.VertexAttribPointerClient(pass.posLoc, 2, gles.FLOAT, false, 16, out.cover)
		if pass.uvLoc >= 0 {
			ctx.EnableVertexAttribArray(pass.uvLoc)
			ctx.VertexAttribPointerClient(pass.uvLoc, 2, gles.FLOAT, false, 16, out.cover[8:])
		}
		ctx.DrawArrays(gles.TRIANGLES, 0, len(out.cover)/16)
		if err := k.dev.checkGL("Run draw"); err != nil {
			return stats, err
		}
		d := ctx.LastDraw()
		stats.Draw.Add(&d)
	}
	return stats, nil
}

// Run1 is a convenience for single-output kernels.
func (k *Kernel) Run1(out *Buffer, ins []*Buffer, uniforms map[string]float32) (RunStats, error) {
	return k.Run([]*Buffer{out}, ins, uniforms)
}

// Copy byte-copies src into dst through a pass-through fragment shader —
// the paper's challenge #7 "first way": when the texture to read is not
// already the framebuffer attachment, a trivial copy pass moves it there.
// Both buffers must have identical lengths, grids and element types; the
// pass draws the live-texel cover, so dst's tail texels stay undefined.
func (d *Device) Copy(dst, src *Buffer) error {
	if err := d.checkOpen("Copy"); err != nil {
		return err
	}
	if dst.grid != src.grid || dst.n != src.n {
		return fmt.Errorf("core: Copy: shape mismatch %d over %v vs %d over %v", dst.n, dst.grid, src.n, src.grid)
	}
	if dst.elem != src.elem {
		return fmt.Errorf("core: Copy: element type mismatch %s vs %s", dst.elem, src.elem)
	}
	if dst.tex == src.tex {
		return fmt.Errorf("core: Copy: dst aliases src (INVALID_OPERATION: sampling a texture while rendering into it is undefined)")
	}
	prog, err := d.copyProgram()
	if err != nil {
		return err
	}
	ctx := d.ctx
	fbo, err := dst.ensureFBO()
	if err != nil {
		return err
	}
	pos := ctx.GetAttribLocation(prog, "a_position")
	uv := ctx.GetAttribLocation(prog, "a_texcoord")
	guard := d.saveGLState(1, pos, uv)
	defer guard.restore()
	ctx.BindFramebuffer(gles.FRAMEBUFFER, fbo)
	ctx.Viewport(0, 0, dst.grid.Width, dst.grid.Height)
	ctx.UseProgram(prog)
	ctx.ActiveTexture(gles.TEXTURE0)
	ctx.BindTexture(gles.TEXTURE_2D, src.tex)
	ctx.Uniform1i(ctx.GetUniformLocation(prog, "gc_src"), 0)
	ctx.EnableVertexAttribArray(pos)
	ctx.VertexAttribPointerClient(pos, 2, gles.FLOAT, false, 16, dst.cover)
	ctx.EnableVertexAttribArray(uv)
	ctx.VertexAttribPointerClient(uv, 2, gles.FLOAT, false, 16, dst.cover[8:])
	ctx.DrawArrays(gles.TRIANGLES, 0, len(dst.cover)/16)
	return d.checkGL("Copy")
}

var copyFS = `
precision highp float;
uniform sampler2D gc_src;
varying vec2 v_uv;
void main() { gl_FragColor = texture2D(gc_src, v_uv); }
`

// copyProgram lazily builds the pass-through copy program.
func (d *Device) copyProgram() (uint32, error) {
	if d.copyProg != 0 {
		return d.copyProg, nil
	}
	prog, vs, fs, err := d.buildProgram(passVertexShader, copyFS)
	if err != nil {
		return 0, err
	}
	d.copyProg = prog
	d.copyShader = [2]uint32{vs, fs}
	return prog, nil
}
