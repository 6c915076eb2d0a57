package gles

import (
	"fmt"

	"glescompute/internal/shader"
)

// ConvMode selects how fragment colors are converted to framebuffer bytes.
// The GL spec rounds to nearest; the paper's eq. (2) floors. Both are
// available so ablation A3 (DESIGN.md) can compare codec robustness.
type ConvMode int

// Conversion modes.
const (
	ConvertRound ConvMode = iota // round to nearest (GL spec behaviour)
	ConvertFloor                 // floor (paper eq. 2)
)

// Config configures a simulated context.
type Config struct {
	// Width/Height size the default framebuffer (the "window" surface).
	Width, Height int
	// SFU sets special-function-unit precision (shader.DefaultSFU models
	// the VideoCore IV; shader.ExactSFU is IEEE-exact).
	SFU shader.SFUConfig
	// Conv selects the float→byte framebuffer conversion rule.
	Conv ConvMode
	// Workers is the number of goroutines that shade each draw. 0 means
	// automatic: the drawing goroutine plus whatever helpers the
	// process-wide budget of GOMAXPROCS−1 has free when the draw starts.
	Workers int
	// StrictAppendixA makes the shader compiler enforce GLSL ES Appendix A.
	StrictAppendixA bool
	// UseInterpreter forces the reference AST interpreter for shader
	// execution instead of the default bytecode VM. The two engines are
	// bit-identical (enforced by differential tests); the interpreter
	// exists as the reference implementation and for debugging.
	UseInterpreter bool
}

// Caps describes implementation limits, mirroring the VideoCore IV values.
type Caps struct {
	MaxVertexAttribs             int
	MaxVertexUniformVectors      int
	MaxVaryingVectors            int
	MaxFragmentUniformVectors    int
	MaxVertexTextureImageUnits   int
	MaxCombinedTextureImageUnits int
	MaxTextureImageUnits         int
	MaxTextureSize               int
	MaxRenderbufferSize          int
}

// defaultCaps are the limits the simulated device reports; they follow the
// Broadcom VideoCore IV driver (notably: zero vertex texture units).
var defaultCaps = Caps{
	MaxVertexAttribs:             8,
	MaxVertexUniformVectors:      128,
	MaxVaryingVectors:            8,
	MaxFragmentUniformVectors:    16,
	MaxVertexTextureImageUnits:   0,
	MaxCombinedTextureImageUnits: 8,
	MaxTextureImageUnits:         8,
	MaxTextureSize:               2048,
	MaxRenderbufferSize:          2048,
}

// PrecisionFormat is the result of GetShaderPrecisionFormat (paper §IV-E).
type PrecisionFormat struct {
	RangeMin, RangeMax int // log2 of representable magnitude range
	Precision          int // log2 of relative precision (mantissa bits)
}

// TransferStats counts host↔device traffic, which the paper's wall-clock
// measurements include.
type TransferStats struct {
	TexUploadBytes  uint64
	TexUploadCalls  uint64
	ReadPixelsBytes uint64
	ReadPixelsCalls uint64
	BufferDataBytes uint64
	CompileCount    uint64
	LinkCount       uint64
	BinaryLoadCount uint64 // programs restored through ProgramBinary
}

// Sub removes o from s: the traffic counted between two snapshots.
func (s *TransferStats) Sub(o *TransferStats) {
	s.TexUploadBytes -= o.TexUploadBytes
	s.TexUploadCalls -= o.TexUploadCalls
	s.ReadPixelsBytes -= o.ReadPixelsBytes
	s.ReadPixelsCalls -= o.ReadPixelsCalls
	s.BufferDataBytes -= o.BufferDataBytes
	s.CompileCount -= o.CompileCount
	s.LinkCount -= o.LinkCount
	s.BinaryLoadCount -= o.BinaryLoadCount
}

// DrawStats describes the work done by draw calls since the last reset.
type DrawStats struct {
	DrawCalls          uint64
	VertexInvocations  uint64
	FragmentsShaded    uint64
	FragmentsDiscarded uint64
	PixelsWritten      uint64
	VertexStats        shader.Stats
	FragmentStats      shader.Stats
}

// Add accumulates o into s.
func (s *DrawStats) Add(o *DrawStats) {
	s.DrawCalls += o.DrawCalls
	s.VertexInvocations += o.VertexInvocations
	s.FragmentsShaded += o.FragmentsShaded
	s.FragmentsDiscarded += o.FragmentsDiscarded
	s.PixelsWritten += o.PixelsWritten
	s.VertexStats.AddStats(&o.VertexStats)
	s.FragmentStats.AddStats(&o.FragmentStats)
}

// Sub removes o from s: the work counted between two snapshots.
func (s *DrawStats) Sub(o *DrawStats) {
	s.DrawCalls -= o.DrawCalls
	s.VertexInvocations -= o.VertexInvocations
	s.FragmentsShaded -= o.FragmentsShaded
	s.FragmentsDiscarded -= o.FragmentsDiscarded
	s.PixelsWritten -= o.PixelsWritten
	s.VertexStats.Sub(&o.VertexStats)
	s.FragmentStats.Sub(&o.FragmentStats)
}

// Context is a software OpenGL ES 2.0 rendering context. Like a real GL
// context it is confined to one goroutine; no method is safe for concurrent
// use (the fragment stage parallelism is internal).
type Context struct {
	cfg  Config
	caps Caps

	err     uint32 // first pending GL error
	lastMsg string // human-readable detail for the most recent error

	fault FaultInjector // nil (the default) injects nothing

	textures   map[uint32]*Texture
	nextTexID  uint32
	texUnits   []textureUnit
	activeUnit int

	buffers      map[uint32]*Buffer
	nextBufferID uint32
	arrayBuffer  uint32
	elementBuf   uint32

	shaders      map[uint32]*Shader
	nextShaderID uint32
	programs     map[uint32]*Program
	nextProgID   uint32
	current      uint32

	framebuffers map[uint32]*Framebuffer
	nextFBID     uint32
	boundFB      uint32
	defaultFB    *Framebuffer

	renderbuffers map[uint32]*Renderbuffer
	nextRBID      uint32
	boundRB       uint32

	attribs []vertexAttrib

	viewport    [4]int
	scissor     [4]int
	scissorOn   bool
	blendOn     bool
	cullOn      bool
	depthTestOn bool
	ditherOn    bool
	clearColor  [4]float32
	clearDepth  float32
	colorMask   [4]bool
	depthMask   bool
	depthFunc   uint32
	cullMode    uint32
	frontFace   uint32
	blendSrc    uint32
	blendDst    uint32
	blendEq     uint32
	depthRange  [2]float32
	unpackAlign int
	packAlign   int

	workers  int // <= 0 = automatic (helpers from the process-wide budget)
	tileSize int // shard edge cap
	helpers  *helperBudget

	// maxLoopIter overrides the executors' runaway-loop watchdog (0 =
	// shader.DefaultMaxLoopIter); tests lower it to fail a shader fast.
	maxLoopIter int

	// lastShards and lastWorkers record how the last draw's fragment
	// stage was split: tiles, and goroutines that shaded them; lastFailed
	// counts its fragments whose shader failed.
	lastShards, lastWorkers, lastFailed int

	// Accumulated instrumentation for the timing models.
	transfers TransferStats
	draws     DrawStats
	lastDraw  DrawStats
}

type textureUnit struct {
	tex2D   uint32
	texCube uint32
}

// NewContext creates a context with a default framebuffer of the configured
// size (RGBA8 color + 16-bit depth), matching an EGL window surface on the
// Raspberry Pi.
func NewContext(cfg Config) *Context {
	if cfg.Width <= 0 {
		cfg.Width = 64
	}
	if cfg.Height <= 0 {
		cfg.Height = 64
	}
	c := &Context{
		cfg:           cfg,
		caps:          defaultCaps,
		textures:      map[uint32]*Texture{},
		nextTexID:     1,
		buffers:       map[uint32]*Buffer{},
		nextBufferID:  1,
		shaders:       map[uint32]*Shader{},
		nextShaderID:  1,
		programs:      map[uint32]*Program{},
		nextProgID:    1,
		framebuffers:  map[uint32]*Framebuffer{},
		nextFBID:      1,
		renderbuffers: map[uint32]*Renderbuffer{},
		nextRBID:      1,
		depthFunc:     LESS,
		cullMode:      BACK,
		frontFace:     CCW,
		blendSrc:      ONE,
		blendDst:      ZERO,
		blendEq:       FUNC_ADD,
		clearDepth:    1,
		colorMask:     [4]bool{true, true, true, true},
		depthMask:     true,
		depthRange:    [2]float32{0, 1},
		unpackAlign:   4,
		packAlign:     4,
		workers:       cfg.Workers,
		tileSize:      defaultTileSize,
		helpers:       &rasterHelpers,
	}
	c.texUnits = make([]textureUnit, c.caps.MaxCombinedTextureImageUnits)
	c.attribs = make([]vertexAttrib, c.caps.MaxVertexAttribs)
	for i := range c.attribs {
		c.attribs[i].current = [4]float32{0, 0, 0, 1}
	}
	c.defaultFB = &Framebuffer{
		id:        0,
		isDefault: true,
		width:     cfg.Width,
		height:    cfg.Height,
		color:     make([]byte, cfg.Width*cfg.Height*4),
		depth:     make([]float32, cfg.Width*cfg.Height),
	}
	for i := range c.defaultFB.depth {
		c.defaultFB.depth[i] = 1
	}
	c.viewport = [4]int{0, 0, cfg.Width, cfg.Height}
	c.scissor = [4]int{0, 0, cfg.Width, cfg.Height}
	return c
}

// setErr records the first pending error with a detail message.
func (c *Context) setErr(code uint32, format string, args ...interface{}) {
	if c.err == NO_ERROR {
		c.err = code
		c.lastMsg = fmt.Sprintf(format, args...)
	}
}

// GetError returns the oldest pending error and clears it, per the GL spec.
func (c *Context) GetError() uint32 {
	e := c.err
	c.err = NO_ERROR
	return e
}

// LastErrorDetail is a debug extension: the message attached to the most
// recently recorded error (empty when none was ever recorded). It survives
// the GetError that returned the error, so error paths can report it. Real
// GL buries this in driver logs.
func (c *Context) LastErrorDetail() string { return c.lastMsg }

// Caps returns the implementation limits.
func (c *Context) Caps() Caps { return c.caps }

// GetString mirrors glGetString.
func (c *Context) GetString(name uint32) string {
	switch name {
	case VENDOR:
		return "glescompute (simulated Broadcom)"
	case RENDERER:
		return "Simulated VideoCore IV HW (software rasterizer)"
	case VERSION:
		return "OpenGL ES 2.0 glescompute-1.0"
	case SHADING_LANGUAGE_VERSION:
		return "OpenGL ES GLSL ES 1.00"
	case EXTENSIONS:
		// Deliberately empty: the paper's techniques assume NO float
		// texture/framebuffer extensions are available.
		return ""
	default:
		c.setErr(INVALID_ENUM, "GetString: unknown name 0x%04x", name)
		return ""
	}
}

// GetIntegerv mirrors glGetIntegerv for the supported queries.
func (c *Context) GetIntegerv(pname uint32) []int {
	switch pname {
	case MAX_VERTEX_ATTRIBS:
		return []int{c.caps.MaxVertexAttribs}
	case MAX_VERTEX_UNIFORM_VECTORS:
		return []int{c.caps.MaxVertexUniformVectors}
	case MAX_VARYING_VECTORS:
		return []int{c.caps.MaxVaryingVectors}
	case MAX_FRAGMENT_UNIFORM_VECTORS:
		return []int{c.caps.MaxFragmentUniformVectors}
	case MAX_VERTEX_TEXTURE_IMAGE_UNITS:
		return []int{c.caps.MaxVertexTextureImageUnits}
	case MAX_COMBINED_TEXTURE_IMAGE_UNITS:
		return []int{c.caps.MaxCombinedTextureImageUnits}
	case MAX_TEXTURE_IMAGE_UNITS:
		return []int{c.caps.MaxTextureImageUnits}
	case MAX_TEXTURE_SIZE:
		return []int{c.caps.MaxTextureSize}
	case MAX_RENDERBUFFER_SIZE:
		return []int{c.caps.MaxRenderbufferSize}
	case MAX_VIEWPORT_DIMS:
		return []int{c.caps.MaxTextureSize, c.caps.MaxTextureSize}
	case CURRENT_PROGRAM:
		return []int{int(c.current)}
	case ACTIVE_TEXTURE:
		return []int{TEXTURE0 + c.activeUnit}
	case TEXTURE_BINDING_2D:
		return []int{int(c.texUnits[c.activeUnit].tex2D)}
	case TEXTURE_BINDING_CUBE_MAP:
		return []int{int(c.texUnits[c.activeUnit].texCube)}
	case ARRAY_BUFFER_BINDING:
		return []int{int(c.arrayBuffer)}
	case ELEMENT_ARRAY_BUFFER_BINDING:
		return []int{int(c.elementBuf)}
	case FRAMEBUFFER_BINDING:
		return []int{int(c.boundFB)}
	case RENDERBUFFER_BINDING:
		return []int{int(c.boundRB)}
	case VIEWPORT:
		return []int{c.viewport[0], c.viewport[1], c.viewport[2], c.viewport[3]}
	case IMPLEMENTATION_COLOR_READ_FORMAT:
		return []int{RGBA}
	case IMPLEMENTATION_COLOR_READ_TYPE:
		return []int{UNSIGNED_BYTE}
	default:
		c.setErr(INVALID_ENUM, "GetIntegerv: unsupported pname 0x%04x", pname)
		return nil
	}
}

// GetShaderPrecisionFormat mirrors glGetShaderPrecisionFormat. The paper
// (§IV-E) uses this call to discover that the GPU float format matches
// IEEE 754 bit counts: 8-bit exponent, 23-bit mantissa.
func (c *Context) GetShaderPrecisionFormat(shaderType, precisionType uint32) PrecisionFormat {
	if shaderType != VERTEX_SHADER && shaderType != FRAGMENT_SHADER {
		c.setErr(INVALID_ENUM, "GetShaderPrecisionFormat: bad shader type")
		return PrecisionFormat{}
	}
	switch precisionType {
	case LOW_FLOAT, MEDIUM_FLOAT, HIGH_FLOAT:
		// VideoCore IV: all float precisions are fp32.
		return PrecisionFormat{RangeMin: 126, RangeMax: 126, Precision: 23}
	case LOW_INT, MEDIUM_INT, HIGH_INT:
		// Integers ride the float pipeline: 24-bit effective (paper §IV-C).
		return PrecisionFormat{RangeMin: 24, RangeMax: 24, Precision: 0}
	default:
		c.setErr(INVALID_ENUM, "GetShaderPrecisionFormat: bad precision type")
		return PrecisionFormat{}
	}
}

// Enable mirrors glEnable.
func (c *Context) Enable(cap uint32) { c.setCap(cap, true) }

// Disable mirrors glDisable.
func (c *Context) Disable(cap uint32) { c.setCap(cap, false) }

// IsEnabled mirrors glIsEnabled.
func (c *Context) IsEnabled(cap uint32) bool {
	switch cap {
	case SCISSOR_TEST:
		return c.scissorOn
	case BLEND:
		return c.blendOn
	case CULL_FACE:
		return c.cullOn
	case DEPTH_TEST:
		return c.depthTestOn
	case DITHER:
		return c.ditherOn
	default:
		c.setErr(INVALID_ENUM, "IsEnabled: unsupported capability 0x%04x", cap)
		return false
	}
}

func (c *Context) setCap(cap uint32, on bool) {
	switch cap {
	case SCISSOR_TEST:
		c.scissorOn = on
	case BLEND:
		c.blendOn = on
	case CULL_FACE:
		c.cullOn = on
	case DEPTH_TEST:
		c.depthTestOn = on
	case DITHER:
		c.ditherOn = on
	case STENCIL_TEST, POLYGON_OFFSET_FILL, SAMPLE_ALPHA_TO_COVERAGE, SAMPLE_COVERAGE:
		// Accepted, not implemented: GPGPU never uses them. State is
		// swallowed to keep ports of real GL code running.
	default:
		c.setErr(INVALID_ENUM, "Enable/Disable: unsupported capability 0x%04x", cap)
	}
}

// Viewport mirrors glViewport.
func (c *Context) Viewport(x, y, w, h int) {
	if w < 0 || h < 0 {
		c.setErr(INVALID_VALUE, "Viewport: negative size")
		return
	}
	c.viewport = [4]int{x, y, w, h}
}

// Scissor mirrors glScissor.
func (c *Context) Scissor(x, y, w, h int) {
	if w < 0 || h < 0 {
		c.setErr(INVALID_VALUE, "Scissor: negative size")
		return
	}
	c.scissor = [4]int{x, y, w, h}
}

// ClearColor mirrors glClearColor.
func (c *Context) ClearColor(r, g, b, a float32) {
	c.clearColor = [4]float32{clamp01(r), clamp01(g), clamp01(b), clamp01(a)}
}

// ClearDepthf mirrors glClearDepthf.
func (c *Context) ClearDepthf(d float32) { c.clearDepth = clamp01(d) }

// ColorMask mirrors glColorMask.
func (c *Context) ColorMask(r, g, b, a bool) { c.colorMask = [4]bool{r, g, b, a} }

// DepthMask mirrors glDepthMask.
func (c *Context) DepthMask(m bool) { c.depthMask = m }

// DepthFunc mirrors glDepthFunc.
func (c *Context) DepthFunc(fn uint32) {
	switch fn {
	case NEVER, LESS, EQUAL, LEQUAL, GREATER, NOTEQUAL, GEQUAL, ALWAYS:
		c.depthFunc = fn
	default:
		c.setErr(INVALID_ENUM, "DepthFunc: bad function 0x%04x", fn)
	}
}

// DepthRangef mirrors glDepthRangef.
func (c *Context) DepthRangef(n, f float32) {
	c.depthRange = [2]float32{clamp01(n), clamp01(f)}
}

// CullFace mirrors glCullFace.
func (c *Context) CullFace(mode uint32) {
	switch mode {
	case FRONT, BACK, FRONT_AND_BACK:
		c.cullMode = mode
	default:
		c.setErr(INVALID_ENUM, "CullFace: bad mode 0x%04x", mode)
	}
}

// FrontFace mirrors glFrontFace.
func (c *Context) FrontFace(mode uint32) {
	switch mode {
	case CW, CCW:
		c.frontFace = mode
	default:
		c.setErr(INVALID_ENUM, "FrontFace: bad mode 0x%04x", mode)
	}
}

// BlendFunc mirrors glBlendFunc. SRC_ALPHA_SATURATE is a source-only
// factor (ES 2.0 §4.1.3 lists it in the source column only) and is
// rejected as a destination factor.
func (c *Context) BlendFunc(src, dst uint32) {
	if !validBlendFactor(src, true) || !validBlendFactor(dst, false) {
		c.setErr(INVALID_ENUM, "BlendFunc: bad factor")
		return
	}
	c.blendSrc, c.blendDst = src, dst
}

// BlendEquation mirrors glBlendEquation.
func (c *Context) BlendEquation(eq uint32) {
	switch eq {
	case FUNC_ADD, FUNC_SUBTRACT, FUNC_REVERSE_SUBTRACT:
		c.blendEq = eq
	default:
		c.setErr(INVALID_ENUM, "BlendEquation: bad equation 0x%04x", eq)
	}
}

// PixelStorei mirrors glPixelStorei (alignment only, as in ES 2.0).
func (c *Context) PixelStorei(pname uint32, param int) {
	switch pname {
	case UNPACK_ALIGNMENT:
		if param == 1 || param == 2 || param == 4 || param == 8 {
			c.unpackAlign = param
		} else {
			c.setErr(INVALID_VALUE, "PixelStorei: bad alignment %d", param)
		}
	case PACK_ALIGNMENT:
		if param == 1 || param == 2 || param == 4 || param == 8 {
			c.packAlign = param
		} else {
			c.setErr(INVALID_VALUE, "PixelStorei: bad alignment %d", param)
		}
	default:
		c.setErr(INVALID_ENUM, "PixelStorei: unsupported pname 0x%04x", pname)
	}
}

// Finish and Flush are synchronization no-ops in this in-process
// implementation but are provided for API fidelity.
func (c *Context) Finish() {}

// Flush mirrors glFlush.
func (c *Context) Flush() {}

// ObjectCounts reports the live (created and not yet deleted) objects a
// context owns. Long-running compute services use it to prove they are not
// accumulating simulator objects (leaked kernels leak programs and
// shaders; leaked buffers leak textures and framebuffers).
type ObjectCounts struct {
	Textures      int
	Buffers       int
	Shaders       int
	Programs      int
	Framebuffers  int
	Renderbuffers int
}

// Total returns the total number of live objects.
func (o ObjectCounts) Total() int {
	return o.Textures + o.Buffers + o.Shaders + o.Programs + o.Framebuffers + o.Renderbuffers
}

// ObjectCounts returns the live object census of this context.
func (c *Context) ObjectCounts() ObjectCounts {
	return ObjectCounts{
		Textures:      len(c.textures),
		Buffers:       len(c.buffers),
		Shaders:       len(c.shaders),
		Programs:      len(c.programs),
		Framebuffers:  len(c.framebuffers),
		Renderbuffers: len(c.renderbuffers),
	}
}

// Transfers returns accumulated host↔device transfer statistics.
func (c *Context) Transfers() TransferStats { return c.transfers }

// Draws returns accumulated draw statistics.
func (c *Context) Draws() DrawStats { return c.draws }

// LastDraw returns statistics for the most recent draw call; for a draw
// whose shader failed, what it shaded before it stopped.
func (c *Context) LastDraw() DrawStats { return c.lastDraw }

// ResetStats clears accumulated statistics (transfers and draws).
func (c *Context) ResetStats() {
	c.transfers = TransferStats{}
	c.draws = DrawStats{}
	c.lastDraw = DrawStats{}
}

func clamp01(x float32) float32 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func validBlendFactor(f uint32, isSrc bool) bool {
	switch f {
	case ZERO, ONE, SRC_COLOR, ONE_MINUS_SRC_COLOR, SRC_ALPHA,
		ONE_MINUS_SRC_ALPHA, DST_ALPHA, ONE_MINUS_DST_ALPHA,
		DST_COLOR, ONE_MINUS_DST_COLOR:
		return true
	case SRC_ALPHA_SATURATE:
		return isSrc
	}
	return false
}
