package shader

import (
	"fmt"

	"glescompute/internal/glsl"
)

// TextureSampler provides texel fetches to the executor. The GLES context
// implements it; tests can provide fakes.
type TextureSampler interface {
	// Sample2D samples the 2D texture bound to the given unit at
	// normalized coordinates (s,t), returning RGBA in [0,1].
	Sample2D(unit int, s, t float32) [4]float32
	// Texel2D returns the RGBA8 bytes of the one texel Sample2D(unit, s, t)
	// reads, when that sample is exactly those bytes through Unorm8
	// (nearest filtering of a complete texture). ok=false sends the
	// caller to Sample2D.
	Texel2D(unit int, s, t float32) (rgba [4]byte, ok bool)
	// SampleCube samples the cube texture bound to the given unit.
	SampleCube(unit int, s, t, r float32) [4]float32
}

// unorm8 holds Equation (1) of the paper, f = c / (2^8 - 1), for every
// byte c: the value an RGBA8 texel channel samples as.
var unorm8 = func() (t [256]float32) {
	for c := range t {
		t[c] = float32(c) / 255
	}
	return t
}()

// Unorm8 returns the normalized value of texel byte c (Equation (1)).
func Unorm8(c byte) float32 { return unorm8[c] }

// nullSampler returns opaque black, the GL behaviour for incomplete
// textures.
type nullSampler struct{}

func (nullSampler) Sample2D(int, float32, float32) [4]float32 {
	return [4]float32{0, 0, 0, 1}
}
func (nullSampler) Texel2D(int, float32, float32) ([4]byte, bool) { return [4]byte{}, false }
func (nullSampler) SampleCube(int, float32, float32, float32) [4]float32 {
	return [4]float32{0, 0, 0, 1}
}

// SFUConfig models the precision of the QPU special function unit. The
// VideoCore IV SFU produces approximate exp2/log2 results; the Broadcom
// shader compiler refines reciprocals with Newton-Raphson steps but leaves
// exp2/log2 raw. MantissaBits limits the result mantissa (0 = exact IEEE).
type SFUConfig struct {
	// MantissaBits is the number of accurate mantissa bits for exp2/log2
	// results. 0 means exact (no quantization).
	MantissaBits int
}

// DefaultSFU models the VideoCore IV: ~16 accurate mantissa bits out of the
// SFU, which after the packing/unpacking chain yields the ~15-bit accuracy
// the paper reports.
var DefaultSFU = SFUConfig{MantissaBits: 16}

// ExactSFU disables SFU quantization, for "same transformation on the CPU"
// comparisons (paper §V: the CPU round trip is exact).
var ExactSFU = SFUConfig{MantissaBits: 0}

// Quantize rounds x to the configured mantissa precision.
func (c SFUConfig) Quantize(x float32) float32 {
	if c.MantissaBits <= 0 || c.MantissaBits >= 23 {
		return x
	}
	return quantizeMantissa(x, c.MantissaBits)
}

// Approx models one SFU evaluation: the exact result perturbed by a
// deterministic, input-dependent relative error of at most 2^-(bits+1),
// then quantized to the configured precision. Real SFU hardware is a
// piecewise approximation whose error depends on the argument — including
// at integer arguments, which is what makes exp2 in the paper's float
// codec lose mantissa bits even though the codec only evaluates it at
// whole-number exponents.
func (c SFUConfig) Approx(input, exact float32) float32 {
	if c.MantissaBits <= 0 || c.MantissaBits >= 23 {
		return exact
	}
	if exact == 0 || isInfOrNaN(exact) {
		return exact
	}
	// Deterministic pseudo-noise from the argument bits (Knuth hash).
	h := mathFloat32bits(input) * 2654435761
	frac := float64(h>>8) / float64(1<<24) // [0,1)
	eps := (frac - 0.5) * pow2(-c.MantissaBits)
	return quantizeMantissa(float32(float64(exact)*(1+eps)), c.MantissaBits)
}

// RuntimeError is a shader execution failure (these indicate bugs in the
// compiler/checker rather than user-visible GL errors).
type RuntimeError struct {
	Pos glsl.Pos
	Msg string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("shader runtime error at %s: %s", e.Pos, e.Msg)
}

// Exec executes one shader program. It is not safe for concurrent use; the
// rasterizer creates one Exec per worker.
type Exec struct {
	Prog     *glsl.Program
	Textures TextureSampler
	SFU      SFUConfig
	Stats    Stats

	// MaxLoopIter guards against non-terminating shaders (real ES 2.0
	// hardware hangs; we abort with an error instead). Zero means the
	// default of DefaultMaxLoopIter.
	MaxLoopIter int

	Globals  []Value
	Builtins [glsl.NumBuiltinSlots]Value

	// initialGlobals snapshots global values after InitGlobals so mutable
	// globals can be reset per invocation.
	initialGlobals []Value
	// mutatedGlobals lists slots written somewhere in the program.
	mutatedGlobals []int

	frames []frame
	depth  int
}

type frame struct {
	locals []Value
	ret    Value
	hasRet bool
}

type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
	ctrlDiscard
)

// NewExec builds an executor for prog.
func NewExec(prog *glsl.Program, tex TextureSampler, sfu SFUConfig) *Exec {
	if tex == nil {
		tex = nullSampler{}
	}
	ex := &Exec{Prog: prog, Textures: tex, SFU: sfu}
	ex.Globals = make([]Value, len(prog.Globals))
	for i, g := range prog.Globals {
		ex.Globals[i] = Zero(g.DeclType)
	}
	// Builtin registers.
	if prog.Stage == glsl.StageVertex {
		ex.Builtins[glsl.BVSlotPosition] = Zero(glsl.TypeVec4)
		ex.Builtins[glsl.BVSlotPointSize] = FloatVal(1)
	} else {
		ex.Builtins[glsl.BVSlotFragCoord] = Zero(glsl.TypeVec4)
		ex.Builtins[glsl.BVSlotFrontFacing] = BoolVal(true)
		ex.Builtins[glsl.BVSlotPointCoord] = Zero(glsl.TypeVec2)
		ex.Builtins[glsl.BVSlotFragColor] = Zero(glsl.TypeVec4)
		ex.Builtins[glsl.BVSlotFragData] = Zero(glsl.ArrayOf(glsl.TypeVec4, glsl.MaxDrawBuffers))
	}
	ex.findMutatedGlobals()
	return ex
}

// findMutatedGlobals scans the program for assignments to globals so that
// only those slots are reset between invocations.
func (ex *Exec) findMutatedGlobals() {
	ex.mutatedGlobals = MutatedGlobalSlots(ex.Prog)
}

// MutatedGlobalSlots scans a checked program for assignments to globals and
// returns their slots. Both the AST interpreter and the bytecode VM use it
// to decide which globals must be reset between invocations.
func MutatedGlobalSlots(prog *glsl.Program) []int {
	written := map[int]bool{}
	mark := func(id *glsl.Ident) {
		if id.Ref != nil && id.Ref.Storage == glsl.StorageGlobal {
			written[id.Ref.Slot] = true
		}
	}
	for _, fd := range prog.Functions {
		if fd.Body != nil {
			walk(fd.Body, func(n glsl.Node) bool {
				writeRoots(n, mark)
				return true
			})
		}
	}
	var slots []int
	for slot := range written {
		slots = append(slots, slot)
	}
	return slots
}

// InitGlobals evaluates file-scope initializers (const and plain globals).
// Must be called after uniforms are set and before the first invocation.
func (ex *Exec) InitGlobals() error {
	for _, g := range ex.Prog.Globals {
		if g.Init == nil {
			continue
		}
		if g.ConstVal != nil {
			v := FromConst(g.ConstVal)
			v.T = g.DeclType
			ex.Globals[g.Slot] = v
			continue
		}
		v, err := ex.evalExpr(g.Init, nil)
		if err != nil {
			return err
		}
		ex.Globals[g.Slot] = v
	}
	ex.initialGlobals = make([]Value, len(ex.Globals))
	for i := range ex.Globals {
		ex.initialGlobals[i] = ex.Globals[i].Copy()
	}
	return nil
}

// SetGlobal stores v into the slot of the named global (uniform, attribute
// or varying). The caller is responsible for type agreement.
func (ex *Exec) SetGlobal(v *glsl.VarDecl, val Value) {
	ex.Globals[v.Slot] = val
	if ex.initialGlobals != nil {
		ex.initialGlobals[v.Slot] = val.Copy()
	}
}

// errDiscard signals a discard executed inside a helper function; Run
// translates it into a discarded invocation.
var errDiscard = &RuntimeError{Msg: "discard"}

// Run executes main() once. It returns true when the fragment was discarded.
func (ex *Exec) Run() (bool, error) {
	// Reset mutable globals to their post-init values.
	for _, slot := range ex.mutatedGlobals {
		if ex.initialGlobals != nil {
			ex.Globals[slot] = ex.initialGlobals[slot].Copy()
		}
	}
	ex.Stats.Invocations++
	f := ex.pushFrame(ex.Prog.Entry)
	defer ex.popFrame()
	c, err := ex.execStmt(ex.Prog.Entry.Body, f)
	if err == errDiscard {
		ex.depth = 1 // unwind nested frames; popFrame brings it to 0
		return true, nil
	}
	if err != nil {
		return false, err
	}
	return c == ctrlDiscard, nil
}

func (ex *Exec) pushFrame(fd *glsl.FuncDecl) *frame {
	if ex.depth >= len(ex.frames) {
		ex.frames = append(ex.frames, frame{})
	}
	f := &ex.frames[ex.depth]
	ex.depth++
	if cap(f.locals) < fd.LocalSize {
		f.locals = make([]Value, fd.LocalSize)
	} else {
		f.locals = f.locals[:fd.LocalSize]
		for i := range f.locals {
			f.locals[i] = Value{}
		}
	}
	f.hasRet = false
	return f
}

func (ex *Exec) popFrame() {
	ex.depth--
}

func (ex *Exec) rtError(pos glsl.Pos, format string, args ...interface{}) error {
	return &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// ---- Statements ----

func (ex *Exec) execStmt(s glsl.Stmt, f *frame) (ctrl, error) {
	switch n := s.(type) {
	case *glsl.BlockStmt:
		for _, st := range n.Stmts {
			c, err := ex.execStmt(st, f)
			if err != nil || c != ctrlNone {
				return c, err
			}
		}
		return ctrlNone, nil
	case *glsl.DeclStmt:
		for _, v := range n.Vars {
			val := Zero(v.DeclType)
			if v.Init != nil {
				iv, err := ex.evalExpr(v.Init, f)
				if err != nil {
					return ctrlNone, err
				}
				if iv.Agg != nil {
					// Value semantics: never alias the initializer.
					iv = iv.Copy()
				}
				iv.T = v.DeclType
				val = iv
				ex.Stats.Mov += uint64(v.DeclType.ComponentCount())
			}
			f.locals[v.Slot] = val
		}
		return ctrlNone, nil
	case *glsl.ExprStmt:
		_, err := ex.evalExpr(n.X, f)
		return ctrlNone, err
	case *glsl.EmptyStmt:
		return ctrlNone, nil
	case *glsl.IfStmt:
		cond, err := ex.evalExpr(n.Cond, f)
		if err != nil {
			return ctrlNone, err
		}
		ex.Stats.Branch++
		if cond.Bool() {
			return ex.execStmt(n.Then, f)
		}
		if n.Else != nil {
			return ex.execStmt(n.Else, f)
		}
		return ctrlNone, nil
	case *glsl.ForStmt:
		if n.InitStmt != nil {
			if c, err := ex.execStmt(n.InitStmt, f); err != nil || c == ctrlReturn || c == ctrlDiscard {
				return c, err
			}
		}
		for iter := 0; ; iter++ {
			if iter > ex.loopLimit() {
				return ctrlNone, ex.rtError(n.Pos, "loop exceeded %d iterations (runaway shader)", ex.loopLimit())
			}
			if n.Cond != nil {
				cond, err := ex.evalExpr(n.Cond, f)
				if err != nil {
					return ctrlNone, err
				}
				ex.Stats.Branch++
				if !cond.Bool() {
					break
				}
			}
			c, err := ex.execStmt(n.Body, f)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn || c == ctrlDiscard {
				return c, nil
			}
			if n.Post != nil {
				if _, err := ex.evalExpr(n.Post, f); err != nil {
					return ctrlNone, err
				}
			}
		}
		return ctrlNone, nil
	case *glsl.WhileStmt:
		for iter := 0; ; iter++ {
			if iter > ex.loopLimit() {
				return ctrlNone, ex.rtError(n.Pos, "loop exceeded %d iterations (runaway shader)", ex.loopLimit())
			}
			cond, err := ex.evalExpr(n.Cond, f)
			if err != nil {
				return ctrlNone, err
			}
			ex.Stats.Branch++
			if !cond.Bool() {
				return ctrlNone, nil
			}
			c, err := ex.execStmt(n.Body, f)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if c == ctrlReturn || c == ctrlDiscard {
				return c, nil
			}
		}
	case *glsl.DoWhileStmt:
		for iter := 0; ; iter++ {
			if iter > ex.loopLimit() {
				return ctrlNone, ex.rtError(n.Pos, "loop exceeded %d iterations (runaway shader)", ex.loopLimit())
			}
			c, err := ex.execStmt(n.Body, f)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if c == ctrlReturn || c == ctrlDiscard {
				return c, nil
			}
			cond, err := ex.evalExpr(n.Cond, f)
			if err != nil {
				return ctrlNone, err
			}
			ex.Stats.Branch++
			if !cond.Bool() {
				return ctrlNone, nil
			}
		}
	case *glsl.ReturnStmt:
		if n.X != nil {
			v, err := ex.evalExpr(n.X, f)
			if err != nil {
				return ctrlNone, err
			}
			f.ret = v
			f.hasRet = true
		}
		return ctrlReturn, nil
	case *glsl.BreakStmt:
		return ctrlBreak, nil
	case *glsl.ContinueStmt:
		return ctrlContinue, nil
	case *glsl.DiscardStmt:
		return ctrlDiscard, nil
	}
	return ctrlNone, ex.rtError(s.NodePos(), "unknown statement %T", s)
}

// DefaultMaxLoopIter is the default runaway-loop watchdog limit.
const DefaultMaxLoopIter = 1 << 26

func (ex *Exec) loopLimit() int {
	if ex.MaxLoopIter > 0 {
		return ex.MaxLoopIter
	}
	return DefaultMaxLoopIter
}
