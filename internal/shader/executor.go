package shader

// Executor abstracts the two shader execution engines — the AST
// interpreter (Exec, the reference implementation) and the bytecode
// register machine (VM, the default) — behind the operations the GLES
// pipeline needs. internal/gles programs draw loops against this
// interface; the differential tests run both engines and require
// bit-identical results and Stats.

import "glescompute/internal/glsl"

// Executor is one shader invocation context.
type Executor interface {
	// InitGlobals evaluates file-scope initializers. Call after uniforms
	// are set and before the first Run.
	InitGlobals() error
	// Run executes main() once; reports whether the fragment discarded.
	Run() (bool, error)
	// StatsRef exposes the accumulated operation counters.
	StatsRef() *Stats
	// SetGlobal stores a runtime value into a global variable.
	SetGlobal(d *glsl.VarDecl, val Value)
	// ReadGlobalFlat copies a global's flattened components out (varying
	// capture after the vertex stage).
	ReadGlobalFlat(d *glsl.VarDecl, out []float32)
	// SetGlobalFlat fills a global from flattened components (varying
	// input before a fragment invocation). Unlike SetGlobal it does not
	// touch the per-run reset snapshot.
	SetGlobalFlat(d *glsl.VarDecl, in []float32)

	// Vertex-stage outputs.
	Position() [4]float32
	PointSize() float32

	// Fragment-stage inputs and outputs.
	SetFragCoord(v [4]float32)
	SetFrontFacing(front bool)
	SetPointCoord(x, y float32)
	ResetFragOutputs()
	FragOutput() [4]float32
}

// ---- Exec (interpreter) implementation ----

// StatsRef returns the interpreter's counters.
func (ex *Exec) StatsRef() *Stats { return &ex.Stats }

// ReadGlobalFlat flattens the global's current value.
func (ex *Exec) ReadGlobalFlat(d *glsl.VarDecl, out []float32) {
	flattenValueInto(out, ex.Globals[d.Slot])
}

// SetGlobalFlat rebuilds the global from flattened components.
func (ex *Exec) SetGlobalFlat(d *glsl.VarDecl, in []float32) {
	v := Zero(d.DeclType)
	unflattenValueFrom(&v, in)
	ex.Globals[d.Slot] = v
}

// Position returns gl_Position.
func (ex *Exec) Position() [4]float32 {
	return ex.Builtins[glsl.BVSlotPosition].Vec4()
}

// PointSize returns gl_PointSize.
func (ex *Exec) PointSize() float32 {
	return ex.Builtins[glsl.BVSlotPointSize].F[0]
}

// SetFragCoord sets gl_FragCoord.
func (ex *Exec) SetFragCoord(v [4]float32) {
	ex.Builtins[glsl.BVSlotFragCoord] = Vec4Val(v[0], v[1], v[2], v[3])
}

// SetFrontFacing sets gl_FrontFacing.
func (ex *Exec) SetFrontFacing(front bool) {
	ex.Builtins[glsl.BVSlotFrontFacing] = BoolVal(front)
}

// SetPointCoord sets gl_PointCoord.
func (ex *Exec) SetPointCoord(x, y float32) {
	ex.Builtins[glsl.BVSlotPointCoord] = Vec2Val(x, y)
}

// ResetFragOutputs zeroes gl_FragColor and gl_FragData (GL leaves them
// undefined; zero is deterministic).
func (ex *Exec) ResetFragOutputs() {
	ex.Builtins[glsl.BVSlotFragColor] = Zero(glsl.TypeVec4)
	ex.Builtins[glsl.BVSlotFragData] = Zero(glsl.ArrayOf(glsl.TypeVec4, glsl.MaxDrawBuffers))
}

// FragOutput returns the fragment color: gl_FragColor, or gl_FragData[0]
// when the shader wrote it.
func (ex *Exec) FragOutput() [4]float32 {
	out := ex.Builtins[glsl.BVSlotFragColor]
	fd := ex.Builtins[glsl.BVSlotFragData]
	if len(fd.Agg) > 0 && anyComponentNonZero(fd.Agg[0]) {
		out = fd.Agg[0]
	}
	return out.Vec4()
}

func anyComponentNonZero(v Value) bool {
	for i := 0; i < 4; i++ {
		if v.F[i] != 0 {
			return true
		}
	}
	return false
}

// ---- VM (bytecode) implementation ----

// ReadGlobalFlat copies a global's registers out.
func (vm *VM) ReadGlobalFlat(d *glsl.VarDecl, out []float32) {
	off := vm.c.globalOff[d.Slot]
	copy(out, vm.regs[off:off+flatSize(d.DeclType)])
}

// SetGlobalFlat copies flattened components into a global's registers.
func (vm *VM) SetGlobalFlat(d *glsl.VarDecl, in []float32) {
	off := vm.c.globalOff[d.Slot]
	copy(vm.regs[off:off+flatSize(d.DeclType)], in)
}

// Position returns gl_Position.
func (vm *VM) Position() [4]float32 {
	o := vm.c.builtinOff[glsl.BVSlotPosition]
	return [4]float32{vm.regs[o], vm.regs[o+1], vm.regs[o+2], vm.regs[o+3]}
}

// PointSize returns gl_PointSize.
func (vm *VM) PointSize() float32 {
	return vm.regs[vm.c.builtinOff[glsl.BVSlotPointSize]]
}

// SetFragCoord sets gl_FragCoord.
func (vm *VM) SetFragCoord(v [4]float32) {
	o := vm.c.builtinOff[glsl.BVSlotFragCoord]
	vm.regs[o], vm.regs[o+1], vm.regs[o+2], vm.regs[o+3] = v[0], v[1], v[2], v[3]
}

// SetFrontFacing sets gl_FrontFacing.
func (vm *VM) SetFrontFacing(front bool) {
	vm.regs[vm.c.builtinOff[glsl.BVSlotFrontFacing]] = b2f(front)
}

// SetPointCoord sets gl_PointCoord.
func (vm *VM) SetPointCoord(x, y float32) {
	o := vm.c.builtinOff[glsl.BVSlotPointCoord]
	vm.regs[o], vm.regs[o+1] = x, y
}

// ResetFragOutputs zeroes gl_FragColor and gl_FragData.
func (vm *VM) ResetFragOutputs() {
	o := vm.c.builtinOff[glsl.BVSlotFragColor]
	for i := int32(0); i < 4; i++ {
		vm.regs[o+i] = 0
	}
	o = vm.c.builtinOff[glsl.BVSlotFragData]
	for i := int32(0); i < 4*glsl.MaxDrawBuffers; i++ {
		vm.regs[o+i] = 0
	}
}

// FragOutput returns gl_FragColor, or gl_FragData[0] when written.
func (vm *VM) FragOutput() [4]float32 {
	fc := vm.c.builtinOff[glsl.BVSlotFragColor]
	fd := vm.c.builtinOff[glsl.BVSlotFragData]
	if vm.regs[fd] != 0 || vm.regs[fd+1] != 0 || vm.regs[fd+2] != 0 || vm.regs[fd+3] != 0 {
		fc = fd
	}
	return [4]float32{vm.regs[fc], vm.regs[fc+1], vm.regs[fc+2], vm.regs[fc+3]}
}

// ---- Flattening helpers ----

// flattenValueInto writes a value's scalar components in declaration
// order (aggregates first-to-last, matrices column-major, samplers as
// their unit index) and returns the component count.
func flattenValueInto(dst []float32, v Value) int {
	if len(v.Agg) > 0 {
		off := 0
		for _, el := range v.Agg {
			off += flattenValueInto(dst[off:], el)
		}
		return off
	}
	n := 0
	if v.T != nil {
		n = v.T.FlatSize()
	}
	if n > len(v.F) {
		n = len(v.F)
	}
	copy(dst[:n], v.F[:n])
	return n
}

// unflattenValueFrom fills a zero-shaped value from flattened components
// and returns the consumed count.
func unflattenValueFrom(v *Value, in []float32) int {
	if len(v.Agg) > 0 {
		off := 0
		for i := range v.Agg {
			off += unflattenValueFrom(&v.Agg[i], in[off:])
		}
		return off
	}
	n := 0
	if v.T != nil {
		n = v.T.FlatSize()
	}
	if n > len(v.F) {
		n = len(v.F)
	}
	copy(v.F[:n], in[:n])
	return n
}
