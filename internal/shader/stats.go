package shader

import "glescompute/internal/glsl"

// Stats counts scalar operations executed by the interpreter. The VideoCore
// IV QPU is a per-lane scalar machine (a vec4 add is four ALU instructions),
// so all counters are per scalar component. internal/vc4 converts these
// counts into modeled cycles.
type Stats struct {
	Add    uint64 // additions/subtractions
	Mul    uint64 // multiplications
	Div    uint64 // divisions (SFU reciprocal + Newton refinement on HW)
	Cmp    uint64 // comparisons
	Logic  uint64 // boolean logic ops
	Mov    uint64 // register moves (assignments, constructors, swizzles)
	Select uint64 // conditional selects (?:, mix-like patterns)
	SFU    uint64 // special function unit ops (exp2, log2, rsqrt, trig, ...)
	Tex    uint64 // texture fetches (TMU requests)
	Branch uint64 // control-flow decisions
	Call   uint64 // user function calls

	Invocations uint64 // shader invocations executed
}

// AddStats accumulates o into s.
func (s *Stats) AddStats(o *Stats) {
	s.Add += o.Add
	s.Mul += o.Mul
	s.Div += o.Div
	s.Cmp += o.Cmp
	s.Logic += o.Logic
	s.Mov += o.Mov
	s.Select += o.Select
	s.SFU += o.SFU
	s.Tex += o.Tex
	s.Branch += o.Branch
	s.Call += o.Call
	s.Invocations += o.Invocations
}

// AddScaled accumulates k copies of o into s: the counts of a region that
// ran k times.
func (s *Stats) AddScaled(o *Stats, k uint64) {
	s.Add += o.Add * k
	s.Mul += o.Mul * k
	s.Div += o.Div * k
	s.Cmp += o.Cmp * k
	s.Logic += o.Logic * k
	s.Mov += o.Mov * k
	s.Select += o.Select * k
	s.SFU += o.SFU * k
	s.Tex += o.Tex * k
	s.Branch += o.Branch * k
	s.Call += o.Call * k
	s.Invocations += o.Invocations * k
}

// Sub removes o from s: the work counted between two snapshots.
func (s *Stats) Sub(o *Stats) {
	s.Add -= o.Add
	s.Mul -= o.Mul
	s.Div -= o.Div
	s.Cmp -= o.Cmp
	s.Logic -= o.Logic
	s.Mov -= o.Mov
	s.Select -= o.Select
	s.SFU -= o.SFU
	s.Tex -= o.Tex
	s.Branch -= o.Branch
	s.Call -= o.Call
	s.Invocations -= o.Invocations
}

// ALUOps returns the total plain-ALU operation count.
func (s *Stats) ALUOps() uint64 {
	return s.Add + s.Mul + s.Cmp + s.Logic + s.Mov + s.Select
}

// TotalOps returns every counted scalar operation.
func (s *Stats) TotalOps() uint64 {
	return s.ALUOps() + s.Div + s.SFU + s.Tex + s.Branch + s.Call
}

// Scale returns a copy of s with all counters multiplied by k. Used by the
// benchmark harness to extrapolate data-independent kernels to larger grids.
func (s *Stats) Scale(k float64) Stats {
	mul := func(v uint64) uint64 { return uint64(float64(v) * k) }
	return Stats{
		Add: mul(s.Add), Mul: mul(s.Mul), Div: mul(s.Div), Cmp: mul(s.Cmp),
		Logic: mul(s.Logic), Mov: mul(s.Mov), Select: mul(s.Select),
		SFU: mul(s.SFU), Tex: mul(s.Tex), Branch: mul(s.Branch),
		Call: mul(s.Call), Invocations: mul(s.Invocations),
	}
}

// builtinCost is the cost model of one builtin call: the scalar
// operations it counts, which depend only on the call's shapes (nc result
// components, an components of the first argument, dim its matrix
// dimension). The bytecode compiler adds it to a block's static counts
// and the interpreter adds it per call; the math stays separate in each,
// so the interpreter remains the VM's oracle. ok is false for a builtin
// neither engine implements.
func builtinCost(id glsl.BuiltinID, nc, an, dim int) (s Stats, ok bool) {
	u := func(x int) uint64 { return uint64(x) }
	switch id {
	case glsl.BRadians, glsl.BDegrees:
		s.Mul += u(nc)
	case glsl.BSin, glsl.BCos, glsl.BAsin, glsl.BAcos, glsl.BAtan:
		s.SFU += u(nc)
	case glsl.BTan:
		s.SFU += u(2 * nc) // tan = sin * rcp(cos): an extra SFU op
	case glsl.BAtan2:
		s.SFU += u(2 * nc)
	case glsl.BPow:
		s.SFU += u(2 * nc)
		s.Mul += u(nc)
	case glsl.BExp, glsl.BLog:
		s.SFU += u(nc)
		s.Mul += u(nc)
	case glsl.BExp2, glsl.BLog2:
		s.SFU += u(nc)
	case glsl.BSqrt:
		s.SFU += u(nc)
		s.Mul += u(nc)
	case glsl.BInverseSqrt:
		s.SFU += u(nc)
	case glsl.BAbs:
		s.Mov += u(nc)
	case glsl.BSign:
		s.Cmp += u(2 * nc)
	case glsl.BFloor, glsl.BCeil:
		s.Add += u(nc)
	case glsl.BFract:
		s.Add += u(2 * nc)
	case glsl.BMod:
		s.Div += u(nc)
		s.Mul += u(nc)
		s.Add += u(2 * nc)
	case glsl.BMin, glsl.BMax:
		s.Cmp += u(nc)
	case glsl.BClamp:
		s.Cmp += u(2 * nc)
	case glsl.BMix:
		s.Mul += u(2 * nc)
		s.Add += u(2 * nc)
	case glsl.BStep:
		s.Cmp += u(nc)
		s.Select += u(nc)
	case glsl.BSmoothstep:
		s.Add += u(3 * nc)
		s.Mul += u(3 * nc)
		s.Div += u(nc)
		s.Cmp += u(2 * nc)
	case glsl.BLength:
		s.Mul += u(an)
		s.Add += u(an - 1)
		s.SFU++
	case glsl.BDistance:
		s.Mul += u(an)
		s.Add += u(2*an - 1)
		s.SFU++
	case glsl.BDot:
		s.Mul += u(an)
		s.Add += u(an - 1)
	case glsl.BCross:
		s.Mul += 6
		s.Add += 3
	case glsl.BNormalize:
		s.Mul += u(2 * an)
		s.Add += u(an - 1)
		s.SFU++
	case glsl.BFaceforward:
		s.Mul += u(an)
		s.Add += u(an - 1)
		s.Cmp++
		s.Select += u(an)
	case glsl.BReflect:
		s.Mul += u(3 * an)
		s.Add += u(2*an - 1)
	case glsl.BRefract:
		s.Mul += u(4 * an)
		s.Add += u(2 * an)
		s.SFU++
	case glsl.BMatrixCompMult:
		s.Mul += u(dim * dim)
	case glsl.BLessThan, glsl.BLessThanEqual, glsl.BGreaterThan, glsl.BGreaterThanEqual,
		glsl.BEqual, glsl.BNotEqual:
		s.Cmp += u(an)
	case glsl.BAny, glsl.BAll, glsl.BNot:
		s.Logic += u(an)
	case glsl.BTexture2D, glsl.BTexture2DBias, glsl.BTexture2DLod,
		glsl.BTextureCube, glsl.BTextureCubeBias, glsl.BTextureCubeLod:
		s.Tex++
	case glsl.BTexture2DProj3, glsl.BTexture2DProj4,
		glsl.BTexture2DProjLod3, glsl.BTexture2DProjLod4:
		s.Tex++
		s.Div += 2
	default:
		return s, false
	}
	return s, true
}
