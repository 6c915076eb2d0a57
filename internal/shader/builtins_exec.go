package shader

import (
	"math"

	"glescompute/internal/glsl"
)

// quantizeMantissa rounds x so only the top `bits` mantissa bits are
// significant, modeling the approximate results of the VideoCore IV special
// function unit. Zero, infinities and NaN pass through unchanged.
func quantizeMantissa(x float32, bits int) float32 {
	if x == 0 || math.IsInf(float64(x), 0) || math.IsNaN(float64(x)) {
		return x
	}
	b := math.Float32bits(x)
	drop := uint(23 - bits)
	// Round to nearest at the kept precision.
	half := uint32(1) << (drop - 1)
	b += half
	b &^= (uint32(1) << drop) - 1
	return math.Float32frombits(b)
}

// sfuExp2 and sfuLog2 are the two operations the Broadcom compiler leaves at
// raw SFU precision (reciprocals get Newton-Raphson refinement, so division
// stays near-exact). They are the precision bottleneck of the paper's float
// codec — see EXPERIMENTS.md (P1, A2).
func (ex *Exec) sfuExp2(x float32) float32 {
	return ex.SFU.Approx(x, float32(math.Exp2(float64(x))))
}

func (ex *Exec) sfuLog2(x float32) float32 {
	return ex.SFU.Approx(x, float32(math.Log2(float64(x))))
}

// Helpers used by SFUConfig.Approx (kept here with the math imports).
func isInfOrNaN(x float32) bool {
	return math.IsInf(float64(x), 0) || math.IsNaN(float64(x))
}

func mathFloat32bits(x float32) uint32 { return math.Float32bits(x) }

func pow2(n int) float64 { return math.Pow(2, float64(n)) }

func (ex *Exec) evalBuiltin(n *glsl.CallExpr, f *frame) (Value, error) {
	sig := n.Builtin
	args := make([]Value, len(n.Args))
	for i, a := range n.Args {
		v, err := ex.evalExpr(a, f)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	out := Value{T: n.Type()}
	nc := n.Type().ComponentCount()
	an, dim := 0, 0
	if len(n.Args) > 0 {
		an, dim = n.Args[0].Type().ComponentCount(), n.Args[0].Type().MatrixDim()
	}
	cost, _ := builtinCost(sig.ID, nc, an, dim)
	ex.Stats.AddStats(&cost)

	// comp fetches component i of argument k with scalar broadcast.
	comp := func(k, i int) float32 {
		if args[k].T.IsScalar() {
			return args[k].F[0]
		}
		return args[k].F[i]
	}

	un := func(fn func(float64) float64, sfu bool) {
		for i := 0; i < nc; i++ {
			r := float32(fn(float64(args[0].F[i])))
			if sfu {
				r = ex.SFU.Quantize(r)
			}
			out.F[i] = r
		}
	}

	switch sig.ID {
	case glsl.BRadians:
		un(func(x float64) float64 { return x * math.Pi / 180 }, false)
	case glsl.BDegrees:
		un(func(x float64) float64 { return x * 180 / math.Pi }, false)
	case glsl.BSin:
		un(math.Sin, true)
	case glsl.BCos:
		un(math.Cos, true)
	case glsl.BTan:
		un(math.Tan, true)
	case glsl.BAsin:
		un(math.Asin, true)
	case glsl.BAcos:
		un(math.Acos, true)
	case glsl.BAtan:
		un(math.Atan, true)
	case glsl.BAtan2:
		for i := 0; i < nc; i++ {
			out.F[i] = float32(math.Atan2(float64(comp(0, i)), float64(comp(1, i))))
		}
	case glsl.BPow:
		// pow(x,y) = exp2(y*log2(x)): inherits SFU quantization twice, the
		// dominant error source in the float codec.
		for i := 0; i < nc; i++ {
			x, y := comp(0, i), comp(1, i)
			out.F[i] = ex.sfuExp2(y * ex.sfuLog2(x))
		}
	case glsl.BExp:
		for i := 0; i < nc; i++ {
			out.F[i] = ex.sfuExp2(args[0].F[i] * float32(math.Log2E))
		}
	case glsl.BLog:
		for i := 0; i < nc; i++ {
			out.F[i] = ex.sfuLog2(args[0].F[i]) * float32(math.Ln2)
		}
	case glsl.BExp2:
		for i := 0; i < nc; i++ {
			out.F[i] = ex.sfuExp2(args[0].F[i])
		}
	case glsl.BLog2:
		for i := 0; i < nc; i++ {
			out.F[i] = ex.sfuLog2(args[0].F[i])
		}
	case glsl.BSqrt:
		// sqrt = x * rsqrt(x) with refinement: near-exact on HW.
		un(math.Sqrt, false)
	case glsl.BInverseSqrt:
		un(func(x float64) float64 { return 1 / math.Sqrt(x) }, false)
	case glsl.BAbs:
		un(math.Abs, false)
	case glsl.BSign:
		un(func(x float64) float64 {
			if x > 0 {
				return 1
			}
			if x < 0 {
				return -1
			}
			return 0
		}, false)
	case glsl.BFloor:
		un(math.Floor, false)
	case glsl.BCeil:
		un(math.Ceil, false)
	case glsl.BFract:
		un(func(x float64) float64 { return x - math.Floor(x) }, false)
	case glsl.BMod:
		for i := 0; i < nc; i++ {
			a, b := comp(0, i), comp(1, i)
			// GLSL: mod(x,y) = x - y*floor(x/y), computed in fp32.
			out.F[i] = a - b*float32(math.Floor(float64(a/b)))
		}
	case glsl.BMin:
		for i := 0; i < nc; i++ {
			out.F[i] = minf(comp(0, i), comp(1, i))
		}
	case glsl.BMax:
		for i := 0; i < nc; i++ {
			out.F[i] = maxf(comp(0, i), comp(1, i))
		}
	case glsl.BClamp:
		for i := 0; i < nc; i++ {
			out.F[i] = minf(maxf(args[0].F[i], comp(1, i)), comp(2, i))
		}
	case glsl.BMix:
		for i := 0; i < nc; i++ {
			a, b, t := args[0].F[i], args[1].F[i], comp(2, i)
			out.F[i] = a*(1-t) + b*t
		}
	case glsl.BStep:
		for i := 0; i < nc; i++ {
			if comp(1, i) < comp(0, i) {
				out.F[i] = 0
			} else {
				out.F[i] = 1
			}
		}
	case glsl.BSmoothstep:
		for i := 0; i < nc; i++ {
			e0, e1, x := comp(0, i), comp(1, i), args[len(args)-1].F[i]
			t := (x - e0) / (e1 - e0)
			if t < 0 {
				t = 0
			}
			if t > 1 {
				t = 1
			}
			out.F[i] = t * t * (3 - 2*t)
		}
	case glsl.BLength:
		var s float64
		for i := 0; i < an; i++ {
			s += float64(args[0].F[i]) * float64(args[0].F[i])
		}
		out.F[0] = float32(math.Sqrt(s))
	case glsl.BDistance:
		var s float64
		for i := 0; i < an; i++ {
			d := float64(args[0].F[i] - args[1].F[i])
			s += d * d
		}
		out.F[0] = float32(math.Sqrt(s))
	case glsl.BDot:
		var s float32
		for i := 0; i < an; i++ {
			s += args[0].F[i] * args[1].F[i]
		}
		out.F[0] = s
	case glsl.BCross:
		a, b := args[0], args[1]
		out.F[0] = a.F[1]*b.F[2] - a.F[2]*b.F[1]
		out.F[1] = a.F[2]*b.F[0] - a.F[0]*b.F[2]
		out.F[2] = a.F[0]*b.F[1] - a.F[1]*b.F[0]
	case glsl.BNormalize:
		var s float64
		for i := 0; i < an; i++ {
			s += float64(args[0].F[i]) * float64(args[0].F[i])
		}
		inv := float32(1 / math.Sqrt(s))
		for i := 0; i < an; i++ {
			out.F[i] = args[0].F[i] * inv
		}
	case glsl.BFaceforward:
		// faceforward(N, I, Nref) = dot(Nref,I) < 0 ? N : -N
		var d float32
		for i := 0; i < an; i++ {
			d += args[2].F[i] * args[1].F[i]
		}
		for i := 0; i < an; i++ {
			if d < 0 {
				out.F[i] = args[0].F[i]
			} else {
				out.F[i] = -args[0].F[i]
			}
		}
	case glsl.BReflect:
		// reflect(I, N) = I - 2*dot(N,I)*N
		var d float32
		for i := 0; i < an; i++ {
			d += args[1].F[i] * args[0].F[i]
		}
		for i := 0; i < an; i++ {
			out.F[i] = args[0].F[i] - 2*d*args[1].F[i]
		}
	case glsl.BRefract:
		eta := args[2].F[0]
		var d float64
		for i := 0; i < an; i++ {
			d += float64(args[1].F[i]) * float64(args[0].F[i])
		}
		k := 1 - float64(eta)*float64(eta)*(1-d*d)
		if k < 0 {
			// total internal reflection: zero vector
		} else {
			for i := 0; i < an; i++ {
				out.F[i] = eta*args[0].F[i] - float32(float64(eta)*d+math.Sqrt(k))*args[1].F[i]
			}
		}
	case glsl.BMatrixCompMult:
		for i := 0; i < dim*dim; i++ {
			out.F[i] = args[0].F[i] * args[1].F[i]
		}
	case glsl.BLessThan, glsl.BLessThanEqual, glsl.BGreaterThan, glsl.BGreaterThanEqual,
		glsl.BEqual, glsl.BNotEqual:
		for i := 0; i < an; i++ {
			a, b := args[0].F[i], args[1].F[i]
			var r bool
			switch sig.ID {
			case glsl.BLessThan:
				r = a < b
			case glsl.BLessThanEqual:
				r = a <= b
			case glsl.BGreaterThan:
				r = a > b
			case glsl.BGreaterThanEqual:
				r = a >= b
			case glsl.BEqual:
				r = a == b
			case glsl.BNotEqual:
				r = a != b
			}
			if r {
				out.F[i] = 1
			}
		}
	case glsl.BAny:
		for i := 0; i < an; i++ {
			if args[0].F[i] != 0 {
				out.F[0] = 1
			}
		}
	case glsl.BAll:
		out.F[0] = 1
		for i := 0; i < an; i++ {
			if args[0].F[i] == 0 {
				out.F[0] = 0
			}
		}
	case glsl.BNot:
		for i := 0; i < an; i++ {
			if args[0].F[i] == 0 {
				out.F[i] = 1
			}
		}
	case glsl.BTexture2D, glsl.BTexture2DBias, glsl.BTexture2DLod:
		unit := int(args[0].F[0])
		rgba := ex.Textures.Sample2D(unit, args[1].F[0], args[1].F[1])
		copy(out.F[:4], rgba[:])
	case glsl.BTexture2DProj3:
		unit := int(args[0].F[0])
		q := args[1].F[2]
		rgba := ex.Textures.Sample2D(unit, args[1].F[0]/q, args[1].F[1]/q)
		copy(out.F[:4], rgba[:])
	case glsl.BTexture2DProj4, glsl.BTexture2DProjLod4:
		unit := int(args[0].F[0])
		q := args[1].F[3]
		rgba := ex.Textures.Sample2D(unit, args[1].F[0]/q, args[1].F[1]/q)
		copy(out.F[:4], rgba[:])
	case glsl.BTexture2DProjLod3:
		unit := int(args[0].F[0])
		q := args[1].F[2]
		rgba := ex.Textures.Sample2D(unit, args[1].F[0]/q, args[1].F[1]/q)
		copy(out.F[:4], rgba[:])
	case glsl.BTextureCube, glsl.BTextureCubeBias, glsl.BTextureCubeLod:
		unit := int(args[0].F[0])
		rgba := ex.Textures.SampleCube(unit, args[1].F[0], args[1].F[1], args[1].F[2])
		copy(out.F[:4], rgba[:])
	default:
		return Value{}, ex.rtError(n.Pos, "builtin %q not implemented", sig.Name)
	}
	return out, nil
}

func minf(a, b float32) float32 {
	if b < a {
		return b
	}
	return a
}

func maxf(a, b float32) float32 {
	if b > a {
		return b
	}
	return a
}
