package shader

// The register machine executing bytecode produced by Compile. One VM is
// one shader invocation context (the draw loop creates one per worker, like
// it does for the interpreter); Run executes main() with zero heap
// allocation per invocation. All arithmetic reproduces the interpreter in
// eval.go/builtins_exec.go bit-for-bit — the differential tests in
// vm_test.go and internal/paper enforce it. Stats are counted per region,
// not per operation: the op that ends a straight-line region bumps that
// region's count, and StatsRef folds the counts into Stats (compile.go).
// A fused op writes only its result and the registers a later instruction
// reads (the watermark and fence of specialize.go), so a temporary it
// skips keeps whatever it held, and nothing reads it.

import (
	"math"
	"strconv"

	"glescompute/internal/glsl"
)

// VM executes a Compiled program. Not safe for concurrent use; create one
// VM per worker over a shared *Compiled.
type VM struct {
	Textures TextureSampler
	SFU      SFUConfig

	// MaxLoopIter guards against runaway shaders, like Exec.MaxLoopIter.
	MaxLoopIter int

	// stats holds the counters folded so far; hits counts, by stats-table
	// index, the regions run since the last fold. Only StatsRef reads
	// stats, and it folds first.
	stats Stats
	hits  []uint64

	c         *Compiled
	regs      []float32
	snap      []float32 // globals snapshot taken by InitGlobals
	callStack []int32
	loopIters []int

	// discarding marks a discard executed in a callee body: the caller's
	// out/inout writebacks still run before the invocation aborts,
	// mirroring the interpreter's one-level unwind (evalUserCall).
	discarding bool
}

// NewVM creates an executor over compiled code.
func NewVM(c *Compiled, tex TextureSampler, sfu SFUConfig) *VM {
	if tex == nil {
		tex = nullSampler{}
	}
	vm := &VM{
		Textures:  tex,
		SFU:       sfu,
		c:         c,
		hits:      make([]uint64, len(c.stats)),
		regs:      make([]float32, c.nregs),
		callStack: make([]int32, c.maxDepth),
		loopIters: make([]int, len(c.poss)),
	}
	// Builtin register defaults, mirroring NewExec.
	if c.Prog.Stage == glsl.StageVertex {
		vm.regs[c.builtinOff[glsl.BVSlotPointSize]] = 1
	} else {
		vm.regs[c.builtinOff[glsl.BVSlotFrontFacing]] = 1
	}
	return vm
}

// Compiled returns the program this VM executes.
func (vm *VM) Compiled() *Compiled { return vm.c }

func (vm *VM) loopLimit() int {
	if vm.MaxLoopIter > 0 {
		return vm.MaxLoopIter
	}
	return DefaultMaxLoopIter
}

// StatsRef folds the regions run since the last call into the VM's
// counters (each region's Stats delta times its count) and returns them.
// The draw loop calls it once per worker per draw.
func (vm *VM) StatsRef() *Stats {
	for i, h := range vm.hits {
		if h != 0 {
			vm.stats.AddScaled(&vm.c.stats[i], h)
			vm.hits[i] = 0
		}
	}
	return &vm.stats
}

// InitGlobals runs the file-scope initializer segment and snapshots global
// state, mirroring Exec.InitGlobals (including its Stats accounting).
func (vm *VM) InitGlobals() error {
	discarded, err := vm.exec(vm.c.initEntry)
	if err != nil {
		return err
	}
	if discarded {
		// A discard reached from a global initializer is an init failure,
		// like the interpreter's errDiscard escaping InitGlobals.
		return &RuntimeError{Msg: "discard"}
	}
	if vm.snap == nil {
		vm.snap = make([]float32, vm.c.globalEnd-vm.c.globalBase)
	}
	copy(vm.snap, vm.regs[vm.c.globalBase:vm.c.globalEnd])
	return nil
}

// SetGlobal stores a runtime value into a global's registers (uniforms,
// attributes). Mirrors Exec.SetGlobal: the post-init snapshot is updated
// too, so per-run resets preserve the value.
func (vm *VM) SetGlobal(d *glsl.VarDecl, val Value) {
	off := vm.c.globalOff[d.Slot]
	n := flatSize(d.DeclType)
	flattenValueInto(vm.regs[off:off+n], val)
	if vm.snap != nil {
		copy(vm.snap[off-vm.c.globalBase:off-vm.c.globalBase+n], vm.regs[off:off+n])
	}
}

// Run executes main() once. It reports whether the fragment was discarded.
func (vm *VM) Run() (bool, error) {
	if vm.snap != nil {
		for _, r := range vm.c.mutatedRanges {
			off, n := r[0], r[1]
			copy(vm.regs[off:off+n], vm.snap[off-vm.c.globalBase:off-vm.c.globalBase+n])
		}
	}
	vm.stats.Invocations++
	return vm.exec(vm.c.mainEntry)
}

func (vm *VM) exec(entry int32) (bool, error) {
	code := vm.c.code
	regs := vm.regs
	hits := vm.hits
	limit := vm.loopLimit()
	pc := entry
	sp := 0
	vm.discarding = false
	for {
		in := &code[pc]
		switch in.op {
		case opNop:
		case opStats:
			hits[in.aux]++
		case opJmp:
			hits[in.n]++
			pc = in.aux
			continue
		case opJz:
			hits[in.n]++
			if regs[in.a] == 0 {
				pc = in.aux
				continue
			}
		case opJnz:
			hits[in.n]++
			if regs[in.a] != 0 {
				pc = in.aux
				continue
			}
		case opCall:
			hits[in.n]++
			if sp == len(vm.callStack) {
				// Only a corrupt program binary recurses (GLSL ES forbids it).
				return false, &RuntimeError{Msg: "vm: call depth exceeds " + strconv.Itoa(sp)}
			}
			vm.callStack[sp] = pc + 1
			sp++
			pc = vm.c.funcs[in.aux].entry
			continue
		case opRet:
			hits[in.n]++
			if sp == 0 {
				return false, nil
			}
			sp--
			pc = vm.callStack[sp]
			continue
		case opDiscard:
			// Discard in main finishes immediately; in a callee it unwinds
			// one level so the call site's writeback epilogue (and its
			// Stats) still runs, like the interpreter's ctrlDiscard path.
			hits[in.n]++
			if sp == 0 {
				return true, nil
			}
			vm.discarding = true
			sp--
			pc = vm.callStack[sp]
			continue
		case opDiscardTake:
			regs[in.dst] = b2f(vm.discarding)
			vm.discarding = false
		case opDiscardHalt:
			hits[in.n]++
			if regs[in.a] != 0 {
				return true, nil
			}
		case opLoopReset:
			vm.loopIters[in.aux] = 0
		case opLoopBack:
			hits[in.n]++
			if vm.loopIters[in.b]++; vm.loopIters[in.b] > limit {
				return false, vm.runaway(in.b)
			}
			pc = in.aux
			continue
		case opLoadImm:
			regs[in.dst] = in.imm
		case opZero:
			for i := int32(0); i < in.n; i++ {
				regs[in.dst+i] = 0
			}
		case opMov:
			if in.n == 1 {
				regs[in.dst] = regs[in.a]
			} else {
				copy(regs[in.dst:in.dst+in.n], regs[in.a:in.a+in.n])
			}
		case opSplat:
			v := regs[in.a]
			for i := int32(0); i < in.n; i++ {
				regs[in.dst+i] = v
			}
		case opSwizLoad:
			for i := int32(0); i < in.n; i++ {
				regs[in.dst+i] = regs[in.a+(in.aux>>(4*i))&0xf]
			}
		case opSwizStore:
			for i := int32(0); i < in.n; i++ {
				regs[in.dst+(in.aux>>(4*i))&0xf] = regs[in.a+i]
			}
		case opLoadInd:
			ad, ok := indirect(regs, in.a, in.n)
			if !ok {
				return false, errIndirect
			}
			copy(regs[in.dst:in.dst+in.n], regs[ad:ad+in.n])
		case opStoreInd:
			ad, ok := indirect(regs, in.a, in.n)
			if !ok {
				return false, errIndirect
			}
			copy(regs[ad:ad+in.n], regs[in.b:in.b+in.n])
		case opLoadIndC:
			ad, ok := indirect(regs, in.a, swizSpan(in.aux, in.n))
			if !ok {
				return false, errIndirect
			}
			for i := int32(0); i < in.n; i++ {
				regs[in.dst+i] = regs[ad+(in.aux>>(4*i))&0xf]
			}
		case opStoreIndC:
			ad, ok := indirect(regs, in.a, swizSpan(in.aux, in.n))
			if !ok {
				return false, errIndirect
			}
			for i := int32(0); i < in.n; i++ {
				regs[ad+(in.aux>>(4*i))&0xf] = regs[in.b+i]
			}
		case opAddrOff:
			regs[in.dst] = regs[in.a] + float32(in.n)
		case opDynAddr:
			base := in.c
			if in.b >= 0 {
				base = int32(regs[in.b])
			}
			idx := clampIndex(int(int32(regs[in.a])), int(in.aux))
			regs[in.dst] = float32(base + int32(idx)*in.n)
		case opDynPick:
			base := in.c
			if in.b >= 0 {
				base = int32(regs[in.b])
			}
			limit := int(in.aux & 0xff)
			idx := clampIndex(int(int32(regs[in.a])), limit)
			comp := (in.aux >> (8 + 4*int32(idx))) & 0xf
			regs[in.dst] = float32(base + comp)
		case opAdd:
			d, x, y := in.dst, in.a, in.b
			if in.aux == 0 {
				for i := int32(0); i < in.n; i++ {
					regs[d+i] = regs[x+i] + regs[y+i]
				}
			} else {
				for i := int32(0); i < in.n; i++ {
					regs[d+i] = bcast(regs, x, i, in.aux&1 != 0) + bcast(regs, y, i, in.aux&2 != 0)
				}
			}
		case opSub:
			d, x, y := in.dst, in.a, in.b
			if in.aux == 0 {
				for i := int32(0); i < in.n; i++ {
					regs[d+i] = regs[x+i] - regs[y+i]
				}
			} else {
				for i := int32(0); i < in.n; i++ {
					regs[d+i] = bcast(regs, x, i, in.aux&1 != 0) - bcast(regs, y, i, in.aux&2 != 0)
				}
			}
		case opMul:
			d, x, y := in.dst, in.a, in.b
			if in.aux == 0 {
				for i := int32(0); i < in.n; i++ {
					regs[d+i] = regs[x+i] * regs[y+i]
				}
			} else {
				for i := int32(0); i < in.n; i++ {
					regs[d+i] = bcast(regs, x, i, in.aux&1 != 0) * bcast(regs, y, i, in.aux&2 != 0)
				}
			}
		case opDivF:
			d, x, y := in.dst, in.a, in.b
			for i := int32(0); i < in.n; i++ {
				regs[d+i] = bcast(regs, x, i, in.aux&1 != 0) / bcast(regs, y, i, in.aux&2 != 0)
			}
		case opDivI:
			d, x, y := in.dst, in.a, in.b
			for i := int32(0); i < in.n; i++ {
				a := bcast(regs, x, i, in.aux&1 != 0)
				b := bcast(regs, y, i, in.aux&2 != 0)
				if b == 0 {
					regs[d+i] = 0 // undefined in GLSL; pick 0 deterministically
				} else {
					regs[d+i] = truncToward0(float64(a) / float64(b))
				}
			}
		case opNeg:
			for i := int32(0); i < in.n; i++ {
				regs[in.dst+i] = -regs[in.a+i]
			}
		case opNot:
			if regs[in.a] == 0 {
				regs[in.dst] = 1
			} else {
				regs[in.dst] = 0
			}
		case opBoolNorm:
			if regs[in.a] != 0 {
				regs[in.dst] = 1
			} else {
				regs[in.dst] = 0
			}
		case opXorXor:
			if (regs[in.a] != 0) != (regs[in.b] != 0) {
				regs[in.dst] = 1
			} else {
				regs[in.dst] = 0
			}
		case opLt:
			regs[in.dst] = b2f(regs[in.a] < regs[in.b])
		case opLe:
			regs[in.dst] = b2f(regs[in.a] <= regs[in.b])
		case opGt:
			regs[in.dst] = b2f(regs[in.a] > regs[in.b])
		case opGe:
			regs[in.dst] = b2f(regs[in.a] >= regs[in.b])
		case opEqV, opNeV:
			eq := true
			for i := int32(0); i < in.n; i++ {
				if regs[in.a+i] != regs[in.b+i] {
					eq = false
					break
				}
			}
			if in.op == opNeV {
				eq = !eq
			}
			regs[in.dst] = b2f(eq)
		case opConvInt:
			for i := int32(0); i < in.n; i++ {
				regs[in.dst+i] = truncToward0(float64(regs[in.a+i]))
			}
		case opConvBool:
			for i := int32(0); i < in.n; i++ {
				regs[in.dst+i] = b2f(regs[in.a+i] != 0)
			}
		case opMatDiag:
			n := in.n
			for i := int32(0); i < n*n; i++ {
				regs[in.dst+i] = 0
			}
			v := regs[in.a]
			for i := int32(0); i < n; i++ {
				regs[in.dst+i*n+i] = v
			}
		case opMatMulMM:
			n := in.n
			for col := int32(0); col < n; col++ {
				for row := int32(0); row < n; row++ {
					var s float32
					for k := int32(0); k < n; k++ {
						s += regs[in.a+k*n+row] * regs[in.b+col*n+k]
					}
					regs[in.dst+col*n+row] = s
				}
			}
		case opMatMulMV:
			n := in.n
			for row := int32(0); row < n; row++ {
				var s float32
				for k := int32(0); k < n; k++ {
					s += regs[in.a+k*n+row] * regs[in.b+k]
				}
				regs[in.dst+row] = s
			}
		case opMatMulVM:
			n := in.n
			for col := int32(0); col < n; col++ {
				var s float32
				for k := int32(0); k < n; k++ {
					s += regs[in.a+k] * regs[in.b+col*n+k]
				}
				regs[in.dst+col] = s
			}
		case opBuiltin:
			vm.execBuiltin(&vm.c.builtins[in.aux])

		// ---- Direct and fused forms (specialize.go). Each case reproduces
		// its generic execBuiltin or instruction-run counterpart exactly;
		// the zero-dst prologue is skipped because Compile allocates a
		// direct builtin's destination after its arguments. ----
		case opTex2D:
			unit := int(regs[in.a])
			rgba := vm.Textures.Sample2D(unit, regs[in.b], regs[in.b+1])
			regs[in.dst+0], regs[in.dst+1], regs[in.dst+2], regs[in.dst+3] = rgba[0], rgba[1], rgba[2], rgba[3]
		case opBFloor:
			for i := int32(0); i < in.n; i++ {
				regs[in.dst+i] = float32(math.Floor(float64(regs[in.a+i])))
			}
		case opBFract:
			for i := int32(0); i < in.n; i++ {
				x := float64(regs[in.a+i])
				regs[in.dst+i] = float32(x - math.Floor(x))
			}
		case opBMod:
			for i := int32(0); i < in.n; i++ {
				a := bcast(regs, in.a, i, in.aux&1 != 0)
				b := bcast(regs, in.b, i, in.aux&2 != 0)
				regs[in.dst+i] = a - b*float32(math.Floor(float64(a/b)))
			}
		case opBMin:
			for i := int32(0); i < in.n; i++ {
				regs[in.dst+i] = minf(bcast(regs, in.a, i, in.aux&1 != 0), bcast(regs, in.b, i, in.aux&2 != 0))
			}
		case opBMax:
			for i := int32(0); i < in.n; i++ {
				regs[in.dst+i] = maxf(bcast(regs, in.a, i, in.aux&1 != 0), bcast(regs, in.b, i, in.aux&2 != 0))
			}
		case opBClamp:
			for i := int32(0); i < in.n; i++ {
				lo := bcast(regs, in.b, i, in.aux&1 != 0)
				hi := bcast(regs, in.c, i, in.aux&2 != 0)
				regs[in.dst+i] = minf(maxf(regs[in.a+i], lo), hi)
			}
		case opBStep:
			for i := int32(0); i < in.n; i++ {
				if bcast(regs, in.b, i, in.aux&2 != 0) < bcast(regs, in.a, i, in.aux&1 != 0) {
					regs[in.dst+i] = 0
				} else {
					regs[in.dst+i] = 1
				}
			}
		case opBDot:
			var s float32
			for i := int32(0); i < in.n; i++ {
				s += regs[in.a+i] * regs[in.b+i]
			}
			regs[in.dst] = s
		case opMulImm:
			for i := int32(0); i < in.n; i++ {
				regs[in.dst+i] = bcast(regs, in.a, i, in.aux&1 != 0) * in.imm
			}
		case opAddImm:
			for i := int32(0); i < in.n; i++ {
				regs[in.dst+i] = bcast(regs, in.a, i, in.aux&1 != 0) + in.imm
			}
		case opMulAdd:
			for i := int32(0); i < in.n; i++ {
				// Explicit float32 conversion: the product must be rounded,
				// never contracted with the add into an FMA.
				m := float32(bcast(regs, in.a, i, in.aux&1 != 0) * bcast(regs, in.b, i, in.aux&2 != 0))
				regs[in.dst+i] = m + bcast(regs, in.c, i, in.aux&4 != 0)
			}
		case opBrLt, opBrLe, opBrGt, opBrGe:
			x, y := regs[in.a], in.imm
			if in.b >= 0 {
				y = regs[in.b]
			}
			var r bool
			switch in.op {
			case opBrLt:
				r = x < y
			case opBrLe:
				r = x <= y
			case opBrGt:
				r = x > y
			default:
				r = x >= y
			}
			hits[in.n]++
			if !r {
				pc = in.aux
				continue
			}
		case opLoopStep:
			regs[in.a] += in.imm
			hits[in.n]++
			if vm.loopIters[in.b]++; vm.loopIters[in.b] > limit {
				return false, vm.runaway(in.b)
			}
			pc = in.aux
			continue
		case opTexDecode:
			tab := &decodeTables[in.aux]
			unit, s, t := int(regs[in.a]), regs[in.b], regs[in.b+1]
			if px, ok := vm.Textures.Texel2D(unit, s, t); ok {
				for i, b := range px {
					regs[in.c+int32(i)] = unorm8[b]
					regs[in.dst+int32(i)] = tab.out[b]
				}
			} else {
				for i, v := range vm.Textures.Sample2D(unit, s, t) {
					regs[in.c+int32(i)] = v
					regs[in.dst+int32(i)] = tab.decode(v)
				}
			}
		default:
			return false, &RuntimeError{Msg: "vm: unknown opcode " + strconv.Itoa(int(in.op))}
		}
		pc++
	}
}

// runaway is the error of loop id once a back edge has taken it past the
// iteration limit, like the interpreter's per-iteration check.
func (vm *VM) runaway(id int32) error {
	return &RuntimeError{
		Pos: vm.c.poss[id],
		Msg: "loop exceeded " + strconv.Itoa(vm.loopLimit()) + " iterations (runaway shader)",
	}
}

// indirect reads the address in regs[a] and reports whether span
// registers from it exist. Compile's addresses always do (opDynAddr
// clamps the index); a corrupt program binary's need not, and program
// binaries cannot be checked for computed addresses before they run.
func indirect(regs []float32, a, span int32) (int32, bool) {
	ad := int32(regs[a])
	return ad, ad >= 0 && span >= 0 && int64(ad)+int64(span) <= int64(len(regs))
}

var errIndirect = &RuntimeError{Msg: "vm: indirect address outside the register file"}

func bcast(regs []float32, base, i int32, scalar bool) float32 {
	if scalar {
		return regs[base]
	}
	return regs[base+i]
}

func b2f(b bool) float32 {
	if b {
		return 1
	}
	return 0
}

// sfuExp2 and sfuLog2 mirror the Exec methods (builtinCost counts their
// SFU ops).
func (vm *VM) sfuExp2(x float32) float32 {
	return vm.SFU.Approx(x, float32(math.Exp2(float64(x))))
}

func (vm *VM) sfuLog2(x float32) float32 {
	return vm.SFU.Approx(x, float32(math.Log2(float64(x))))
}

// execBuiltin reproduces Exec.evalBuiltin's arithmetic over registers.
// Every case must stay bit-for-bit identical to builtins_exec.go.
func (vm *VM) execBuiltin(d *builtinDesc) {
	regs := vm.regs
	nc := d.nc
	out := d.dst
	// Zero the destination first, like the interpreter's fresh out Value
	// (some builtins write components conditionally, e.g. refract).
	for i := int32(0); i < maxI32(nc, 1); i++ {
		regs[out+i] = 0
	}
	arg := func(k, i int32) float32 { return regs[d.args[k]+i] }
	// comp fetches component i of argument k with scalar broadcast.
	comp := func(k, i int32) float32 {
		if d.scalar[k] {
			return regs[d.args[k]]
		}
		return regs[d.args[k]+i]
	}
	un := func(fn func(float64) float64, sfu bool) {
		for i := int32(0); i < nc; i++ {
			r := float32(fn(float64(arg(0, i))))
			if sfu {
				r = vm.SFU.Quantize(r)
			}
			regs[out+i] = r
		}
	}

	switch d.id {
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
		for i := int32(0); i < nc; i++ {
			regs[out+i] = float32(math.Atan2(float64(comp(0, i)), float64(comp(1, i))))
		}
	case glsl.BPow:
		for i := int32(0); i < nc; i++ {
			x, y := comp(0, i), comp(1, i)
			regs[out+i] = vm.sfuExp2(y * vm.sfuLog2(x))
		}
	case glsl.BExp:
		for i := int32(0); i < nc; i++ {
			regs[out+i] = vm.sfuExp2(arg(0, i) * float32(math.Log2E))
		}
	case glsl.BLog:
		for i := int32(0); i < nc; i++ {
			regs[out+i] = vm.sfuLog2(arg(0, i)) * float32(math.Ln2)
		}
	case glsl.BExp2:
		for i := int32(0); i < nc; i++ {
			regs[out+i] = vm.sfuExp2(arg(0, i))
		}
	case glsl.BLog2:
		for i := int32(0); i < nc; i++ {
			regs[out+i] = vm.sfuLog2(arg(0, i))
		}
	case glsl.BSqrt:
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
		for i := int32(0); i < nc; i++ {
			a, b := comp(0, i), comp(1, i)
			regs[out+i] = a - b*float32(math.Floor(float64(a/b)))
		}
	case glsl.BMin:
		for i := int32(0); i < nc; i++ {
			regs[out+i] = minf(comp(0, i), comp(1, i))
		}
	case glsl.BMax:
		for i := int32(0); i < nc; i++ {
			regs[out+i] = maxf(comp(0, i), comp(1, i))
		}
	case glsl.BClamp:
		for i := int32(0); i < nc; i++ {
			regs[out+i] = minf(maxf(arg(0, i), comp(1, i)), comp(2, i))
		}
	case glsl.BMix:
		for i := int32(0); i < nc; i++ {
			a, b, t := arg(0, i), arg(1, i), comp(2, i)
			regs[out+i] = a*(1-t) + b*t
		}
	case glsl.BStep:
		for i := int32(0); i < nc; i++ {
			if comp(1, i) < comp(0, i) {
				regs[out+i] = 0
			} else {
				regs[out+i] = 1
			}
		}
	case glsl.BSmoothstep:
		for i := int32(0); i < nc; i++ {
			e0, e1, x := comp(0, i), comp(1, i), arg(d.nargs-1, i)
			t := (x - e0) / (e1 - e0)
			if t < 0 {
				t = 0
			}
			if t > 1 {
				t = 1
			}
			regs[out+i] = t * t * (3 - 2*t)
		}
	case glsl.BLength:
		var s float64
		for i := int32(0); i < d.an; i++ {
			s += float64(arg(0, i)) * float64(arg(0, i))
		}
		regs[out] = float32(math.Sqrt(s))
	case glsl.BDistance:
		var s float64
		for i := int32(0); i < d.an; i++ {
			df := float64(arg(0, i) - arg(1, i))
			s += df * df
		}
		regs[out] = float32(math.Sqrt(s))
	case glsl.BDot:
		var s float32
		for i := int32(0); i < d.an; i++ {
			s += arg(0, i) * arg(1, i)
		}
		regs[out] = s
	case glsl.BCross:
		a0, a1, a2 := arg(0, 0), arg(0, 1), arg(0, 2)
		b0, b1, b2 := arg(1, 0), arg(1, 1), arg(1, 2)
		regs[out+0] = a1*b2 - a2*b1
		regs[out+1] = a2*b0 - a0*b2
		regs[out+2] = a0*b1 - a1*b0
	case glsl.BNormalize:
		var s float64
		for i := int32(0); i < d.an; i++ {
			s += float64(arg(0, i)) * float64(arg(0, i))
		}
		inv := float32(1 / math.Sqrt(s))
		for i := int32(0); i < d.an; i++ {
			regs[out+i] = arg(0, i) * inv
		}
	case glsl.BFaceforward:
		var dd float32
		for i := int32(0); i < d.an; i++ {
			dd += arg(2, i) * arg(1, i)
		}
		for i := int32(0); i < d.an; i++ {
			if dd < 0 {
				regs[out+i] = arg(0, i)
			} else {
				regs[out+i] = -arg(0, i)
			}
		}
	case glsl.BReflect:
		var dd float32
		for i := int32(0); i < d.an; i++ {
			dd += arg(1, i) * arg(0, i)
		}
		for i := int32(0); i < d.an; i++ {
			regs[out+i] = arg(0, i) - 2*dd*arg(1, i)
		}
	case glsl.BRefract:
		eta := regs[d.args[2]]
		var dd float64
		for i := int32(0); i < d.an; i++ {
			dd += float64(arg(1, i)) * float64(arg(0, i))
		}
		k := 1 - float64(eta)*float64(eta)*(1-dd*dd)
		if k >= 0 {
			for i := int32(0); i < d.an; i++ {
				regs[out+i] = eta*arg(0, i) - float32(float64(eta)*dd+math.Sqrt(k))*arg(1, i)
			}
		}
	case glsl.BMatrixCompMult:
		for i := int32(0); i < d.dim*d.dim; i++ {
			regs[out+i] = arg(0, i) * arg(1, i)
		}
	case glsl.BLessThan, glsl.BLessThanEqual, glsl.BGreaterThan, glsl.BGreaterThanEqual,
		glsl.BEqual, glsl.BNotEqual:
		for i := int32(0); i < d.an; i++ {
			a, b := arg(0, i), arg(1, i)
			var r bool
			switch d.id {
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
				regs[out+i] = 1
			}
		}
	case glsl.BAny:
		for i := int32(0); i < d.an; i++ {
			if arg(0, i) != 0 {
				regs[out] = 1
			}
		}
	case glsl.BAll:
		regs[out] = 1
		for i := int32(0); i < d.an; i++ {
			if arg(0, i) == 0 {
				regs[out] = 0
			}
		}
	case glsl.BNot:
		for i := int32(0); i < d.an; i++ {
			if arg(0, i) == 0 {
				regs[out+i] = 1
			}
		}
	case glsl.BTexture2D, glsl.BTexture2DBias, glsl.BTexture2DLod:
		unit := int(regs[d.args[0]])
		rgba := vm.Textures.Sample2D(unit, arg(1, 0), arg(1, 1))
		regs[out+0], regs[out+1], regs[out+2], regs[out+3] = rgba[0], rgba[1], rgba[2], rgba[3]
	case glsl.BTexture2DProj3, glsl.BTexture2DProjLod3:
		unit := int(regs[d.args[0]])
		q := arg(1, 2)
		rgba := vm.Textures.Sample2D(unit, arg(1, 0)/q, arg(1, 1)/q)
		regs[out+0], regs[out+1], regs[out+2], regs[out+3] = rgba[0], rgba[1], rgba[2], rgba[3]
	case glsl.BTexture2DProj4, glsl.BTexture2DProjLod4:
		unit := int(regs[d.args[0]])
		q := arg(1, 3)
		rgba := vm.Textures.Sample2D(unit, arg(1, 0)/q, arg(1, 1)/q)
		regs[out+0], regs[out+1], regs[out+2], regs[out+3] = rgba[0], rgba[1], rgba[2], rgba[3]
	case glsl.BTextureCube, glsl.BTextureCubeBias, glsl.BTextureCubeLod:
		unit := int(regs[d.args[0]])
		rgba := vm.Textures.SampleCube(unit, arg(1, 0), arg(1, 1), arg(1, 2))
		regs[out+0], regs[out+1], regs[out+2], regs[out+3] = rgba[0], rgba[1], rgba[2], rgba[3]
	}
}
