package shader

import (
	"math"
	"testing"

	"glescompute/internal/glsl"
)

// fakeSampler returns a texel derived from the coordinates so tests can
// verify what was sampled.
type fakeSampler struct {
	texels map[int][4]float32
}

func (s *fakeSampler) Sample2D(unit int, u, v float32) [4]float32 {
	if t, ok := s.texels[unit]; ok {
		return t
	}
	return [4]float32{u, v, float32(unit), 1}
}

// Texel2D sends the VM to Sample2D: a fake texel need not be bytes.
func (s *fakeSampler) Texel2D(int, float32, float32) ([4]byte, bool) { return [4]byte{}, false }

func (s *fakeSampler) SampleCube(unit int, x, y, z float32) [4]float32 {
	return [4]float32{x, y, z, 1}
}

// runFragment compiles src as a fragment shader, applies setup, runs one
// invocation and returns gl_FragColor.
func runFragment(t *testing.T, src string, setup func(*Exec)) [4]float32 {
	t.Helper()
	prog, errs := glsl.CompileSource(src, glsl.StageFragment, glsl.CheckOptions{})
	if errs.Err() != nil {
		t.Fatalf("compile failed:\n%v", errs)
	}
	ex := NewExec(prog, &fakeSampler{}, ExactSFU)
	if setup != nil {
		setup(ex)
	}
	if err := ex.InitGlobals(); err != nil {
		t.Fatalf("InitGlobals: %v", err)
	}
	discarded, err := ex.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if discarded {
		t.Fatal("unexpected discard")
	}
	return ex.Builtins[glsl.BVSlotFragColor].Vec4()
}

func wrapMain(body string) string {
	return "precision mediump float;\nvoid main() {\n" + body + "\n}\n"
}

func approxEq(a, b float32, tol float64) bool {
	return math.Abs(float64(a)-float64(b)) <= tol
}

func checkColor(t *testing.T, got [4]float32, want [4]float32, tol float64) {
	t.Helper()
	for i := range want {
		if !approxEq(got[i], want[i], tol) {
			t.Errorf("component %d: got %g, want %g (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestExecArithmetic(t *testing.T) {
	got := runFragment(t, wrapMain(`
	float a = 2.0 + 3.0 * 4.0;
	float b = (10.0 - 4.0) / 3.0;
	float c = -a + 20.0;
	gl_FragColor = vec4(a, b, c, 1.0);`), nil)
	checkColor(t, got, [4]float32{14, 2, 6, 1}, 1e-6)
}

func TestExecIntArithmetic(t *testing.T) {
	got := runFragment(t, wrapMain(`
	int a = 7 / 2;
	int b = -7 / 2;  // trunc toward zero
	int c = 3 * 4 + 1;
	gl_FragColor = vec4(float(a), float(b), float(c), 1.0);`), nil)
	checkColor(t, got, [4]float32{3, -3, 13, 1}, 0)
}

func TestExecVectorOps(t *testing.T) {
	got := runFragment(t, wrapMain(`
	vec3 a = vec3(1.0, 2.0, 3.0);
	vec3 b = vec3(4.0, 5.0, 6.0);
	vec3 s = a + b * 2.0;
	float d = dot(a, b);
	gl_FragColor = vec4(s.x, s.y, s.z, d);`), nil)
	checkColor(t, got, [4]float32{9, 12, 15, 32}, 1e-6)
}

func TestExecSwizzleReadWrite(t *testing.T) {
	got := runFragment(t, wrapMain(`
	vec4 v = vec4(1.0, 2.0, 3.0, 4.0);
	vec2 sw = v.wy;
	v.xz = vec2(10.0, 30.0);
	gl_FragColor = vec4(sw, v.x, v.z);`), nil)
	checkColor(t, got, [4]float32{4, 2, 10, 30}, 0)
}

func TestExecMatrixVector(t *testing.T) {
	got := runFragment(t, wrapMain(`
	mat2 m = mat2(1.0, 2.0, 3.0, 4.0); // columns (1,2),(3,4)
	vec2 v = m * vec2(1.0, 1.0);       // (1+3, 2+4)
	vec2 w = vec2(1.0, 1.0) * m;       // row vec: (1+2, 3+4)
	gl_FragColor = vec4(v, w);`), nil)
	checkColor(t, got, [4]float32{4, 6, 3, 7}, 1e-6)
}

func TestExecMatrixMatrix(t *testing.T) {
	got := runFragment(t, wrapMain(`
	mat2 a = mat2(1.0, 2.0, 3.0, 4.0);
	mat2 b = mat2(5.0, 6.0, 7.0, 8.0);
	mat2 c = a * b;
	gl_FragColor = vec4(c[0][0], c[0][1], c[1][0], c[1][1]);`), nil)
	// a = [1 3; 2 4], b = [5 7; 6 8]; c = [23 31; 34 46] (column-major out)
	checkColor(t, got, [4]float32{23, 34, 31, 46}, 1e-6)
}

func TestExecForLoop(t *testing.T) {
	got := runFragment(t, wrapMain(`
	float acc = 0.0;
	for (int i = 0; i < 10; ++i) { acc += float(i); }
	gl_FragColor = vec4(acc);`), nil)
	checkColor(t, got, [4]float32{45, 45, 45, 45}, 0)
}

func TestExecNestedLoopsBreakContinue(t *testing.T) {
	got := runFragment(t, wrapMain(`
	float acc = 0.0;
	for (int i = 0; i < 5; ++i) {
		if (i == 3) break;
		for (int j = 0; j < 5; ++j) {
			if (j == 2) continue;
			acc += 1.0;
		}
	}
	gl_FragColor = vec4(acc);`), nil)
	// i in {0,1,2}: each inner contributes 4 -> 12
	checkColor(t, got, [4]float32{12, 12, 12, 12}, 0)
}

func TestExecWhileAndDoWhile(t *testing.T) {
	got := runFragment(t, wrapMain(`
	int i = 0;
	while (i < 5) { i++; }
	int j = 10;
	do { j--; } while (j > 7);
	gl_FragColor = vec4(float(i), float(j), 0.0, 1.0);`), nil)
	checkColor(t, got, [4]float32{5, 7, 0, 1}, 0)
}

func TestExecTernaryShortCircuit(t *testing.T) {
	got := runFragment(t, wrapMain(`
	float a = 1.0 < 2.0 ? 10.0 : 20.0;
	bool and1 = false && (1.0 / 0.0 > 0.0); // RHS not evaluated
	bool or1 = true || false;
	gl_FragColor = vec4(a, and1 ? 1.0 : 0.0, or1 ? 1.0 : 0.0, 1.0);`), nil)
	checkColor(t, got, [4]float32{10, 0, 1, 1}, 0)
}

func TestExecFunctionCalls(t *testing.T) {
	got := runFragment(t, `
precision mediump float;
float square(float x) { return x * x; }
vec2 swap(vec2 v) { return v.yx; }
void main() {
	vec2 s = swap(vec2(3.0, 4.0));
	gl_FragColor = vec4(square(5.0), s, 1.0);
}`, nil)
	checkColor(t, got, [4]float32{25, 4, 3, 1}, 0)
}

func TestExecOutInoutParams(t *testing.T) {
	got := runFragment(t, `
precision mediump float;
void produce(out float a, inout float b) { a = 7.0; b *= 2.0; }
void main() {
	float x; float y = 3.0;
	produce(x, y);
	gl_FragColor = vec4(x, y, 0.0, 1.0);
}`, nil)
	checkColor(t, got, [4]float32{7, 6, 0, 1}, 0)
}

func TestExecOverloadedUserFunctions(t *testing.T) {
	got := runFragment(t, `
precision mediump float;
float pick(float x) { return 1.0; }
float pick(vec2 x) { return 2.0; }
void main() { gl_FragColor = vec4(pick(0.0), pick(vec2(0.0)), 0.0, 1.0); }`, nil)
	checkColor(t, got, [4]float32{1, 2, 0, 1}, 0)
}

func TestExecStructsAndArrays(t *testing.T) {
	got := runFragment(t, `
precision mediump float;
struct Pair { float a; float b; };
void main() {
	Pair p = Pair(3.0, 4.0);
	p.b += 1.0;
	float arr[3];
	arr[0] = 10.0; arr[1] = 20.0; arr[2] = 30.0;
	float sum = 0.0;
	for (int i = 0; i < 3; ++i) { sum += arr[i]; }
	gl_FragColor = vec4(p.a, p.b, sum, 1.0);
}`, nil)
	checkColor(t, got, [4]float32{3, 5, 60, 1}, 0)
}

func TestExecDiscardInMainAndHelper(t *testing.T) {
	run := func(src string) bool {
		prog, errs := glsl.CompileSource(src, glsl.StageFragment, glsl.CheckOptions{})
		if errs.Err() != nil {
			t.Fatalf("compile failed:\n%v", errs)
		}
		ex := NewExec(prog, nil, ExactSFU)
		if err := ex.InitGlobals(); err != nil {
			t.Fatal(err)
		}
		discarded, err := ex.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return discarded
	}
	if !run("precision mediump float;\nvoid main(){ discard; }") {
		t.Error("discard in main not detected")
	}
	if !run(`
precision mediump float;
void helper() { discard; }
void main(){ helper(); gl_FragColor = vec4(1.0); }`) {
		t.Error("discard in helper not detected")
	}
	if run("precision mediump float;\nvoid main(){ if (false) discard; gl_FragColor = vec4(1.0); }") {
		t.Error("spurious discard")
	}
}

func TestExecTextureSampling(t *testing.T) {
	got := runFragment(t, `
precision mediump float;
uniform sampler2D tex;
void main() { gl_FragColor = texture2D(tex, vec2(0.25, 0.75)); }`,
		func(ex *Exec) {
			u := ex.Prog.LookupUniform("tex")
			ex.SetGlobal(u, SamplerVal(glsl.TypeSampler2D, 3))
		})
	checkColor(t, got, [4]float32{0.25, 0.75, 3, 1}, 1e-6)
}

func TestExecUniforms(t *testing.T) {
	got := runFragment(t, `
precision mediump float;
uniform float scale;
uniform vec2 offset;
void main() { gl_FragColor = vec4(offset * scale, scale, 1.0); }`,
		func(ex *Exec) {
			ex.SetGlobal(ex.Prog.LookupUniform("scale"), FloatVal(3))
			ex.SetGlobal(ex.Prog.LookupUniform("offset"), Vec2Val(1, 2))
		})
	checkColor(t, got, [4]float32{3, 6, 3, 1}, 0)
}

func TestExecMutableGlobalResetBetweenInvocations(t *testing.T) {
	prog, errs := glsl.CompileSource(`
precision mediump float;
float counter = 10.0;
void main() { counter += 1.0; gl_FragColor = vec4(counter); }`, glsl.StageFragment, glsl.CheckOptions{})
	if errs.Err() != nil {
		t.Fatalf("compile failed:\n%v", errs)
	}
	ex := NewExec(prog, nil, ExactSFU)
	if err := ex.InitGlobals(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ex.Run(); err != nil {
			t.Fatal(err)
		}
		got := ex.Builtins[glsl.BVSlotFragColor].F[0]
		if got != 11 {
			t.Fatalf("invocation %d: counter = %g, want 11 (no state leak)", i, got)
		}
	}
}

func TestExecBuiltinMathFunctions(t *testing.T) {
	got := runFragment(t, wrapMain(`
	float a = floor(2.7);
	float b = fract(2.75);
	float c = mod(7.0, 3.0);
	float d = clamp(5.0, 0.0, 2.0);
	gl_FragColor = vec4(a, b, c, d);`), nil)
	checkColor(t, got, [4]float32{2, 0.75, 1, 2}, 1e-6)

	got = runFragment(t, wrapMain(`
	float a = pow(2.0, 10.0);
	float b = sqrt(16.0);
	float c = exp2(3.0);
	float d = log2(8.0);
	gl_FragColor = vec4(a, b, c, d);`), nil)
	checkColor(t, got, [4]float32{1024, 4, 8, 3}, 1e-3)

	got = runFragment(t, wrapMain(`
	float a = sin(0.0);
	float b = cos(0.0);
	float c = abs(-3.5);
	float d = sign(-2.0);
	gl_FragColor = vec4(a, b, c, d);`), nil)
	checkColor(t, got, [4]float32{0, 1, 3.5, -1}, 1e-6)
}

func TestExecGeometricBuiltins(t *testing.T) {
	got := runFragment(t, wrapMain(`
	float l = length(vec3(3.0, 4.0, 0.0));
	float d = distance(vec2(0.0, 0.0), vec2(3.0, 4.0));
	vec3 n = normalize(vec3(10.0, 0.0, 0.0));
	vec3 c = cross(vec3(1.0, 0.0, 0.0), vec3(0.0, 1.0, 0.0));
	gl_FragColor = vec4(l, d, n.x, c.z);`), nil)
	checkColor(t, got, [4]float32{5, 5, 1, 1}, 1e-5)
}

func TestExecVectorRelationalBuiltins(t *testing.T) {
	got := runFragment(t, wrapMain(`
	bvec3 lt = lessThan(vec3(1.0, 5.0, 3.0), vec3(2.0, 4.0, 3.0));
	float anyr = any(lt) ? 1.0 : 0.0;
	float allr = all(lt) ? 1.0 : 0.0;
	bvec3 inv = not(lt);
	gl_FragColor = vec4(anyr, allr, inv.x ? 0.0 : 1.0, inv.y ? 1.0 : 0.0);`), nil)
	checkColor(t, got, [4]float32{1, 0, 1, 1}, 0)
}

func TestExecMixStepSmoothstep(t *testing.T) {
	got := runFragment(t, wrapMain(`
	float m = mix(0.0, 10.0, 0.25);
	float s = step(3.0, 5.0);
	float s2 = step(5.0, 3.0);
	float ss = smoothstep(0.0, 1.0, 0.5);
	gl_FragColor = vec4(m, s, s2, ss);`), nil)
	checkColor(t, got, [4]float32{2.5, 1, 0, 0.5}, 1e-6)
}

func TestExecGlobalConstInit(t *testing.T) {
	got := runFragment(t, `
precision mediump float;
const float PI = 3.14159265;
const vec2 HALF = vec2(0.5);
float plain = PI * 2.0;
void main() { gl_FragColor = vec4(PI, HALF, plain); }`, nil)
	checkColor(t, got, [4]float32{3.14159265, 0.5, 0.5, 6.2831853}, 1e-5)
}

func TestExecDynamicIndexClamped(t *testing.T) {
	got := runFragment(t, `
precision mediump float;
uniform int idx;
void main() {
	vec4 v = vec4(1.0, 2.0, 3.0, 4.0);
	gl_FragColor = vec4(v[idx]);
}`, func(ex *Exec) {
		ex.SetGlobal(ex.Prog.LookupUniform("idx"), IntVal(99)) // out of bounds
	})
	checkColor(t, got, [4]float32{4, 4, 4, 4}, 0) // clamped to last
}

func TestExecInt24BitPrecision(t *testing.T) {
	// Integers live in float32 registers: 2^24 is representable, 2^24+1 is
	// not. This is the paper's §IV-C precision statement.
	got := runFragment(t, wrapMain(`
	float big = 16777216.0;      // 2^24
	float bigger = big + 1.0;    // rounds back to 2^24 in fp32
	gl_FragColor = vec4(bigger - big, 0.0, 0.0, 1.0);`), nil)
	if got[0] != 0 {
		t.Errorf("2^24+1 should collapse to 2^24 in fp32, diff = %g", got[0])
	}
}

func TestExecStatsCounting(t *testing.T) {
	prog, errs := glsl.CompileSource(wrapMain(`
	float a = 1.0 + 2.0;
	float b = a * 3.0;
	float c = b / 4.0;
	gl_FragColor = vec4(a, b, c, 1.0);`), glsl.StageFragment, glsl.CheckOptions{})
	if errs.Err() != nil {
		t.Fatal(errs)
	}
	ex := NewExec(prog, nil, ExactSFU)
	if err := ex.InitGlobals(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Add < 1 || ex.Stats.Mul < 1 || ex.Stats.Div < 1 {
		t.Errorf("stats not counted: %+v", ex.Stats)
	}
	if ex.Stats.Invocations != 1 {
		t.Errorf("invocations = %d, want 1", ex.Stats.Invocations)
	}
	before := ex.Stats.TotalOps()
	if _, err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	if ex.Stats.TotalOps() <= before {
		t.Error("stats should accumulate across runs")
	}
}

func TestExecTextureStatsCount(t *testing.T) {
	prog, errs := glsl.CompileSource(`
precision mediump float;
uniform sampler2D s;
void main(){
	vec4 acc = vec4(0.0);
	for (int i = 0; i < 4; ++i) { acc += texture2D(s, vec2(0.5)); }
	gl_FragColor = acc;
}`, glsl.StageFragment, glsl.CheckOptions{})
	if errs.Err() != nil {
		t.Fatal(errs)
	}
	ex := NewExec(prog, &fakeSampler{}, ExactSFU)
	ex.SetGlobal(ex.Prog.LookupUniform("s"), SamplerVal(glsl.TypeSampler2D, 0))
	if err := ex.InitGlobals(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Tex != 4 {
		t.Errorf("texture fetches = %d, want 4", ex.Stats.Tex)
	}
}

func TestExecRunawayLoopAborts(t *testing.T) {
	prog, errs := glsl.CompileSource("precision mediump float;\nvoid main(){ float x = 0.0; while (true) { x += 1.0; } }", glsl.StageFragment, glsl.CheckOptions{})
	if errs.Err() != nil {
		t.Fatal(errs)
	}
	ex := NewExec(prog, nil, ExactSFU)
	ex.MaxLoopIter = 10000
	if err := ex.InitGlobals(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(); err == nil {
		t.Fatal("runaway loop must abort with an error")
	}
}

func TestExecVertexStage(t *testing.T) {
	prog, errs := glsl.CompileSource(`
attribute vec2 a_position;
attribute vec2 a_texcoord;
varying vec2 v_texcoord;
void main() {
	v_texcoord = a_texcoord;
	gl_Position = vec4(a_position, 0.0, 1.0);
}`, glsl.StageVertex, glsl.CheckOptions{})
	if errs.Err() != nil {
		t.Fatal(errs)
	}
	ex := NewExec(prog, nil, ExactSFU)
	if err := ex.InitGlobals(); err != nil {
		t.Fatal(err)
	}
	ex.SetGlobal(prog.LookupAttribute("a_position"), Vec2Val(-1, 1))
	ex.SetGlobal(prog.LookupAttribute("a_texcoord"), Vec2Val(0.5, 0.25))
	if _, err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	pos := ex.Builtins[glsl.BVSlotPosition].Vec4()
	if pos != [4]float32{-1, 1, 0, 1} {
		t.Errorf("gl_Position = %v", pos)
	}
	vt := ex.Globals[prog.LookupVarying("v_texcoord").Slot]
	if vt.F[0] != 0.5 || vt.F[1] != 0.25 {
		t.Errorf("varying = %v", vt.F[:2])
	}
}

func TestSFUQuantization(t *testing.T) {
	cfg := SFUConfig{MantissaBits: 16}
	x := float32(1.234567)
	q := cfg.Quantize(x)
	if q == x {
		// Quantization may round to the same value only if x already fits;
		// 1.234567 does not fit in 16 bits of mantissa.
		t.Errorf("expected quantization to change %v", x)
	}
	if math.Abs(float64(q-x))/float64(x) > math.Pow(2, -16) {
		t.Errorf("quantization error too large: %v -> %v", x, q)
	}
	// Exact config is the identity.
	if ExactSFU.Quantize(x) != x {
		t.Error("ExactSFU must not quantize")
	}
	// Special values pass through.
	if cfg.Quantize(0) != 0 {
		t.Error("zero must pass through")
	}
	inf := float32(math.Inf(1))
	if cfg.Quantize(inf) != inf {
		t.Error("inf must pass through")
	}
	// Powers of two are exact at any precision.
	if cfg.Quantize(8.0) != 8.0 {
		t.Error("8.0 must be exact")
	}
}

func TestSFUAffectsExp2Log2(t *testing.T) {
	src := wrapMain(`gl_FragColor = vec4(exp2(1.5), log2(3.0), 0.0, 1.0);`)
	prog, errs := glsl.CompileSource(src, glsl.StageFragment, glsl.CheckOptions{})
	if errs.Err() != nil {
		t.Fatal(errs)
	}
	run := func(sfu SFUConfig) [4]float32 {
		ex := NewExec(prog, nil, sfu)
		if err := ex.InitGlobals(); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Run(); err != nil {
			t.Fatal(err)
		}
		return ex.Builtins[glsl.BVSlotFragColor].Vec4()
	}
	exact := run(ExactSFU)
	rough := run(SFUConfig{MantissaBits: 8})
	if exact == rough {
		t.Error("8-bit SFU should differ from exact for exp2(1.5)/log2(3)")
	}
	// Error bounded by the configured precision.
	if math.Abs(float64(exact[0]-rough[0]))/float64(exact[0]) > math.Pow(2, -8) {
		t.Errorf("SFU error exceeds bound: %v vs %v", exact[0], rough[0])
	}
}

func TestValueZeroAndCopy(t *testing.T) {
	at := glsl.ArrayOf(glsl.TypeVec2, 3)
	v := Zero(at)
	if len(v.Agg) != 3 {
		t.Fatalf("array zero has %d elems", len(v.Agg))
	}
	c := v.Copy()
	c.Agg[1].F[0] = 42
	if v.Agg[1].F[0] == 42 {
		t.Error("Copy must deep-copy aggregates")
	}
}
