package shader

// Differential tests: every shader is executed by both the AST
// interpreter (reference) and the bytecode VM (default), and the results
// must agree bit-for-bit — outputs, every global, the discard flag AND
// the full Stats struct, since the vc4 timing model derives every modeled
// paper metric from those counters.

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"glescompute/internal/glsl"
)

// diffSampler is a deterministic pure-function sampler shared by both
// executors.
type diffSampler struct{}

func (diffSampler) Sample2D(unit int, s, t float32) [4]float32 {
	h := math.Float32bits(s)*2654435761 ^ math.Float32bits(t)*40503 ^ uint32(unit)*97
	return [4]float32{
		float32(h&0xff) / 255,
		float32((h>>8)&0xff) / 255,
		float32((h>>16)&0xff) / 255,
		float32((h>>24)&0xff) / 255,
	}
}

func (diffSampler) SampleCube(unit int, x, y, z float32) [4]float32 {
	h := math.Float32bits(x)*31 ^ math.Float32bits(y)*17 ^ math.Float32bits(z)*7 ^ uint32(unit)
	return [4]float32{float32(h&0xff) / 255, float32((h>>8)&0xff) / 255, 0.25, 1}
}

// lcg is a tiny deterministic generator for input values.
type lcg uint32

func (g *lcg) next() uint32 {
	*g = *g*1664525 + 1013904223
	return uint32(*g)
}

func (g *lcg) float(kind glsl.BasicKind) float32 {
	n := g.next()
	switch kind {
	case glsl.KBool:
		return float32(n % 2)
	case glsl.KInt:
		return float32(int32(n%64) - 16)
	default:
		return (float32(n%4096) - 1024) / 128 // -8..24 range, exact quarters
	}
}

// fillValue builds a deterministic value of type t.
func fillValue(t *glsl.Type, g *lcg) Value {
	v := Zero(t)
	var fill func(v *Value)
	fill = func(v *Value) {
		if len(v.Agg) > 0 {
			for i := range v.Agg {
				fill(&v.Agg[i])
			}
			return
		}
		if v.T.IsSampler() {
			v.F[0] = float32(g.next() % 4)
			return
		}
		kind := v.T.ComponentType().Kind
		for i := 0; i < v.T.ComponentCount(); i++ {
			v.F[i] = g.float(kind)
		}
	}
	fill(&v)
	return v
}

// runDifferential executes prog through both engines with identical
// deterministic inputs for several invocations, failing on any
// divergence.
func runDifferential(t *testing.T, prog *glsl.Program, invocations int) {
	t.Helper()
	comp, err := Compile(prog)
	if err != nil {
		t.Fatalf("bytecode compile failed: %v", err)
	}
	ex := NewExec(prog, diffSampler{}, DefaultSFU)
	vm := NewVM(comp, diffSampler{}, DefaultSFU)
	ex.MaxLoopIter = 1 << 16
	vm.MaxLoopIter = 1 << 16
	var both [2]Executor
	both[0], both[1] = ex, vm

	// Uniforms and stage inputs, identical on both sides.
	gU, gV := lcg(12345), lcg(12345)
	gens := [2]*lcg{&gU, &gV}
	for _, gl := range prog.Globals {
		switch gl.Qual {
		case glsl.QualUniform, glsl.QualAttribute:
			for k, e := range both {
				e.SetGlobal(gl, fillValue(gl.DeclType, gens[k]))
			}
		}
	}
	for k, e := range both {
		if err := e.InitGlobals(); err != nil {
			t.Fatalf("InitGlobals (engine %d): %v", k, err)
		}
	}
	if s1, s2 := *ex.StatsRef(), *vm.StatsRef(); s1 != s2 {
		t.Fatalf("InitGlobals stats diverge:\ninterp: %+v\nvm:     %+v", s1, s2)
	}

	varyBuf := make([]float32, 64)
	for inv := 0; inv < invocations; inv++ {
		seed := lcg(777 + 31*uint32(inv))
		if prog.Stage == glsl.StageFragment {
			fc := [4]float32{float32(inv%7) + 0.5, float32(inv/7) + 0.5, 0.5, 1}
			for _, e := range both {
				e.SetFragCoord(fc)
				e.SetFrontFacing(inv%2 == 0)
				e.SetPointCoord(0.25, 0.75)
				e.ResetFragOutputs()
			}
			for _, vr := range prog.Varyings {
				g := seed
				n := vr.DeclType.FlatSize()
				for i := 0; i < n; i++ {
					varyBuf[i] = g.float(glsl.KFloat)
				}
				seed = g
				for _, e := range both {
					e.SetGlobalFlat(vr, varyBuf[:n])
				}
			}
		} else {
			g1, g2 := seed, seed
			ag := [2]*lcg{&g1, &g2}
			for _, a := range prog.Attributes {
				for k, e := range both {
					e.SetGlobal(a, fillValue(a.DeclType, ag[k]))
				}
			}
		}

		d1, err1 := ex.Run()
		d2, err2 := vm.Run()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("invocation %d: error divergence: interp=%v vm=%v", inv, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if d1 != d2 {
			t.Fatalf("invocation %d: discard divergence: interp=%v vm=%v", inv, d1, d2)
		}
		if prog.Stage == glsl.StageFragment {
			o1, o2 := ex.FragOutput(), vm.FragOutput()
			if !bitsEqual4(o1, o2) {
				t.Fatalf("invocation %d: gl_FragColor diverges:\ninterp: %v\nvm:     %v", inv, o1, o2)
			}
		} else {
			p1, p2 := ex.Position(), vm.Position()
			if !bitsEqual4(p1, p2) {
				t.Fatalf("invocation %d: gl_Position diverges:\ninterp: %v\nvm:     %v", inv, p1, p2)
			}
			if math.Float32bits(ex.PointSize()) != math.Float32bits(vm.PointSize()) {
				t.Fatalf("invocation %d: gl_PointSize diverges: %v vs %v", inv, ex.PointSize(), vm.PointSize())
			}
		}
		// All globals (catches varying outputs and mutated globals).
		for _, gl := range prog.Globals {
			n := gl.DeclType.FlatSize()
			b1 := make([]float32, n)
			b2 := make([]float32, n)
			ex.ReadGlobalFlat(gl, b1)
			vm.ReadGlobalFlat(gl, b2)
			for i := range b1 {
				if math.Float32bits(b1[i]) != math.Float32bits(b2[i]) {
					t.Fatalf("invocation %d: global %q[%d] diverges: %v vs %v",
						inv, gl.Name, i, b1[i], b2[i])
				}
			}
		}
		if s1, s2 := *ex.StatsRef(), *vm.StatsRef(); s1 != s2 {
			t.Fatalf("invocation %d: stats diverge:\ninterp: %+v\nvm:     %+v", inv, s1, s2)
		}
	}
}

func bitsEqual4(a, b [4]float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func compileSrc(t *testing.T, src string, stage glsl.ShaderStage) *glsl.Program {
	t.Helper()
	prog, errs := glsl.CompileSource(src, stage, glsl.CheckOptions{})
	if errs.Err() != nil {
		t.Fatalf("GLSL compile failed:\n%v", errs)
	}
	return prog
}

// TestVMDifferentialCorpus runs every corpus shader through both engines.
func TestVMDifferentialCorpus(t *testing.T) {
	dir := filepath.Join("..", "glsl", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		stage := glsl.StageFragment
		if strings.HasSuffix(name, ".vert") {
			stage = glsl.StageVertex
		}
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			runDifferential(t, compileSrc(t, string(src), stage), 16)
		})
	}
}

// TestVMDifferentialConstructs covers language constructs not exercised by
// the corpus: aliasing writes, out/inout parameters, dynamic indexing,
// struct values, discard, operator corner cases.
func TestVMDifferentialConstructs(t *testing.T) {
	frag := func(body string) string {
		return "precision highp float;\nuniform float u_a;\nuniform float u_b;\nuniform vec4 u_v;\n" + body
	}
	cases := map[string]string{
		"swizzle-alias": frag(`
void main() {
	vec4 v = u_v;
	v.xy = v.yx;
	v.zw = v.xy + v.wz;
	gl_FragColor = v;
}`),
		"compound-swizzle": frag(`
void main() {
	vec4 v = u_v;
	v.yz *= 2.0;
	v.x += v.w;
	v.w -= u_a;
	gl_FragColor = v;
}`),
		"inc-dec": frag(`
void main() {
	float a = u_a;
	float b = a++ + a-- + (++a) + (--a);
	vec3 v = vec3(u_v);
	v.x++;
	int i = int(u_b);
	i--;
	gl_FragColor = vec4(a, b, v.x, float(i));
}`),
		"ternary-logic": frag(`
void main() {
	bool p = u_a > 0.0;
	bool q = u_b > 1.0;
	float x = (p && q) ? u_a : (p || q) ? u_b : u_a + u_b;
	bool r = p != q;
	gl_FragColor = vec4(x, float(p ^^ q), float(r), float(!p));
}`),
		"short-circuit-effects": frag(`
float g;
bool bump() { g += 1.0; return g > 2.0; }
void main() {
	g = u_a;
	bool x = (u_a > 0.0) && bump();
	bool y = (u_b > 0.0) || bump();
	gl_FragColor = vec4(g, float(x), float(y), 1.0);
}`),
		"out-params": frag(`
void split(float x, out float ipart, inout float acc, out vec2 pair) {
	ipart = floor(x);
	acc += x - ipart;
	pair = vec2(ipart, acc);
}
void main() {
	float ip; float acc = u_b; vec2 pr;
	split(u_a * 3.7, ip, acc, pr);
	split(acc, ip, acc, pr);
	gl_FragColor = vec4(ip, acc, pr);
}`),
		"nested-call-args": frag(`
float dbl(float x) { return x * 2.0; }
void main() {
	float r = dbl(dbl(dbl(u_a) + dbl(u_b)));
	gl_FragColor = vec4(r, dbl(u_a + 1.0), 0.0, 1.0);
}`),
		"array-dynamic": frag(`
void main() {
	float arr[5];
	for (int i = 0; i < 5; i++) { arr[i] = float(i) * u_a; }
	int j = int(u_b);
	arr[j] += 10.0;
	float s = arr[0] + arr[1] + arr[2] + arr[3] + arr[4];
	gl_FragColor = vec4(s, arr[j], arr[-1 + int(u_a)], arr[j * 7]);
}`),
		"matrix-ops": frag(`
void main() {
	mat3 m = mat3(u_v.x, u_v.y, u_v.z, u_v.w, u_a, u_b, 1.0, 2.0, 3.0);
	mat3 mm = m * m;
	vec3 mv = m * vec3(1.0, u_a, u_b);
	vec3 vm = vec3(u_b, 1.0, u_a) * m;
	mat3 ms = m * 2.0;
	mat3 sm = 0.5 * m;
	mat3 cw = matrixCompMult(ms, sm);
	int c = int(u_a);
	vec3 col = m[c];
	m[1] = vec3(7.0, 8.0, 9.0);
	m[c][1] = u_b;
	gl_FragColor = vec4(mm[0][0] + mv.x + vm.y, ms[2][2] + sm[0][1], cw[1][1] + col.x, m[1][0] + m[c][1]);
}`),
		"struct-values": frag(`
struct P { vec2 pos; float w; };
struct Pair { P a; P b; };
P flip(P p) { P q; q.pos = p.pos.yx; q.w = -p.w; return q; }
void main() {
	P p = P(u_v.xy, u_a);
	Pair pr = Pair(p, flip(p));
	P copy = pr.b;
	copy.w += 1.0;
	bool same = copy == pr.b;
	pr.a = copy;
	gl_FragColor = vec4(pr.a.pos, pr.a.w + pr.b.w, float(same));
}`),
		"discard-helper": frag(`
void maybeDrop(float x) { if (x > 2.0) { discard; } }
void main() {
	maybeDrop(u_a);
	if (u_b > 3.0) { discard; }
	gl_FragColor = vec4(u_a, u_b, 0.0, 1.0);
}`),
		"discard-out-writeback": frag(`
void h(out float o, inout float p) { o = 1.0; p += 2.0; if (u_a < 100.0) { discard; } }
void main() {
	float x = 0.0;
	float y = 3.0;
	h(x, y);
	gl_FragColor = vec4(x, y, 0.0, 1.0);
}`),
		"discard-nested-unwind": frag(`
void h(out float o) { o = 1.0; if (u_a < 100.0) { discard; } }
void outer(out float q) { float w = 0.0; h(w); q = w + 5.0; }
void main() {
	float z = 9.0;
	outer(z);
	gl_FragColor = vec4(z);
}`),
		"loops-break-continue": frag(`
void main() {
	float s = 0.0;
	for (int i = 0; i < 10; i++) {
		if (i == 3) { continue; }
		if (float(i) > u_a + 5.0) { break; }
		s += float(i);
	}
	int k = 0;
	while (k < 8) { k += 2; if (k == 6) { break; } }
	int d = 0;
	do { d++; } while (d < int(u_b));
	gl_FragColor = vec4(s, float(k), float(d), 1.0);
}`),
		"int-arith": frag(`
void main() {
	int a = int(u_a * 10.0);
	int b = int(u_b);
	int q = a / b;
	int z = a / 0;
	ivec3 v = ivec3(a, b, q) * 2;
	ivec3 w = v / ivec3(2, 3, 4);
	gl_FragColor = vec4(float(q), float(z), float(v.y), float(w.z));
}`),
		"vector-ctors": frag(`
void main() {
	vec4 a = vec4(u_a);
	vec4 b = vec4(u_v.xy, u_b, 1.0);
	vec3 c = vec3(u_v);
	ivec2 d = ivec2(u_v.zw);
	bvec3 e = bvec3(u_a, 0.0, u_b);
	vec2 f = vec2(d);
	gl_FragColor = vec4(a.x + b.y, c.z + f.x, float(d.y), float(e.x) + float(e.z));
}`),
		"builtins-wide": frag(`
void main() {
	vec3 x = u_v.xyz;
	vec3 a = abs(x) + sign(x) + floor(x) + ceil(x) + fract(x);
	vec3 b = min(x, 0.5) + max(x, vec3(0.1)) + clamp(x, 0.0, 1.0);
	vec3 c = mix(x, vec3(1.0), 0.25) + step(0.5, x) + smoothstep(0.0, 1.0, x);
	float d = length(x) + distance(x, vec3(1.0)) + dot(x, x);
	vec3 e = cross(x, vec3(1.0, 0.0, 0.0)) + normalize(x + vec3(3.0));
	vec3 f = faceforward(x, vec3(1.0), vec3(0.0, 1.0, 0.0)) + reflect(x, normalize(vec3(1.0)));
	vec3 g = refract(normalize(x + vec3(3.0)), vec3(0.0, 1.0, 0.0), 0.9);
	float h = mod(u_a, 0.7) + pow(abs(u_a) + 1.0, 2.0) + exp(u_b * 0.1) + log(abs(u_b) + 2.0);
	float i = exp2(u_a * 0.5) + log2(abs(u_a) + 4.0) + sqrt(abs(u_b)) + inversesqrt(abs(u_b) + 1.0);
	float j = sin(u_a) + cos(u_b) + tan(u_a * 0.3) + atan(u_a, u_b + 10.0) + atan(u_b * 0.2);
	float k = asin(clamp(u_a * 0.1, -1.0, 1.0)) + acos(clamp(u_b * 0.1, -1.0, 1.0));
	float l = radians(u_a) + degrees(u_b);
	gl_FragColor = vec4(a.x + b.y + c.z, d + e.x + f.y, g.z + h + i, j + k + l);
}`),
		"relational-vec": frag(`
void main() {
	vec3 x = u_v.xyz;
	vec3 y = vec3(u_a);
	bvec3 lt = lessThan(x, y);
	bvec3 le = lessThanEqual(x, y);
	bvec3 gt = greaterThan(x, y);
	bvec3 ge = greaterThanEqual(x, y);
	bvec3 eq = equal(x, y);
	bvec3 ne = notEqual(x, y);
	gl_FragColor = vec4(float(any(lt)) + float(all(le)), float(not(gt).x), float(ge.y) + float(eq.z), float(ne.x));
}`),
		"comma-sequence": frag(`
void main() {
	float a = u_a;
	float b = (a += 1.0, a * 2.0);
	gl_FragColor = vec4(a, b, (1.0, 2.0, 3.0), 1.0);
}`),
		"global-mutation": frag(`
float counter = 5.0;
float plain = 2.5;
void main() {
	counter += u_a;
	gl_FragColor = vec4(counter, plain, 0.0, 1.0);
}`),
		"fragdata": frag(`
void main() {
	gl_FragData[0] = vec4(u_a, u_b, u_v.x, 1.0);
}`),
		"swizzle-dynamic-index": frag(`
void main() {
	vec4 v = u_v;
	int i = int(u_a);
	float x = v.zyx[i];
	float y = v[i];
	gl_FragColor = vec4(x, y, v.wzyx[2], 1.0);
}`),
		"builtin-constants": frag(`
void main() {
	gl_FragColor = vec4(float(gl_MaxDrawBuffers), float(gl_MaxTextureImageUnits), 0.0, 1.0);
}`),
		"const-globals": frag(`
const float CF = 2.5;
const vec3 CV = vec3(1.0, 2.0, 3.0);
const int CI = 7;
void main() {
	gl_FragColor = vec4(CF, CV.y, float(CI), CV.z);
}`),
		"deep-aggregates": frag(`
struct Node { vec2 uv; float w[2]; };
void main() {
	Node nodes[3];
	for (int i = 0; i < 3; i++) {
		nodes[i].uv = vec2(float(i), u_a);
		nodes[i].w[0] = u_b * float(i);
		nodes[i].w[1] = u_a - float(i);
	}
	int j = int(u_b);
	float s = nodes[j].w[1] + nodes[1].uv.y + nodes[j].uv.x;
	nodes[j].w[int(u_a)] = 42.0;
	gl_FragColor = vec4(s, nodes[j].w[0], nodes[j].w[1], 1.0);
}`),
		"texture-sampling": frag(`
uniform sampler2D u_t0;
uniform samplerCube u_c0;
void main() {
	vec4 a = texture2D(u_t0, u_v.xy);
	vec4 b = texture2D(u_t0, u_v.zw, 0.5);
	vec4 c = texture2DProj(u_t0, vec3(u_v.xy, 2.0));
	vec4 d = texture2DProj(u_t0, u_v + vec4(0.0, 0.0, 0.0, 2.0));
	vec4 e = textureCube(u_c0, u_v.xyz);
	gl_FragColor = a + b * 0.5 + c * 0.25 + d * 0.125 + e * 0.0625;
}`),
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			runDifferential(t, compileSrc(t, src, glsl.StageFragment), 16)
		})
	}
}

// TestVMDifferentialPaperKernels runs the exact fragment shaders the
// compute runtime generates for the paper's kernels (sum, sgemm,
// identity) through both engines.
func TestVMDifferentialPaperKernels(t *testing.T) {
	decoder := `
float gc_decode_i32(vec4 t) {
	vec4 b = floor(t * 255.0 + vec4(0.5));
	if (b.a < 128.0) {
		return b.r + b.g * 256.0 + b.b * 65536.0 + b.a * 16777216.0;
	}
	vec4 nb = vec4(255.0) - b;
	return -(nb.r + nb.g * 256.0 + nb.b * 65536.0 + nb.a * 16777216.0 + 1.0);
}
float gc_decode_f32(vec4 t) {
	vec4 b = floor(t * 255.0 + vec4(0.5));
	if (b.a == 0.0) { return 0.0; }
	float sgn = b.b < 128.0 ? 1.0 : -1.0;
	float m2 = b.b < 128.0 ? b.b : b.b - 128.0;
	float mant = (b.r + b.g * 256.0 + m2 * 65536.0) / 8388608.0;
	return sgn * (1.0 + mant) * exp2(b.a - 127.0);
}
vec4 gc_encode_out(float v) {
	float neg = v < 0.0 ? 1.0 : 0.0;
	float w = v < 0.0 ? -(v + 1.0) : v;
	float b0 = mod(w, 256.0);
	float r1 = floor((w - b0) / 256.0);
	float b1 = mod(r1, 256.0);
	float r2 = floor((r1 - b1) / 256.0);
	float b2 = mod(r2, 256.0);
	float b3 = floor((r2 - b2) / 256.0);
	vec4 bb = vec4(b0, b1, b2, b3);
	if (neg == 1.0) { bb = vec4(255.0) - bb; }
	return (bb + vec4(0.25)) / 255.0;
}
uniform sampler2D gc_a_tex;
uniform vec2 gc_a_dims;
float gc_a(float idx) {
	float row = floor((idx + 0.5) / gc_a_dims.x);
	float col = idx - row * gc_a_dims.x;
	vec2 st = vec2((col + 0.5) / gc_a_dims.x, (row + 0.5) / gc_a_dims.y);
	return gc_decode_i32(texture2D(gc_a_tex, st));
}
float gc_a_at(float col, float row) {
	vec2 st = vec2((col + 0.5) / gc_a_dims.x, (row + 0.5) / gc_a_dims.y);
	return gc_decode_i32(texture2D(gc_a_tex, st));
}
uniform sampler2D gc_b_tex;
uniform vec2 gc_b_dims;
float gc_b(float idx) {
	float row = floor((idx + 0.5) / gc_b_dims.x);
	float col = idx - row * gc_b_dims.x;
	vec2 st = vec2((col + 0.5) / gc_b_dims.x, (row + 0.5) / gc_b_dims.y);
	return gc_decode_f32(texture2D(gc_b_tex, st));
}
float gc_b_at(float col, float row) {
	vec2 st = vec2((col + 0.5) / gc_b_dims.x, (row + 0.5) / gc_b_dims.y);
	return gc_decode_f32(texture2D(gc_b_tex, st));
}
uniform vec2 gc_out_dims;
uniform float gc_out_n;
uniform float u_n;
varying vec2 v_uv;
`
	kernels := map[string]string{
		"sum": `
float gc_kernel(float idx) {
	return gc_a(idx) + gc_b(idx);
}
void main() {
	float gc_idx = floor(gl_FragCoord.y) * gc_out_dims.x + floor(gl_FragCoord.x);
	gl_FragColor = gc_encode_out(gc_kernel(gc_idx));
}`,
		"sgemm": `
float gc_kernel(float idx) {
	float row = floor((idx + 0.5) / u_n);
	float col = idx - row * u_n;
	float acc = 0.0;
	for (float k = 0.0; k < 2048.0; k += 1.0) {
		if (k >= u_n) { break; }
		acc += gc_a_at(k, row) * gc_b_at(col, k);
	}
	return acc;
}
void main() {
	float gc_idx = floor(gl_FragCoord.y) * gc_out_dims.x + floor(gl_FragCoord.x);
	gl_FragColor = gc_encode_out(gc_kernel(gc_idx));
}`,
		"identity": `
float gc_kernel(float idx) { return gc_a(idx); }
void main() {
	float gc_idx = floor(gl_FragCoord.y) * gc_out_dims.x + floor(gl_FragCoord.x);
	gl_FragColor = gc_encode_out(gc_kernel(gc_idx));
}`,
	}
	for name, src := range kernels {
		t.Run(name, func(t *testing.T) {
			runDifferential(t, compileSrc(t, "precision highp float;\n"+decoder+src, glsl.StageFragment), 24)
		})
	}
}

// TestVMLoopGuard verifies both engines abort runaway loops with an error.
func TestVMLoopGuard(t *testing.T) {
	src := `precision highp float;
void main() {
	float s = 0.0;
	for (int i = 0; i >= 0; i++) { s += 1.0; }
	gl_FragColor = vec4(s);
}`
	prog := compileSrc(t, src, glsl.StageFragment)
	comp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExec(prog, nil, ExactSFU)
	ex.MaxLoopIter = 100
	if err := ex.InitGlobals(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(); err == nil {
		t.Fatal("interpreter did not catch runaway loop")
	}
	vm := NewVM(comp, nil, ExactSFU)
	vm.MaxLoopIter = 100
	if err := vm.InitGlobals(); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Run(); err == nil {
		t.Fatal("VM did not catch runaway loop")
	}
}

// undefinedFuncFS calls a function that is declared but never defined:
// sema-valid GLSL ES (the missing body is a link-time error).
const undefinedFuncFS = `precision mediump float;
float f(float x);
void main() { gl_FragColor = vec4(f(1.0)); }`

// TestCompileUndefinedFunction: the bytecode compiler rejects a call
// through a never-defined prototype with an error, not a panic.
func TestCompileUndefinedFunction(t *testing.T) {
	prog := compileSrc(t, undefinedFuncFS, glsl.StageFragment)
	if _, err := Compile(prog); err == nil || !strings.Contains(err.Error(), "never defined") {
		t.Fatalf("Compile error = %v, want a never-defined error", err)
	}
}

// TestVMZeroAllocRun verifies the VM's per-invocation path does not
// allocate (the whole point of the bytecode engine).
func TestVMZeroAllocRun(t *testing.T) {
	src := `precision highp float;
uniform float u_a;
void main() {
	float acc = 0.0;
	for (float k = 0.0; k < 16.0; k += 1.0) { acc += mod(k * u_a, 7.0); }
	gl_FragColor = vec4(acc, exp2(u_a), log2(abs(u_a) + 2.0), 1.0);
}`
	prog := compileSrc(t, src, glsl.StageFragment)
	comp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(comp, nil, DefaultSFU)
	vm.SetGlobal(prog.LookupUniform("u_a"), FloatVal(1.75))
	if err := vm.InitGlobals(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := vm.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("VM.Run allocates %v times per invocation, want 0", allocs)
	}
}
