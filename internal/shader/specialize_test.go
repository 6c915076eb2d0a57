package shader

// specialize_test.go pins the direct and fused forms Compile emits: they
// actually fire on codec-spine shapes (a silent fallback to the generic
// path would pass every differential while losing the dispatch win), they
// stay out where a register they skip is read again, no jump lands inside
// one, and the programs remain bit-identical to the reference interpreter.

import (
	"testing"

	"glescompute/internal/glsl"
)

func compileFrag(t *testing.T, src string) *Compiled {
	t.Helper()
	c, err := Compile(compileSrc(t, src, glsl.StageFragment))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func opCount(c *Compiled, op opcode) int {
	n := 0
	for _, in := range c.code {
		if in.op == op {
			n++
		}
	}
	return n
}

// TestSpecializeBuiltinsFire compiles the codec-spine builtin set and
// asserts each one became its direct opcode rather than a generic
// opBuiltin dispatch.
func TestSpecializeBuiltinsFire(t *testing.T) {
	c := compileFrag(t, `
precision highp float;
uniform sampler2D u_t;
varying vec2 v_uv;
void main() {
	vec4 tx = texture2D(u_t, v_uv);
	vec4 b = floor(tx * 255.0 + vec4(0.5));
	float m = mod(b.r, 16.0);
	float lo = min(b.g, 128.0);
	float hi = max(b.b, 64.0);
	float cl = clamp(b.a, lo, hi);
	float st = step(0.5, fract(m * 0.125));
	float dp = dot(b.rgb, vec3(1.0, 256.0, 65536.0));
	gl_FragColor = vec4(m, cl, st, dp) / 65536.0;
}`)
	for _, tc := range []struct {
		name string
		op   opcode
	}{
		{"tex2d", opTex2D}, {"floor", opBFloor}, {"fract", opBFract},
		{"mod", opBMod}, {"min", opBMin}, {"max", opBMax},
		{"clamp", opBClamp}, {"step", opBStep}, {"dot", opBDot},
	} {
		if opCount(c, tc.op) == 0 {
			t.Errorf("%s: no %v emitted — builtin stayed on the generic dispatch", tc.name, tc.op)
		}
	}
}

// TestSpecializeFusionFires asserts the superinstructions form on the
// scale/bias arithmetic shape the codecs generate.
func TestSpecializeFusionFires(t *testing.T) {
	c := compileFrag(t, `
precision highp float;
varying vec2 v_uv;
void main() {
	float x = v_uv.x * 255.0;
	float y = v_uv.y * 0.5 + x;
	float z = x * y + x;
	vec2 s = v_uv * 2.0 + vec2(x, y);
	gl_FragColor = vec4(x, y + z, s);
}`)
	if opCount(c, opMulImm) == 0 {
		t.Error("no opMulImm: loadimm+mul pairs not fused")
	}
	if opCount(c, opMulAdd) == 0 {
		t.Error("no opMulAdd: mul+add chains not fused")
	}

	// A loop's step: its bound tests become compare-and-branches, its
	// increment folds into the back edge, and each statement's result
	// move folds into the op that produced it.
	src := `
precision highp float;
uniform sampler2D u_a;
uniform float u_n;
varying vec2 v_uv;
vec4 dec(vec4 t) { return floor(t * 255.0 - vec4(127.5)); }
void main() {
	vec4 acc = vec4(0.0);
	vec2 st = v_uv;
	float s = 0.0;
	for (float k = 0.0; k < 64.0; k += 1.0) {
		if (k >= u_n) { break; }
		vec4 x = dec(texture2D(u_a, st));
		acc += x.y * x;
		st.x += v_uv.y;
		st.y += st.x;
		s = s + x.z;
	}
	for (int i = 0; i < 3; i++) { s += float(i); }
	gl_FragColor = acc / 4096.0 + vec4(s / 4096.0);
}`
	c = compileFrag(t, src)
	for _, tc := range []struct {
		name string
		op   opcode
	}{
		{"bound test with its immediate", opBrLt}, {"bound test on a uniform", opBrGe},
		{"increment and back edge", opLoopStep}, {"back edge after i++", opLoopBack},
	} {
		if opCount(c, tc.op) == 0 {
			t.Errorf("%s: not fused", tc.name)
		}
	}
	// acc += a*b and s = s + x.z: the sum is written straight into the
	// variable it is added to.
	var mulAcc, addInto bool
	for _, in := range c.code {
		mulAcc = mulAcc || in.op == opMulAdd && in.dst == in.c
		addInto = addInto || in.op == opAdd && (in.dst == in.a || in.dst == in.b)
	}
	if !mulAcc {
		t.Error("acc += a*b: not fused")
	}
	if !addInto {
		t.Error("add into a variable: not fused")
	}
	for pc, in := range c.code {
		if in.op == opBrLt && in.b >= 0 || in.op == opBrGe && in.b < 0 {
			t.Errorf("compare-and-branch at %d: right operand register %d", pc, in.b)
		}
	}
	if opCount(c, opTexDecode) != 1 {
		t.Errorf("%d texel decodes, want 1", opCount(c, opTexDecode))
	}
	for _, d := range c.code {
		for _, m := range c.code {
			if d.op == opTexDecode && m.op == opMov && m.a == d.dst {
				t.Error("the decoded vec4 is moved into its variable, not written there")
			}
		}
	}
	if trips := c.LoopTrips(); len(trips) != 2 || trips[0].Stats != 0 {
		t.Errorf("loop trips %+v, want two, the first counting no opStats", trips)
	}
	runDifferential(t, compileSrc(t, src, glsl.StageFragment), 24)

	// Where a fused form would leave unwritten a register that is read
	// again, or write a result over an operand it still reads, the
	// unfused ops stay: h's scaled texel is its argument, read again after
	// the decode shape (no opTexDecode); g2's product is its argument,
	// read again after p + u_b (an opMul stays); v.x is a broadcast operand
	// inside v (the sum goes through a temporary).
	src = `
precision highp float;
uniform sampler2D u_a;
uniform float u_b;
uniform vec4 u_v;
float g(float p) { return p * 2.0 + p; }
float g2(float p) { return p + u_b + p; }
vec4 h(vec4 p) { return floor(p - vec4(127.5)) + p; }
void main() {
	vec4 v = u_v;
	vec4 w = u_v.wzyx;
	vec4 acc = vec4(0.5);
	v = v + w;
	v = v.x + w;
	acc += v * w;
	acc += g(u_b * 3.0) * h(texture2D(u_a, u_v.xy) * 255.0);
	gl_FragColor = acc + vec4(g2(u_b * u_v.x), v.y, w.z, 1.0);
}`
	c = compileFrag(t, src)
	if fused, total := c.Fetches(); fused != 0 || total != 1 {
		t.Errorf("%d of %d fetches fused, want none", fused, total)
	}
	if opCount(c, opMul) == 0 {
		t.Error("g2's argument product is not written")
	}
	mulAcc, addInto = false, false
	for pc, in := range c.code {
		mulAcc = mulAcc || in.op == opMulAdd && in.dst == in.c
		addInto = addInto || in.op == opAdd && in.dst == in.a && in.n == 4
		if in.op == opAdd && in.n > 1 && in.aux&1 != 0 && rangesOverlap(in.dst, in.n, in.a, 1) {
			t.Errorf("add at %d writes over its broadcast operand", pc)
		}
	}
	if !mulAcc || !addInto {
		t.Errorf("acc += v * w fused %v, v = v + w fused %v; want both", mulAcc, addInto)
	}
	runDifferential(t, compileSrc(t, src, glsl.StageFragment), 24)
}

// TestSpecializeJumpSoundness compiles control-flow-heavy shaders whose
// bodies are dense with fusible pairs, and checks every jump aux, call
// entry and the init/main entries land inside the code — then runs the
// full interpreter/VM differential, so a fused op that swallowed a jump
// target (an in-bounds jump to the wrong place) is caught by divergence.
func TestSpecializeJumpSoundness(t *testing.T) {
	src := `
precision highp float;
varying vec2 v_uv;
uniform float u_k;
float spin(float x) {
	float acc = 0.0;
	for (int i = 0; i < 12; i++) {
		acc = acc + fract(x * 0.37 + acc * 0.61);
		if (acc > 4.0) { break; }
		x = x * 1.1 + 0.01;
	}
	return acc;
}
void main() {
	float a = spin(v_uv.x * 3.0);
	float b = 0.0;
	for (int j = 0; j < 4; j++) {
		b += spin(v_uv.y * float(j) + a * 0.25);
	}
	gl_FragColor = vec4(a, b * 0.1, fract(a + b), 1.0);
}`
	c := compileFrag(t, src)
	if opCount(c, opMulAdd)+opCount(c, opMulImm)+opCount(c, opAddImm) == 0 {
		t.Fatal("loop body fused nothing — jumps around fused ops are untested")
	}
	n := int32(len(c.code))
	check := func(what string, target int32) {
		if target < 0 || target >= n {
			t.Errorf("%s: target %d outside code [0,%d)", what, target, n)
		}
	}
	for pc, in := range c.code {
		switch in.op {
		case opJmp, opJz, opJnz:
			check("jump at pc "+string(rune('0'+pc%10)), in.aux)
		}
	}
	check("initEntry", c.initEntry)
	check("mainEntry", c.mainEntry)
	for _, fi := range c.funcs {
		check("func entry", fi.entry)
	}
	runDifferential(t, compileSrc(t, src, glsl.StageFragment), 24)
}

// TestSpecializeCodecSpineDifferential runs the float-codec shape — the
// exact decode→ALU→encode spine the specialization targets — through the
// interpreter/VM differential, which compares outputs AND Stats per
// invocation.
func TestSpecializeCodecSpineDifferential(t *testing.T) {
	runDifferential(t, compileSrc(t, `
precision highp float;
uniform sampler2D u_d;
varying vec2 v_uv;
void main() {
	vec4 t = texture2D(u_d, v_uv);
	vec4 b = floor(t * 255.0 + vec4(0.5));
	float v = b.r + b.g * 256.0 + b.b * 65536.0;
	v = v * 0.0001 + 0.5;
	float f = fract(v);
	float q = clamp(mod(v, 256.0), 0.0, 255.0);
	float s = step(128.0, q) * min(f, 0.75) + max(f, 0.25);
	gl_FragColor = vec4(fract(v * 0.001), f, q / 255.0, s * 0.5);
}`, glsl.StageFragment), 24)
}

// TestTexDecodeFusionFires compiles every vec4 codec decoder the runtime
// generates and asserts each fetch and its decode became one
// opTexDecode, then runs them through the interpreter/VM differential,
// whose sampler serves bytes, so the table path is the one compared.
func TestTexDecodeFusionFires(t *testing.T) {
	decoders := map[string]string{
		// codec.GLSLDecoder's vec4 shapes (Int8x4; Int32, Uint32 and
		// Float32 share the byte reconstruction).
		"int8x4": "vec4 dec(vec4 t) {\n\treturn floor(t * 255.0 - vec4(127.5));\n}\n",
		"int32": "float dec1(vec4 t) {\n\tvec4 b = floor(t * 255.0 + vec4(0.5));\n" +
			"\tif (b.a < 128.0) { return b.r + b.g * 256.0; }\n\treturn -(b.b + b.a);\n}\n" +
			"vec4 dec(vec4 t) { return vec4(dec1(t)); }\n",
	}
	for name, dec := range decoders {
		src := "precision highp float;\nuniform sampler2D u_a;\nuniform sampler2D u_b;\nvarying vec2 v_uv;\n" + dec + `
void main() {
	vec4 x = dec(texture2D(u_a, v_uv));
	vec4 y = dec(texture2D(u_b, v_uv.yx * 3.0 - 1.0));
	gl_FragColor = (x + y) / 512.0;
}`
		c := compileFrag(t, src)
		if fused, total := c.Fetches(); fused != 2 || total != 2 || opCount(c, opTexDecode) != 2 {
			t.Errorf("%s: %d of %d fetches fused, want both", name, fused, total)
		}
		runDifferential(t, compileSrc(t, src, glsl.StageFragment), 24)
	}
}

// TestTexDecodeNeedsStraightRun checks that a run that is not exactly a
// codec's decode stays unfused: one whose product is not what the sum
// reads, and one whose constants no codec emits.
func TestTexDecodeNeedsStraightRun(t *testing.T) {
	for _, expr := range []string{"floor(t * 255.0 - vec4(t.x))", "floor(t * 3.0 + vec4(0.25))"} {
		src := `
precision highp float;
uniform sampler2D u_a;
varying vec2 v_uv;
vec4 dec(vec4 t) { return ` + expr + `; }
void main() { gl_FragColor = dec(texture2D(u_a, v_uv)) / 255.0; }`
		c := compileFrag(t, src)
		if fused, total := c.Fetches(); fused != 0 || total != 1 {
			t.Errorf("%s: %d of %d fetches fused, want none", expr, fused, total)
		}
		runDifferential(t, compileSrc(t, src, glsl.StageFragment), 8)
	}
}
