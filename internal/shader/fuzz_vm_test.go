package shader

import (
	"fmt"
	"strings"
	"testing"

	"glescompute/internal/glsl"
)

// FuzzVMDifferential generates well-typed fragment programs from the fuzz
// input and runs each on the VM and on the reference interpreter: outputs,
// every global and Stats must match bit for bit. The programs are built
// from the shapes Compile fuses: float and vec4 arithmetic with literals,
// compares, if/else, constant-bound for loops, compound assignments and
// component stores (some through a broadcast operand inside the
// destination), inlined helpers that read an in parameter again after a
// fusable expression over it, and the codec decode shape over a sampler
// that serves bytes (diffSampler).
//
//	go test -run '^$' -fuzz FuzzVMDifferential -fuzztime 20s ./internal/shader
func FuzzVMDifferential(f *testing.F) {
	for _, seed := range []string{
		"",
		"\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f",
		"\x07\x01\x05\x05\x01\x03\x02\x06\x04\x08\x02\x01\x09\x03",
		"\x08\x09\x03\x06\x05\x02\x0a\x06\x06\x06\x07\x08\x01\x04",
		"\x02\x0b\x0c\x0d\x05\x0e\x06\x03\x07\x0a\x01\x09\x0c\x08\x05\x04",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := genFragment(data)
		prog, errs := glsl.CompileSource(src, glsl.StageFragment, glsl.CheckOptions{})
		if errs.Err() != nil {
			t.Fatalf("generated program does not check: %v\n%s", errs, src)
		}
		differential(t, prog, 4, 8)
	})
}

// fragGen builds one program from a choice stream: each choice reads the
// next input byte, and an exhausted input chooses 0, the choice that ends
// a list or picks a leaf, so every input yields a finite program.
type fragGen struct {
	data  []byte
	pos   int
	b     strings.Builder
	names int
	// In scope: readable floats and vec4s, and the floats and vec4s a
	// statement may assign (loop counters are read only).
	floats, vecs, fvars, vvars []string
	stmts                      int
}

// fragHead declares the inputs and helpers every generated program has.
// g reads its in parameter again after the fusable p * 2.0; h decodes its
// parameter (itself a product) and reads it again; dec and dec2 are the
// codec decode shapes (dec2 reads its texel again); k2 returns early, and
// its last return loads a literal that reaches the caller, to be added or
// multiplied, through a label with no opStats before it; spin has a loop,
// so its calls stay calls.
const fragHead = `precision highp float;
uniform sampler2D u_s;
uniform float u_a;
uniform vec4 u_v;
varying vec2 v_uv;
vec4 g_keep;
float g(float p) { return p * 2.0 + p; }
float k2(float p, float q) { if (p < q) { return p - q; } return 2.0; }
vec4 h(vec4 p) { return floor(p - vec4(127.5)) + p; }
vec4 dec(vec4 t) { return floor(t * 255.0 - vec4(127.5)); }
vec4 dec2(vec4 t) { vec4 b = floor(t * 255.0 + vec4(0.5)); return b + t; }
float spin(float x) { for (int i = 0; i < 2; i++) { x = x * 0.5 + 1.0; } return x; }
`

func genFragment(data []byte) string {
	g := &fragGen{data: data}
	g.b.WriteString(fragHead)
	g.b.WriteString("void main() {\n\tfloat f0 = u_a;\n\tvec4 v0 = u_v;\n\tvec4 acc = vec4(0.0);\n\tvec2 st = v_uv;\n")
	g.floats, g.fvars = []string{"f0"}, []string{"f0"}
	g.vecs, g.vvars = []string{"v0", "acc"}, []string{"v0", "acc"}
	g.block(1)
	// Every variable in scope reaches the output.
	fmt.Fprintf(&g.b, "\tgl_FragColor = %s + vec4(%s) + g_keep;\n}\n", strings.Join(g.vecs, " + "), strings.Join(g.floats, " + "))
	return g.b.String()
}

func (g *fragGen) pick(n int) int {
	if g.pos >= len(g.data) {
		return 0
	}
	v := g.data[g.pos]
	g.pos++
	return int(v) % n
}

func (g *fragGen) one(xs []string) string { return xs[g.pick(len(xs))] }

func (g *fragGen) name(prefix string) string {
	g.names++
	return fmt.Sprintf("%s%d", prefix, g.names)
}

var fuzzLits = []string{"2.0", "0.5", "1.0", "3.0", "255.0", "127.5", "0.25", "-1.5"}

// block emits statements at nesting depth d until the input chooses to
// stop.
func (g *fragGen) block(d int) {
	for g.stmts < 24 && g.pick(8) != 0 {
		g.stmts++
		g.stmt(d)
	}
}

// scope is a nested block: declarations made inside it go out of scope at
// its end.
func (g *fragGen) scope(d int) {
	nf, nv, nfv, nvv := len(g.floats), len(g.vecs), len(g.fvars), len(g.vvars)
	g.block(d)
	g.floats, g.vecs, g.fvars, g.vvars = g.floats[:nf], g.vecs[:nv], g.fvars[:nfv], g.vvars[:nvv]
}

func (g *fragGen) line(d int, format string, args ...interface{}) {
	g.b.WriteString(strings.Repeat("\t", d))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *fragGen) stmt(d int) {
	switch g.pick(12) {
	case 0:
		n := g.name("f")
		g.line(d, "float %s = %s;", n, g.float(2))
		g.floats, g.fvars = append(g.floats, n), append(g.fvars, n)
	case 1:
		n := g.name("v")
		g.line(d, "vec4 %s = %s;", n, g.vec(2))
		g.vecs, g.vvars = append(g.vecs, n), append(g.vvars, n)
	case 2:
		g.line(d, "%s %s %s;", g.one(g.fvars), g.one([]string{"=", "+=", "-=", "*="}), g.float(2))
	case 3:
		g.line(d, "%s %s %s;", g.one(g.vvars), g.one([]string{"=", "+=", "-=", "*="}), g.vec(2))
	case 4:
		// A component store, alone or compound.
		g.line(d, "%s.%s %s %s;", g.one(g.vvars), g.one([]string{"x", "y", "z", "w"}), g.one([]string{"=", "+="}), g.float(2))
	case 5:
		// The destination is read by a broadcast operand, or whole.
		v := g.one(g.vvars)
		g.line(d, "%s = %s.%s %s %s;", v, v, g.one([]string{"x", "y", "w"}), g.one([]string{"+", "*"}), g.vec(1))
	case 6:
		// acc += a * b, vector or broadcast.
		g.line(d, "%s += %s * %s;", g.one(g.vvars), g.one([]string{g.float(1), g.vec(1)}), g.vec(1))
	case 7:
		g.line(d, "if (%s) {", g.cond())
		g.scope(d + 1)
		if g.pick(2) == 1 {
			g.line(d, "} else {")
			g.scope(d + 1)
		}
		g.line(d, "}")
	case 8:
		if d > 2 {
			return
		}
		k := g.name("k")
		g.line(d, "for (float %s = 0.0; %s < %d.0; %s += 1.0) {", k, k, 1+g.pick(4), k)
		g.floats = append(g.floats, k)
		g.scope(d + 1)
		g.floats = g.floats[:len(g.floats)-1]
		g.line(d, "}")
	case 9:
		if d > 2 {
			return
		}
		i := g.name("i")
		g.line(d, "for (int %s = 0; %s < %d; %s++) {", i, i, 1+g.pick(3), i)
		g.scope(d + 1)
		g.line(d, "}")
	case 10:
		g.line(d, "g_keep = %s;", g.vec(2))
	case 11:
		v := g.one(g.vvars)
		g.line(d, "%s = %s + %s;", v, v, g.one(g.vecs))
	}
}

func (g *fragGen) cond() string {
	ops := []string{"<", "<=", ">", ">="}
	switch g.pick(3) {
	case 1:
		return g.one(fuzzLits) + " " + g.one(ops) + " " + g.float(1)
	case 2:
		return g.float(1) + " " + g.one(ops) + " " + g.float(1)
	}
	return g.float(1) + " " + g.one(ops) + " " + g.one(fuzzLits)
}

func (g *fragGen) float(d int) string {
	if d <= 0 {
		return g.floatLeaf()
	}
	switch g.pick(12) {
	case 1:
		return "(" + g.float(d-1) + " " + g.one([]string{"+", "-", "*"}) + " " + g.float(d-1) + ")"
	case 2:
		return "(" + g.float(d-1) + " * " + g.one(fuzzLits) + " + " + g.float(d-1) + ")"
	case 3:
		return "(" + g.float(d-1) + " * " + g.float(d-1) + " + " + g.float(d-1) + ")"
	case 4:
		return "(" + g.one(fuzzLits) + " " + g.one([]string{"+", "-", "*"}) + " " + g.float(d-1) + ")"
	case 5:
		return "g(" + g.float(d-1) + ")"
	case 6:
		return "(k2(" + g.float(d-1) + ", " + g.float(d-1) + ") " + g.one([]string{"+", "*"}) + " " + g.floatLeaf() + ")"
	case 7:
		return g.vec(d-1) + "." + g.one([]string{"x", "y", "z", "w"})
	case 8:
		return g.one([]string{"floor", "fract"}) + "(" + g.float(d-1) + ")"
	case 9:
		return g.one([]string{"min", "max"}) + "(" + g.float(d-1) + ", " + g.float(d-1) + ")"
	case 10:
		return "(" + g.cond() + " ? " + g.float(d-1) + " : " + g.float(d-1) + ")"
	case 11:
		return "spin(" + g.float(d-1) + ")"
	}
	return g.floatLeaf()
}

func (g *fragGen) floatLeaf() string {
	switch g.pick(5) {
	case 1:
		return g.one(g.floats)
	case 2:
		return g.one(g.vecs) + "." + g.one([]string{"x", "y", "z", "w"})
	case 3:
		return g.one([]string{"u_a", "v_uv.x", "v_uv.y", "gl_FragCoord.x"})
	case 4:
		return g.one(fuzzLits)
	}
	return "f0"
}

func (g *fragGen) coord() string {
	switch g.pick(4) {
	case 1:
		return "v_uv.yx * 3.0 - 1.0"
	case 2:
		return g.one(g.vecs) + ".xy"
	case 3:
		return "st"
	}
	return "v_uv"
}

func (g *fragGen) vec(d int) string {
	if d <= 0 {
		return g.vecLeaf()
	}
	switch g.pick(14) {
	case 1:
		return "(" + g.vec(d-1) + " " + g.one([]string{"+", "-", "*"}) + " " + g.vec(d-1) + ")"
	case 2:
		return "(" + g.vec(d-1) + " * " + g.one([]string{g.float(d - 1), g.one(fuzzLits)}) + ")"
	case 3:
		return "(" + g.float(d-1) + " * " + g.vec(d-1) + " + " + g.vec(d-1) + ")"
	case 4:
		return "(" + g.vec(d-1) + " * " + g.vec(d-1) + " + " + g.vec(d-1) + ")"
	case 5:
		return "dec(texture2D(u_s, " + g.coord() + "))"
	case 6:
		return "dec2(texture2D(u_s, " + g.coord() + "))"
	case 7:
		return "h(texture2D(u_s, " + g.coord() + ") * 255.0)"
	case 8:
		return "floor(texture2D(u_s, " + g.coord() + ") * 255.0 " + g.one([]string{"+ vec4(0.5)", "- vec4(127.5)"}) + ")"
	case 9:
		return "vec4(" + g.float(d-1) + ", " + g.float(d-1) + ", " + g.float(0) + ", " + g.float(0) + ")"
	case 10:
		return g.vec(d-1) + "." + g.one([]string{"wzyx", "yxwz", "xxyy"})
	case 11:
		return "texture2D(u_s, " + g.coord() + ")"
	case 12:
		return "(" + g.float(d-1) + " " + g.one([]string{"+", "-"}) + " " + g.vec(d-1) + ")"
	case 13:
		return "(" + g.vec(d-1) + " - " + g.one(fuzzLits) + ")"
	}
	return g.vecLeaf()
}

func (g *fragGen) vecLeaf() string {
	switch g.pick(3) {
	case 1:
		return g.one(g.vecs)
	case 2:
		return "vec4(" + g.floatLeaf() + ")"
	}
	return "u_v"
}
