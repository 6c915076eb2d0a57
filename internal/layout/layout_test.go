package layout

import (
	"strings"
	"testing"
	"testing/quick"

	"glescompute/internal/glsl"
	"glescompute/internal/shader"
)

func TestForLengthShapes(t *testing.T) {
	cases := []struct {
		n, maxW int
		w, h    int
	}{
		{1, 2048, 1, 1},
		{2, 2048, 2, 1},
		{3, 2048, 4, 1},
		{1024, 2048, 1024, 1},
		{1 << 20, 2048, 2048, 512},
		{5000, 64, 64, 79},
	}
	for _, c := range cases {
		g, err := ForLength(c.n, c.maxW)
		if err != nil {
			t.Fatalf("ForLength(%d,%d): %v", c.n, c.maxW, err)
		}
		if g.Width != c.w || g.Height != c.h {
			t.Errorf("ForLength(%d,%d) = %dx%d, want %dx%d", c.n, c.maxW, g.Width, g.Height, c.w, c.h)
		}
		if g.Texels() < c.n {
			t.Errorf("ForLength(%d,%d): %d texels < %d elements", c.n, c.maxW, g.Texels(), c.n)
		}
	}
	if _, err := ForLength(0, 64); err == nil {
		t.Error("n=0 must error")
	}
	if _, err := ForLength(5, 0); err == nil {
		t.Error("maxW=0 must error")
	}
}

func TestCoordIndexBijection(t *testing.T) {
	f := func(nRaw uint16, iRaw uint32) bool {
		n := int(nRaw)%10000 + 1
		g, err := ForLength(n, 256)
		if err != nil {
			return false
		}
		i := int(iRaw) % n
		x, y := g.Coord(i)
		if x < 0 || x >= g.Width || y < 0 || y >= g.Height {
			return false
		}
		return g.Index(x, y) == i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTexCoordCenters(t *testing.T) {
	g, _ := ForLength(8, 4) // 4x2
	s, tt := g.TexCoord(0)
	if s != 0.125 || tt != 0.25 {
		t.Errorf("element 0 at (%g,%g), want (0.125,0.25)", s, tt)
	}
	s, tt = g.TexCoord(5) // (1,1)
	if s != 0.375 || tt != 0.75 {
		t.Errorf("element 5 at (%g,%g), want (0.375,0.75)", s, tt)
	}
}

func TestSquare(t *testing.T) {
	g, err := Square(32)
	if err != nil {
		t.Fatal(err)
	}
	if g.Width != 32 || g.Height != 32 || g.N != 1024 {
		t.Errorf("Square(32) = %+v", g)
	}
	if _, err := Square(0); err == nil {
		t.Error("Square(0) must error")
	}
}

// TestGLSLHelpersMatchHost executes the generated GLSL index math in the
// shader executor and compares against the host-side Grid maps — the
// property that makes challenge #3/#4 addressing exact.
func TestGLSLHelpersMatchHost(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000, 4096} {
		g, err := ForLength(n, 128)
		if err != nil {
			t.Fatal(err)
		}
		src := "precision highp float;\nuniform float u_idx;\n" +
			g.GLSLHelpers("gc") +
			`void main() {
	vec2 c = gc_coord(u_idx);
	gl_FragColor = vec4(c, 0.0, 1.0);
}`
		prog, errs := glsl.CompileSource(src, glsl.StageFragment, glsl.CheckOptions{})
		if errs.Err() != nil {
			t.Fatalf("n=%d: compile failed:\n%v", n, errs)
		}
		ex := shader.NewExec(prog, nil, shader.ExactSFU)
		u := prog.LookupUniform("u_idx")
		step := n/97 + 1
		for i := 0; i < n; i += step {
			ex.SetGlobal(u, shader.FloatVal(float32(i)))
			if err := ex.InitGlobals(); err != nil {
				t.Fatal(err)
			}
			if _, err := ex.Run(); err != nil {
				t.Fatal(err)
			}
			out := ex.Builtins[glsl.BVSlotFragColor].Vec4()
			wantS, wantT := g.TexCoord(i)
			if out[0] != wantS || out[1] != wantT {
				t.Fatalf("n=%d i=%d: GLSL (%g,%g), host (%g,%g)", n, i, out[0], out[1], wantS, wantT)
			}
		}
	}
}

// TestGLSLIndexFromFragCoord verifies the output-index helper against all
// pixel centers of a small grid.
func TestGLSLIndexFromFragCoord(t *testing.T) {
	g, _ := ForLength(24, 8) // 8x3
	src := "precision highp float;\n" + g.GLSLHelpers("gc") +
		`void main() { gl_FragColor = vec4(gc_index(), 0.0, 0.0, 1.0); }`
	prog, errs := glsl.CompileSource(src, glsl.StageFragment, glsl.CheckOptions{})
	if errs.Err() != nil {
		t.Fatalf("compile failed:\n%v", errs)
	}
	ex := shader.NewExec(prog, nil, shader.ExactSFU)
	if err := ex.InitGlobals(); err != nil {
		t.Fatal(err)
	}
	for y := 0; y < g.Height; y++ {
		for x := 0; x < g.Width; x++ {
			ex.Builtins[glsl.BVSlotFragCoord] = shader.Vec4Val(
				float32(x)+0.5, float32(y)+0.5, 0, 1)
			if _, err := ex.Run(); err != nil {
				t.Fatal(err)
			}
			got := int(ex.Builtins[glsl.BVSlotFragColor].F[0])
			if got != g.Index(x, y) {
				t.Fatalf("pixel (%d,%d): index %d, want %d", x, y, got, g.Index(x, y))
			}
		}
	}
}

func TestGLSLHelpersPrefixed(t *testing.T) {
	g, _ := ForLength(16, 4)
	a := g.GLSLHelpers("in0")
	b := g.GLSLHelpers("in1")
	if !strings.Contains(a, "in0_coord") || !strings.Contains(b, "in1_coord") {
		t.Error("prefix not applied")
	}
	// Both must coexist in one shader.
	src := "precision highp float;\n" + a + b +
		"void main() { gl_FragColor = vec4(in0_coord(0.0), in1_coord(1.0)); }"
	_, errs := glsl.CompileSource(src, glsl.StageFragment, glsl.CheckOptions{})
	if errs.Err() != nil {
		t.Fatalf("prefixed helpers conflict:\n%v", errs)
	}
}

func TestPackRows(t *testing.T) {
	// Mixed lengths: width follows the largest member, every member
	// starts on a fresh row, offsets are row-aligned and non-overlapping.
	ns := []int{5, 130, 1, 64, 33}
	g, offs, err := PackRows(ns, 2048, 2048)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ForLength(130, 2048)
	if g.Width != want.Width {
		t.Fatalf("packed width %d, want the largest member's ForLength width %d", g.Width, want.Width)
	}
	rows := 0
	for i, n := range ns {
		if offs[i] != rows*g.Width {
			t.Fatalf("member %d offset %d, want row-aligned %d", i, offs[i], rows*g.Width)
		}
		if offs[i]%g.Width != 0 {
			t.Fatalf("member %d offset %d not a multiple of width %d", i, offs[i], g.Width)
		}
		rows += (n + g.Width - 1) / g.Width
	}
	if g.Height != rows {
		t.Fatalf("packed height %d, want %d", g.Height, rows)
	}
	if g.N != offs[len(offs)-1]+ns[len(ns)-1] {
		t.Fatalf("packed N %d, want last offset + last length = %d", g.N, offs[len(offs)-1]+ns[len(ns)-1])
	}
	if g.N > g.Texels() {
		t.Fatalf("N %d exceeds texel count %d", g.N, g.Texels())
	}

	// Errors: empty set, non-positive member, height overflow.
	if _, _, err := PackRows(nil, 64, 64); err == nil {
		t.Fatal("empty member list accepted")
	}
	if _, _, err := PackRows([]int{4, 0}, 64, 64); err == nil {
		t.Fatal("non-positive member length accepted")
	}
	if _, _, err := PackRows([]int{64, 64, 64}, 64, 2); err == nil {
		t.Fatal("overflowing max height accepted")
	}
}

// TestPackRowsSingleRowMembers pins the degenerate layouts: one member,
// members that exactly fill a row, and members of one element each.
func TestPackRowsSingleRowMembers(t *testing.T) {
	// Lone member: identical to its own ForLength layout.
	g, offs, err := PackRows([]int{12}, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ForLength(12, 64)
	if g.Width != want.Width || g.Height != 1 || offs[0] != 0 || g.N != 12 {
		t.Fatalf("single member packed as %+v offs %v, want width %d height 1", g, offs, want.Width)
	}

	// Members exactly one row wide: no padding rows at all.
	g, offs, err = PackRows([]int{8, 8, 8}, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if g.Width != 8 || g.Height != 3 || g.N != g.Texels() {
		t.Fatalf("exact-row members packed as %+v (offs %v), want 8x3 fully used", g, offs)
	}

	// One-element members: each still gets a private row (the batching
	// invariant: member offsets are row-aligned so sub-range transfers
	// never touch a neighbour).
	g, offs, err = PackRows([]int{1, 1, 1, 1}, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if g.Width != 1 || g.Height != 4 {
		t.Fatalf("one-element members packed as %+v, want 1x4", g)
	}
	for i, off := range offs {
		if off != i {
			t.Fatalf("offset %d = %d, want %d", i, off, i)
		}
	}
}

// TestPackRowsMaxWidthOverflow pins the clamp when the largest member
// exceeds the device's texture-width bound: the width clamps to maxWidth
// and the member wraps onto multiple rows, unless the row budget runs out.
func TestPackRowsMaxWidthOverflow(t *testing.T) {
	g, offs, err := PackRows([]int{100, 3}, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if g.Width != 16 {
		t.Fatalf("width %d, want clamp to maxWidth 16", g.Width)
	}
	if rows := (100 + 15) / 16; offs[1] != rows*16 {
		t.Fatalf("second member offset %d, want %d (after %d wrapped rows)", offs[1], rows*16, rows)
	}
	// Same members, but a height budget the wrap cannot fit.
	if _, _, err := PackRows([]int{100, 3}, 16, 6); err == nil {
		t.Fatal("PackRows accepted members needing 8 rows with max height 6")
	}
	// A member so large no texture holds it.
	if _, _, err := PackRows([]int{1 << 20}, 64, 64); err == nil {
		t.Fatal("PackRows accepted a member beyond maxWidth x maxHeight")
	}
}
