// Package layout implements the 1D↔2D index transformations of the paper's
// challenges #3 and #4: OpenGL ES 2.0 has no 1D textures and only
// normalized texture coordinates, so linear arrays must be laid out in 2D
// textures and addressed through the [0,1]² coordinate space. The package
// provides both the host-side maps and generators for the equivalent
// GLSL ES code. A Grid counts texels; how many values one texel carries is
// a property of the stored element type (codec.ElemType.Lanes), read from
// there and nowhere else.
package layout

import (
	"fmt"
	"strings"
)

// Grid is the 2D layout of an N-texel linear array in a W×H texture,
// row-major, texel 0 at (0,0). It describes texels only: how many values
// a texel carries is the stored element type's business (see
// codec.ElemType.TexelsFor), so a packed array of n values is laid out
// over ForLength(t.TexelsFor(n)).
type Grid struct {
	Width  int
	Height int
	N      int
}

// ForLength chooses a texture shape for n elements. Widths are powers of
// two (≤ maxWidth) so row arithmetic in fp32 shaders stays exact; the last
// row may be partially used.
func ForLength(n, maxWidth int) (Grid, error) {
	if n <= 0 {
		return Grid{}, fmt.Errorf("layout: array length must be positive, got %d", n)
	}
	if maxWidth <= 0 {
		return Grid{}, fmt.Errorf("layout: maxWidth must be positive, got %d", maxWidth)
	}
	w := 1
	for w < n && w < maxWidth {
		w <<= 1
	}
	if w > maxWidth {
		w = maxWidth
	}
	h := (n + w - 1) / w
	return Grid{Width: w, Height: h, N: n}, nil
}

// Square returns the layout for an n×n row-major matrix: one texel per
// element, width n (exact, not padded), which keeps (row,col) addressing
// trivial for sgemm-style kernels.
func Square(n int) (Grid, error) {
	if n <= 0 {
		return Grid{}, fmt.Errorf("layout: matrix dimension must be positive, got %d", n)
	}
	return Grid{Width: n, Height: n, N: n * n}, nil
}

// PackRows lays out several linear arrays in one shared texture, each
// array starting on a fresh texel row — the layout the scheduler's request
// batching uses to coalesce many small kernel launches into a single
// fragment pass. The width is the power-of-two ForLength would pick for
// the largest array (so in-shader row arithmetic stays exact for every
// member), and each array occupies ceil(n/W) whole rows; the tail of a
// member's last row is padding. It returns the packed grid and the linear
// element offset of each array (always a multiple of W, so members can be
// written and read as whole-row sub-ranges).
func PackRows(ns []int, maxWidth, maxHeight int) (Grid, []int, error) {
	if len(ns) == 0 {
		return Grid{}, nil, fmt.Errorf("layout: PackRows: no arrays")
	}
	maxN := 0
	for _, n := range ns {
		if n <= 0 {
			return Grid{}, nil, fmt.Errorf("layout: PackRows: array length must be positive, got %d", n)
		}
		if n > maxN {
			maxN = n
		}
	}
	base, err := ForLength(maxN, maxWidth)
	if err != nil {
		return Grid{}, nil, err
	}
	w := base.Width
	offs := make([]int, len(ns))
	row := 0
	for i, n := range ns {
		offs[i] = row * w
		row += (n + w - 1) / w
	}
	if maxHeight > 0 && row > maxHeight {
		return Grid{}, nil, fmt.Errorf("layout: PackRows: %d arrays need %d rows of width %d, max height is %d",
			len(ns), row, w, maxHeight)
	}
	return Grid{Width: w, Height: row, N: offs[len(offs)-1] + ns[len(ns)-1]}, offs, nil
}

// Texels returns the total number of texels in the texture.
func (g Grid) Texels() int { return g.Width * g.Height }

// Coord maps a linear index to texel coordinates.
func (g Grid) Coord(i int) (x, y int) {
	return i % g.Width, i / g.Width
}

// Index maps texel coordinates back to the linear index.
func (g Grid) Index(x, y int) int {
	return y*g.Width + x
}

// TexCoord returns the normalized sampling coordinates of element i: the
// *center* of its texel, the half-texel offset that makes normalized
// addressing exact under NEAREST filtering (challenge #4).
func (g Grid) TexCoord(i int) (s, t float32) {
	x, y := g.Coord(i)
	return (float32(x) + 0.5) / float32(g.Width),
		(float32(y) + 0.5) / float32(g.Height)
}

// GLSLHelpers emits the in-shader counterparts of this grid's maps, with a
// name prefix to keep multiple grids in one shader:
//
//	vec2  <p>_coord(float idx)  — linear index → normalized texcoord
//	float <p>_index()           — current fragment → linear output index
//	vec2  <p>_coord2(float x, float y) — 2D element address → texcoord
//
// The "+0.5" inside the floor guards the row computation against fp32
// division rounding (idx and width are exact integers in fp32 up to 2^24,
// but idx/width is correctly-rounded and can graze the next integer).
func (g Grid) GLSLHelpers(prefix string) string {
	var b strings.Builder
	w := float64(g.Width)
	h := float64(g.Height)
	fmt.Fprintf(&b, "const float %s_W = %.1f;\n", prefix, w)
	fmt.Fprintf(&b, "const float %s_H = %.1f;\n", prefix, h)
	fmt.Fprintf(&b, "vec2 %s_coord(float idx) {\n", prefix)
	fmt.Fprintf(&b, "\tfloat row = floor((idx + 0.5) / %s_W);\n", prefix)
	fmt.Fprintf(&b, "\tfloat col = idx - row * %s_W;\n", prefix)
	fmt.Fprintf(&b, "\treturn vec2((col + 0.5) / %s_W, (row + 0.5) / %s_H);\n", prefix, prefix)
	b.WriteString("}\n")
	fmt.Fprintf(&b, "vec2 %s_coord2(float col, float row) {\n", prefix)
	fmt.Fprintf(&b, "\treturn vec2((col + 0.5) / %s_W, (row + 0.5) / %s_H);\n", prefix, prefix)
	b.WriteString("}\n")
	fmt.Fprintf(&b, "float %s_index() {\n", prefix)
	fmt.Fprintf(&b, "\treturn floor(gl_FragCoord.y) * %s_W + floor(gl_FragCoord.x);\n", prefix)
	b.WriteString("}\n")
	return b.String()
}
