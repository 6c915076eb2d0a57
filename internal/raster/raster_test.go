package raster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func vtx(x, y, z, w float32, vary ...float32) ShadedVertex {
	return ShadedVertex{Pos: [4]float32{x, y, z, w}, Varyings: vary}
}

// collectCoverage rasterizes triangles into a coverage-count grid.
func collectCoverage(w, h int, tris [][3]ShadedVertex) []int {
	r := NewRasterizer(Viewport{0, 0, w, h}, 0)
	counts := make([]int, w*h)
	for _, t := range tris {
		r.Triangle(t[0], t[1], t[2], true, func(f *Fragment) {
			counts[f.Y*w+f.X]++
		})
	}
	return counts
}

func TestFullscreenQuadCoversEveryPixelOnce(t *testing.T) {
	// The paper's challenge #2: quad = two triangles. Every pixel must be
	// shaded exactly once, including along the shared diagonal.
	const w, h = 16, 16
	t1 := [3]ShadedVertex{vtx(-1, -1, 0, 1), vtx(1, -1, 0, 1), vtx(1, 1, 0, 1)}
	t2 := [3]ShadedVertex{vtx(-1, -1, 0, 1), vtx(1, 1, 0, 1), vtx(-1, 1, 0, 1)}
	counts := collectCoverage(w, h, [][3]ShadedVertex{t1, t2})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("pixel (%d,%d) covered %d times, want exactly 1", i%w, i/w, c)
		}
	}
}

func TestQuadCoverageProperty(t *testing.T) {
	// Property: ANY quad split along either diagonal covers each interior
	// pixel exactly once (no cracks, no double-shading).
	const w, h = 32, 32
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random axis-aligned quad in NDC.
		x0 := rng.Float32()*1.6 - 0.9
		y0 := rng.Float32()*1.6 - 0.9
		x1 := x0 + rng.Float32()*0.9 + 0.05
		y1 := y0 + rng.Float32()*0.9 + 0.05
		a := vtx(x0, y0, 0, 1)
		b := vtx(x1, y0, 0, 1)
		c := vtx(x1, y1, 0, 1)
		d := vtx(x0, y1, 0, 1)
		var tris [][3]ShadedVertex
		if seed%2 == 0 {
			tris = [][3]ShadedVertex{{a, b, c}, {a, c, d}}
		} else {
			tris = [][3]ShadedVertex{{a, b, d}, {b, c, d}}
		}
		counts := collectCoverage(w, h, tris)
		for _, cnt := range counts {
			if cnt > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacentTrianglesShareEdgeOnce(t *testing.T) {
	// Two triangles sharing an arbitrary (non-axis-aligned) edge.
	const w, h = 32, 32
	a := vtx(-0.8, -0.5, 0, 1)
	b := vtx(0.7, -0.9, 0, 1)
	c := vtx(0.1, 0.8, 0, 1)
	d := vtx(-0.9, 0.6, 0, 1)
	counts := collectCoverage(w, h, [][3]ShadedVertex{{a, b, c}, {a, c, d}})
	for i, cnt := range counts {
		if cnt > 1 {
			t.Fatalf("pixel (%d,%d) covered %d times", i%w, i/w, cnt)
		}
	}
}

func TestWindingBothOrdersCover(t *testing.T) {
	// CW and CCW triangles must cover the same pixels (no culling at the
	// rasterizer level; culling is GL state handled by the caller).
	const w, h = 8, 8
	ccw := [][3]ShadedVertex{{vtx(-1, -1, 0, 1), vtx(1, -1, 0, 1), vtx(0, 1, 0, 1)}}
	cw := [][3]ShadedVertex{{vtx(-1, -1, 0, 1), vtx(0, 1, 0, 1), vtx(1, -1, 0, 1)}}
	c1 := collectCoverage(w, h, ccw)
	c2 := collectCoverage(w, h, cw)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("pixel %d: ccw=%d cw=%d", i, c1[i], c2[i])
		}
	}
}

func TestFrontFacingFlag(t *testing.T) {
	r := NewRasterizer(Viewport{0, 0, 4, 4}, 0)
	var sawFront, sawBack bool
	ccw := [3]ShadedVertex{vtx(-1, -1, 0, 1), vtx(1, -1, 0, 1), vtx(0, 1, 0, 1)}
	r.Triangle(ccw[0], ccw[1], ccw[2], true, func(f *Fragment) {
		if f.FrontFacing {
			sawFront = true
		}
	})
	r.Triangle(ccw[0], ccw[2], ccw[1], true, func(f *Fragment) {
		if !f.FrontFacing {
			sawBack = true
		}
	})
	if !sawFront || !sawBack {
		t.Errorf("facing flags wrong: front=%v back=%v", sawFront, sawBack)
	}
}

func TestVaryingInterpolation(t *testing.T) {
	// A fullscreen quad with texcoords (0,0)..(1,1): the varying at a pixel
	// center must equal (x+0.5)/W, (y+0.5)/H.
	const w, h = 8, 8
	r := NewRasterizer(Viewport{0, 0, w, h}, 2)
	a := vtx(-1, -1, 0, 1, 0, 0)
	b := vtx(1, -1, 0, 1, 1, 0)
	c := vtx(1, 1, 0, 1, 1, 1)
	d := vtx(-1, 1, 0, 1, 0, 1)
	check := func(f *Fragment) {
		wantU := (float32(f.X) + 0.5) / w
		wantV := (float32(f.Y) + 0.5) / h
		if !close32(f.Varyings[0], wantU, 1e-5) || !close32(f.Varyings[1], wantV, 1e-5) {
			t.Fatalf("pixel (%d,%d): varying (%g,%g), want (%g,%g)",
				f.X, f.Y, f.Varyings[0], f.Varyings[1], wantU, wantV)
		}
	}
	r.Triangle(a, b, c, true, check)
	r.Triangle(a, c, d, true, check)
}

func TestFragCoordMatchesPixelCenters(t *testing.T) {
	const w, h = 4, 4
	r := NewRasterizer(Viewport{0, 0, w, h}, 0)
	a := vtx(-1, -1, 0.5, 1)
	b := vtx(1, -1, 0.5, 1)
	c := vtx(1, 1, 0.5, 1)
	r.Triangle(a, b, c, true, func(f *Fragment) {
		if f.FragCoord[0] != float32(f.X)+0.5 || f.FragCoord[1] != float32(f.Y)+0.5 {
			t.Fatalf("FragCoord xy = (%g,%g) for pixel (%d,%d)",
				f.FragCoord[0], f.FragCoord[1], f.X, f.Y)
		}
		// z = (ndc.z+1)/2 = 0.75 for ndc.z = 0.5
		if !close32(f.FragCoord[2], 0.75, 1e-6) {
			t.Fatalf("FragCoord z = %g, want 0.75", f.FragCoord[2])
		}
		if !close32(f.FragCoord[3], 1, 1e-6) {
			t.Fatalf("FragCoord w = %g, want 1", f.FragCoord[3])
		}
	})
}

func TestPerspectiveCorrectInterpolation(t *testing.T) {
	// A triangle with w=2 on one vertex: interpolation must be hyperbolic.
	// At the midpoint of the edge between v0 (w=1, u=0) and v1 (w=2, u=1),
	// screen-space midpoint corresponds to u = (0/1 + 1/2)/(1/1 + 1/2) = 1/3.
	const w, h = 64, 64
	r := NewRasterizer(Viewport{0, 0, w, h}, 1)
	// v0 at left edge, v1 at right edge, both at y=0 NDC.
	// Clip coords: v1 has w=2, so pre-multiply position by w to keep NDC.
	v0 := vtx(-1, -0.5, 0, 1, 0)
	v1 := ShadedVertex{Pos: [4]float32{2, -1, 0, 2}, Varyings: []float32{1}} // ndc (1,-0.5)
	v2 := vtx(0, 1, 0, 1, 0.5)
	var got float32 = -1
	r.Triangle(v0, v1, v2, true, func(f *Fragment) {
		if f.X == w/2 && f.Y == 8 { // near the bottom edge midpoint
			got = f.Varyings[0]
		}
	})
	if got < 0 {
		t.Skip("midpoint pixel not covered at this raster size")
	}
	if got > 0.45 {
		t.Errorf("interpolation looks affine (u=%g); expected hyperbolic (<0.45)", got)
	}
}

func TestDegenerateTriangleProducesNothing(t *testing.T) {
	r := NewRasterizer(Viewport{0, 0, 8, 8}, 0)
	n := 0
	a := vtx(-1, -1, 0, 1)
	b := vtx(1, 1, 0, 1)
	r.Triangle(a, b, b, true, func(*Fragment) { n++ })
	r.Triangle(a, a, a, true, func(*Fragment) { n++ })
	if n != 0 {
		t.Errorf("degenerate triangles produced %d fragments", n)
	}
}

func TestBehindEyeDropped(t *testing.T) {
	r := NewRasterizer(Viewport{0, 0, 8, 8}, 0)
	n := 0
	r.Triangle(vtx(0, 0, 0, -1), vtx(1, 0, 0, 1), vtx(0, 1, 0, 1), true, func(*Fragment) { n++ })
	if n != 0 {
		t.Errorf("w<0 triangle must be dropped, got %d fragments", n)
	}
}

func TestViewportClipping(t *testing.T) {
	// Triangle extends outside the viewport; no fragments outside allowed.
	r := NewRasterizer(Viewport{2, 2, 4, 4}, 0)
	ok := true
	r.Triangle(vtx(-3, -3, 0, 1), vtx(3, -3, 0, 1), vtx(0, 3, 0, 1), true, func(f *Fragment) {
		if f.X < 2 || f.X >= 6 || f.Y < 2 || f.Y >= 6 {
			ok = false
		}
	})
	if !ok {
		t.Error("fragments produced outside the viewport")
	}
}

func TestTilePartitionIsExact(t *testing.T) {
	// Splitting rendering into a 2-D grid of tiles must produce exactly
	// the same fragments as a single pass (the tiled fragment stage relies
	// on it). The 5×7 tiles do not divide the 32×30 framebuffer, so the
	// last column and row of tiles are ragged; a full-width tile row is
	// the row-band special case.
	const w, h = 32, 30
	tri := [3]ShadedVertex{vtx(-0.9, -0.8, 0, 1), vtx(0.8, -0.3, 0, 1), vtx(0.1, 0.9, 0, 1)}

	full := make(map[[2]int]bool)
	r := NewRasterizer(Viewport{0, 0, w, h}, 0)
	r.Triangle(tri[0], tri[1], tri[2], true, func(f *Fragment) {
		full[[2]int{f.X, f.Y}] = true
	})

	for _, ts := range [][2]int{{5, 7}, {w, 5}} {
		tiled := make(map[[2]int]bool)
		for y0 := 0; y0 < h; y0 += ts[1] {
			for x0 := 0; x0 < w; x0 += ts[0] {
				x1, y1 := minI(x0+ts[0], w), minI(y0+ts[1], h)
				rt := NewRasterizer(Viewport{0, 0, w, h}, 0)
				rt.SetTile(x0, y0, x1, y1)
				rt.Triangle(tri[0], tri[1], tri[2], true, func(f *Fragment) {
					key := [2]int{f.X, f.Y}
					if f.X < x0 || f.X >= x1 || f.Y < y0 || f.Y >= y1 {
						t.Fatalf("%v tiles: pixel %v outside its tile [%d,%d)×[%d,%d)", ts, key, x0, x1, y0, y1)
					}
					if tiled[key] {
						t.Fatalf("%v tiles: pixel %v produced twice across tiles", ts, key)
					}
					tiled[key] = true
				})
			}
		}
		if len(full) != len(tiled) {
			t.Fatalf("%v tiles: full pass %d fragments, tiled %d", ts, len(full), len(tiled))
		}
		for k := range full {
			if !tiled[k] {
				t.Fatalf("%v tiles: pixel %v missing from tiled pass", ts, k)
			}
		}
	}
}

func TestPointRasterization(t *testing.T) {
	const w, h = 16, 16
	r := NewRasterizer(Viewport{0, 0, w, h}, 0)
	n := 0
	// Point at NDC origin with size 4 covers a 4x4 block.
	r.Point(vtx(0, 0, 0, 1), 4, func(f *Fragment, pcx, pcy float32) {
		n++
		if pcx < 0 || pcx > 1 || pcy < 0 || pcy > 1 {
			t.Errorf("point coord out of range: (%g,%g)", pcx, pcy)
		}
	})
	if n != 16 {
		t.Errorf("size-4 point covered %d pixels, want 16", n)
	}
}

func TestDepthRange(t *testing.T) {
	r := NewRasterizer(Viewport{0, 0, 4, 4}, 0)
	r.SetDepthRange(0.2, 0.8)
	r.Triangle(vtx(-1, -1, 0, 1), vtx(1, -1, 0, 1), vtx(1, 1, 0, 1), true, func(f *Fragment) {
		// ndc z=0 maps to middle of [0.2,0.8] = 0.5
		if !close32(f.FragCoord[2], 0.5, 1e-6) {
			t.Fatalf("depth = %g, want 0.5", f.FragCoord[2])
		}
	})
}

func close32(a, b float32, tol float64) bool {
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	return d <= tol
}
