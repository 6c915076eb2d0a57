package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"glescompute/internal/codec"
	"glescompute/internal/gles"
	"glescompute/internal/layout"
)

// cover_test.go pins the live-texel cover: every pass rasterizes exactly
// its output's elem.TexelsFor(n) live texels in one draw, leaves the
// grid's tail untouched, and no kernel reads an input texel past its
// live count.

const identitySource = `
float gc_kernel(float idx) {
	return gc_x(idx);
}
`

const identity4Source = `
vec4 gc_kernel(float tidx) {
	return gc_x4(tidx);
}
`

// hostRamp returns n distinct values of t's host type.
func hostRamp(t codec.ElemType, n int) interface{} {
	switch t.Scalar() {
	case codec.Float32:
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = float32(i%1000) - 499.5
		}
		return xs
	case codec.Int32:
		xs := make([]int32, n)
		for i := range xs {
			xs[i] = int32(i*7919%100003) - 50000
		}
		return xs
	case codec.Uint8:
		xs := make([]uint8, n)
		for i := range xs {
			xs[i] = uint8(i * 37)
		}
		return xs
	default:
		return int8Ramp(n)
	}
}

// fillTexels overwrites texels [from, Texels()) of b with the byte v
// through the raw GL context, row segment by row segment.
func fillTexels(t *testing.T, d *Device, b *Buffer, from int, v byte) {
	t.Helper()
	g := b.Grid()
	ctx := d.GL()
	prev := uint32(ctx.GetIntegerv(gles.TEXTURE_BINDING_2D)[0])
	ctx.BindTexture(gles.TEXTURE_2D, b.Texture())
	for i := from; i < g.Texels(); {
		x, y := g.Coord(i)
		w := g.Width - x
		ctx.TexSubImage2D(gles.TEXTURE_2D, 0, x, y, w, 1, gles.RGBA, gles.UNSIGNED_BYTE, bytes.Repeat([]byte{v}, 4*w))
		i += w
	}
	ctx.BindTexture(gles.TEXTURE_2D, prev)
	if e := ctx.GetError(); e != gles.NO_ERROR {
		t.Fatalf("filling texels: GL error 0x%04x", e)
	}
}

// poisonTails fills every buffer's tail texels with 0xFF bytes.
func poisonTails(t *testing.T, d *Device, bufs ...*Buffer) {
	t.Helper()
	for _, b := range bufs {
		fillTexels(t, d, b, b.Elem().TexelsFor(b.Len()), 0xFF)
	}
}

// checkCoverPass asserts one draw shaded exactly out's live texels, its
// elements match those decoded from want, and the sentinel survived in
// the tail.
func checkCoverPass(t *testing.T, name string, st gles.DrawStats, out *Buffer, want []byte, sentinel byte) {
	t.Helper()
	live := out.Elem().TexelsFor(out.Len())
	if st.DrawCalls != 1 || st.FragmentsShaded != uint64(live) {
		t.Errorf("%s: %d draws shading %d fragments, want 1 draw shading the %d live texels of %dx%d",
			name, st.DrawCalls, st.FragmentsShaded, live, out.grid.Width, out.grid.Height)
	}
	got, err := out.readTexels()
	if err != nil {
		t.Fatal(err)
	}
	g, err := codec.Unpack(out.elem, got, out.n)
	if err != nil {
		t.Fatal(err)
	}
	w, err := codec.Unpack(out.elem, want, out.n)
	if err != nil {
		t.Fatal(err)
	}
	if gf, ok := g.([]float32); ok {
		// The float output transformation rounds the mantissa (§IV-C).
		for i, v := range w.([]float32) {
			if math.Abs(float64(gf[i]-v)) > 1e-4*math.Abs(float64(v)) {
				t.Errorf("%s: element %d = %g, want %g", name, i, gf[i], v)
				break
			}
		}
	} else if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: live elements differ from the input", name)
	}
	for i, v := range got[4*live:] {
		if v != sentinel {
			t.Errorf("%s: tail byte %d (texel %d) is 0x%02x, want the sentinel 0x%02x", name, i, live+i/4, v, sentinel)
			break
		}
	}
}

// TestPassShadesOnlyLiveTexels runs an identity kernel per storage type
// over lengths that leave partial rows, at the default grid width and at
// a narrow one that forces a multi-row grid with a partial last row.
func TestPassShadesOnlyLiveTexels(t *testing.T) {
	const sentinel = 0xA5
	for _, maxW := range []int{0, 16} {
		d, err := Open(Config{RasterWorkers: 2, MaxGridWidth: maxW})
		if err != nil {
			t.Fatal(err)
		}
		for _, et := range []codec.ElemType{codec.Int32, codec.Float32, codec.Uint8, codec.Int8x4} {
			src := identitySource
			if et == codec.Int8x4 {
				src = identity4Source
			}
			k, err := d.BuildKernel(KernelSpec{
				Name:    "identity",
				Inputs:  []Param{{Name: "x", Type: et}},
				Outputs: []OutputSpec{{Name: "out", Type: et}},
				Source:  src,
			})
			if err != nil {
				t.Fatal(err)
			}
			// 1, 5, 129, 1000 and 4097 plus 6 and 131: every n%4 residue.
			for _, n := range []int{1, 5, 6, 129, 131, 1000, 4097} {
				name := fmt.Sprintf("maxW=%d/%s/n=%d", maxW, et, n)
				in, err := d.NewBuffer(et, n)
				if err != nil {
					t.Fatal(err)
				}
				out, err := d.NewBuffer(et, n)
				if err != nil {
					t.Fatal(err)
				}
				if err := in.write("write", hostRamp(et, n)); err != nil {
					t.Fatal(err)
				}
				fillTexels(t, d, out, 0, sentinel)
				st, err := k.Run1(out, []*Buffer{in}, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := in.readTexels()
				if err != nil {
					t.Fatal(err)
				}
				checkCoverPass(t, name, st.Draw, out, want, sentinel)
				in.Free()
				out.Free()
			}
			k.Close()
		}
		d.Close()
	}
}

// TestCoverPackedGridAndCopy covers the two other ways a pass meets a
// grid: an explicit layout.PackRows grid (the scheduler's batch layout,
// whose live prefix spans inter-member padding) and a hazard Copy.
func TestCoverPackedGridAndCopy(t *testing.T) {
	const sentinel = 0x5A
	d := openTest(t)
	defer d.Close()
	g, _, err := layout.PackRows([]int{5, 100, 37}, d.cfg.MaxGridWidth, 0)
	if err != nil {
		t.Fatal(err)
	}
	in, err := d.NewBufferWithGrid(codec.Float32, g.N, g)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.NewBufferWithGrid(codec.Float32, g.N, g)
	if err != nil {
		t.Fatal(err)
	}
	if g.N == g.Texels() {
		t.Fatalf("PackRows grid %dx%d for %d texels leaves no tail", g.Width, g.Height, g.N)
	}
	if err := in.WriteFloat32(hostRamp(codec.Float32, g.N).([]float32)); err != nil {
		t.Fatal(err)
	}
	want, err := in.readTexels()
	if err != nil {
		t.Fatal(err)
	}
	k, err := d.BuildKernel(KernelSpec{
		Name:    "identity",
		Inputs:  []Param{{Name: "x", Type: codec.Float32}},
		Outputs: []OutputSpec{{Name: "out", Type: codec.Float32}},
		Source:  identitySource,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	fillTexels(t, d, out, 0, sentinel)
	st, err := k.Run1(out, []*Buffer{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkCoverPass(t, "PackRows", st.Draw, out, want, sentinel)

	const n = 1000
	src, _ := d.NewBuffer(codec.Int32, n)
	dst, _ := d.NewBuffer(codec.Int32, n)
	if err := src.WriteInt32(hostRamp(codec.Int32, n).([]int32)); err != nil {
		t.Fatal(err)
	}
	if want, err = src.readTexels(); err != nil {
		t.Fatal(err)
	}
	fillTexels(t, d, dst, 0, sentinel)
	if err := d.Copy(dst, src); err != nil {
		t.Fatal(err)
	}
	checkCoverPass(t, "Copy", d.ctx.LastDraw(), dst, want, sentinel)

	// 999 and 1000 int8 values share a 250-texel grid, but not a length.
	long, _ := d.NewBuffer(codec.Int8x4, n)
	short, _ := d.NewBuffer(codec.Int8x4, n-1)
	if err := d.Copy(short, long); err == nil {
		t.Error("Copy between buffers of different lengths must fail")
	}
}

// TestPoisonedTailsPipeline proves no pass of a fused element-wise chain
// followed by a Reduce reads a tail texel: after a warm run, every input's
// and every pooled intermediate's tail is filled with 0xFF bytes, and the
// checked run must reproduce the warm run bit for bit (and, for int32,
// the host sum).
func TestPoisonedTailsPipeline(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const n = 1000
	for _, et := range []codec.ElemType{codec.Int32, codec.Float32} {
		ew := func(name, src string, ins ...string) *Kernel {
			params := make([]Param, len(ins))
			for i, in := range ins {
				params[i] = Param{Name: in, Type: et}
			}
			k, err := d.BuildKernel(KernelSpec{
				Name: name, Inputs: params, Outputs: []OutputSpec{{Name: "out", Type: et}},
				Source: src, ElementWise: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return k
		}
		sum := ew("sum", sumSource, "a", "b")
		triple := ew("triple", "float gc_kernel(float idx) { return gc_x(idx) * 3.0; }\n", "x")
		p := d.NewPipeline()
		a := p.Input(et, n)
		b := p.Input(et, n)
		s := p.Stage(triple, nil, p.Stage(sum, nil, a, b))
		p.Output(p.Reduce(s, ReduceAdd))
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
		passes, err := p.PlannedPasses()
		if err != nil {
			t.Fatal(err)
		}
		if passes[0] != "sum+triple" {
			t.Fatalf("%s: planned passes %v, want the element-wise chain fused first", et, passes)
		}
		ba, _ := d.NewBuffer(et, n)
		bb, _ := d.NewBuffer(et, n)
		out, _ := d.NewBuffer(et, 1)
		xs := hostRamp(codec.Int32, n).([]int32)
		var want int32
		for _, x := range xs {
			want += 3 * (x/8 + x/16)
		}
		as, bs := make([]int32, n), make([]int32, n)
		for i, x := range xs {
			as[i], bs[i] = x/8, x/16
		}
		if et == codec.Int32 {
			if err := ba.WriteInt32(as); err != nil {
				t.Fatal(err)
			}
			if err := bb.WriteInt32(bs); err != nil {
				t.Fatal(err)
			}
		} else {
			af, bf := make([]float32, n), make([]float32, n)
			for i := range as {
				af[i], bf[i] = float32(as[i])/64, float32(bs[i])/64
			}
			if err := ba.WriteFloat32(af); err != nil {
				t.Fatal(err)
			}
			if err := bb.WriteFloat32(bf); err != nil {
				t.Fatal(err)
			}
		}
		run := func() []byte {
			if _, err := p.Run([]*Buffer{out}, []*Buffer{ba, bb}, nil); err != nil {
				t.Fatal(err)
			}
			texels, err := out.readTexels()
			if err != nil {
				t.Fatal(err)
			}
			return texels[:4]
		}
		clean := run()
		inter := p.Intermediates()
		if len(inter) == 0 {
			t.Fatal("pipeline allocated no intermediates")
		}
		poisonTails(t, d, append(inter, ba, bb, out)...)
		if got := run(); !bytes.Equal(got, clean) {
			t.Errorf("%s: poisoned tails changed the reduction: % x, clean run % x", et, got, clean)
		}
		if et == codec.Int32 {
			if got, _ := out.ReadInt32(); got[0] != want {
				t.Errorf("int32 reduction = %d, want %d", got[0], want)
			}
		}
		p.Close()
		for _, buf := range []*Buffer{ba, bb, out} {
			buf.Free()
		}
		for _, k := range []*Kernel{sum, triple} {
			k.Close()
		}
	}
}
