package core

import (
	"fmt"
	"strings"
	"testing"

	"glescompute/internal/codec"
)

// vec4_test.go exercises the packed int8x4 path end to end: 4-wide
// kernels with scalar tails, packed buffer IO, explicit repack passes,
// and the fusion planner's lane-width rules. The scalar path is the
// oracle throughout — vec4 must be bit-identical to it.

const double4Source = `
vec4 gc_kernel(float tidx) {
	return clamp(gc_x4(tidx) * 2.0, vec4(-128.0), vec4(127.0));
}
`

const relu4Source = `
vec4 gc_kernel(float tidx) {
	return max(gc_x4(tidx), vec4(0.0));
}
`

const doubleScalarSource = `
float gc_kernel(float idx) {
	return clamp(gc_x(idx) * 2.0, -128.0, 127.0);
}
`

const reluScalarSource = `
float gc_kernel(float idx) {
	return max(gc_x(idx), 0.0);
}
`

func int8Kernel(t *testing.T, d *Device, name, src string, packed bool) *Kernel {
	t.Helper()
	et := codec.Int8
	if packed {
		et = codec.Int8x4
	}
	k, err := d.BuildKernel(KernelSpec{
		Name:        name,
		Inputs:      []Param{{Name: "x", Type: et}},
		Outputs:     []OutputSpec{{Name: "out", Type: et}},
		Source:      src,
		ElementWise: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func int8Ramp(n int) []int8 {
	xs := make([]int8, n)
	for i := range xs {
		xs[i] = int8(i*7%199 - 99)
	}
	return xs
}

func cpuDouble(v int8) int8 {
	x := int(v) * 2
	if x > 127 {
		x = 127
	}
	if x < -128 {
		x = -128
	}
	return int8(x)
}

// TestVec4KernelMatchesScalarWithTails runs the same element-wise int8
// kernel through the 4-wide and scalar paths for every tail residue
// (n%4 ∈ {0,1,2,3}) and demands bit-identical results — the acceptance
// bar the nn differentials build on.
func TestVec4KernelMatchesScalarWithTails(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	k4 := int8Kernel(t, d, "double4", double4Source, true)
	k1 := int8Kernel(t, d, "double1", doubleScalarSource, false)
	if k4.spec.lanes() != 4 || k1.spec.lanes() != 1 {
		t.Fatalf("derived lanes: packed %d scalar %d, want 4/1", k4.spec.lanes(), k1.spec.lanes())
	}
	for _, n := range []int{16, 17, 18, 19, 1, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			xs := int8Ramp(n)
			run := func(k *Kernel, et codec.ElemType) []int8 {
				in, err := d.NewBuffer(et, n)
				if err != nil {
					t.Fatal(err)
				}
				out, err := d.NewBuffer(et, n)
				if err != nil {
					t.Fatal(err)
				}
				if err := in.WriteInt8(xs); err != nil {
					t.Fatal(err)
				}
				if _, err := k.Run1(out, []*Buffer{in}, nil); err != nil {
					t.Fatal(err)
				}
				got, err := out.ReadInt8()
				if err != nil {
					t.Fatal(err)
				}
				return got
			}
			got4 := run(k4, codec.Int8x4)
			got1 := run(k1, codec.Int8)
			for i := range xs {
				want := cpuDouble(xs[i])
				if got1[i] != want {
					t.Fatalf("scalar path element %d: got %d, want %d", i, got1[i], want)
				}
				if got4[i] != got1[i] {
					t.Fatalf("vec4 path element %d: got %d, scalar path %d", i, got4[i], got1[i])
				}
			}
		})
	}
}

// TestPackedBufferRoundTrips checks the packed upload/readback paths in
// isolation (no kernel): int8 through Int8x4.
func TestPackedBufferRoundTrips(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	for _, n := range []int{1, 3, 8, 257} {
		b, err := d.NewBuffer(codec.Int8x4, n)
		if err != nil {
			t.Fatal(err)
		}
		xs := int8Ramp(n)
		if err := b.WriteInt8(xs); err != nil {
			t.Fatal(err)
		}
		got, err := b.ReadInt8()
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if got[i] != xs[i] {
				t.Fatalf("int8x4 n=%d element %d: got %d, want %d", n, i, got[i], xs[i])
			}
		}
	}
}

// TestRepackKernel converts a scalar int8 buffer to int8x4 and back,
// checking both directions are lossless and that invalid conversions
// are rejected.
func TestRepackKernel(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const n = 19 // tail texel in the packed form
	xs := int8Ramp(n)

	pack, err := d.BuildRepackKernel(codec.Int8, codec.Int8x4)
	if err != nil {
		t.Fatal(err)
	}
	unpack, err := d.BuildRepackKernel(codec.Int8x4, codec.Int8)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := d.NewBuffer(codec.Int8, n)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := d.NewBuffer(codec.Int8x4, n)
	if err != nil {
		t.Fatal(err)
	}
	back, err := d.NewBuffer(codec.Int8, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := scalar.WriteInt8(xs); err != nil {
		t.Fatal(err)
	}
	if _, err := pack.Run1(packed, []*Buffer{scalar}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := packed.ReadInt8()
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("pack element %d: got %d, want %d", i, got[i], xs[i])
		}
	}
	if _, err := unpack.Run1(back, []*Buffer{packed}, nil); err != nil {
		t.Fatal(err)
	}
	got, err = back.ReadInt8()
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("unpack element %d: got %d, want %d", i, got[i], xs[i])
		}
	}

	if _, err := d.BuildRepackKernel(codec.Int8, codec.Int8); err == nil {
		t.Error("same-width repack built, want error")
	}
	if _, err := d.BuildRepackKernel(codec.Float32, codec.Int8x4); err == nil {
		t.Error("cross-type repack built, want error")
	}
}

// TestFusionVec4Chain verifies that two 4-wide element-wise stages fuse
// into one pass and that the fused result stays bit-identical to the
// unfused plan.
func TestFusionVec4Chain(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	k1 := int8Kernel(t, d, "double4", double4Source, true)
	k2 := int8Kernel(t, d, "relu4", relu4Source, true)
	const n = 258 // tail texel
	xs := int8Ramp(n)

	run := func(fuse bool) ([]int8, []string) {
		p := d.NewPipeline()
		defer p.Close()
		p.SetFusion(fuse)
		x := p.Input(codec.Int8x4, n)
		s1 := p.Stage(k1, nil, x)
		s2 := p.Stage(k2, nil, s1)
		p.Output(s2)
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
		passes, err := p.PlannedPasses()
		if err != nil {
			t.Fatal(err)
		}
		in, err := d.NewBuffer(codec.Int8x4, n)
		if err != nil {
			t.Fatal(err)
		}
		out, err := d.NewBuffer(codec.Int8x4, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.WriteInt8(xs); err != nil {
			t.Fatal(err)
		}
		stats, err := p.Run([]*Buffer{out}, []*Buffer{in}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.FusionFallbacks != 0 {
			t.Fatalf("FusionFallbacks = %d, want 0", stats.FusionFallbacks)
		}
		got, err := out.ReadInt8()
		if err != nil {
			t.Fatal(err)
		}
		return got, passes
	}

	fused, fusedPasses := run(true)
	plain, plainPasses := run(false)
	if len(fusedPasses) != 1 || !strings.Contains(fusedPasses[0], "+") {
		t.Fatalf("fused plan = %v, want one merged pass", fusedPasses)
	}
	if len(plainPasses) != 2 {
		t.Fatalf("unfused plan = %v, want two passes", plainPasses)
	}
	for i := range xs {
		want := cpuDouble(xs[i])
		if want < 0 {
			want = 0
		}
		if plain[i] != want {
			t.Fatalf("unfused element %d: got %d, want %d", i, plain[i], want)
		}
		if fused[i] != plain[i] {
			t.Fatalf("fused element %d: got %d, unfused %d", i, fused[i], plain[i])
		}
	}
}

// TestFusionRefusesLaneBoundary builds a mixed-width pipeline
// (scalar double → pack repack → 4-wide relu) and checks the planner
// keeps all three passes: the repack stage is the explicit seam and
// must never be folded into either neighbour.
func TestFusionRefusesLaneBoundary(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	k1 := int8Kernel(t, d, "double1", doubleScalarSource, false)
	pack, err := d.BuildRepackKernel(codec.Int8, codec.Int8x4)
	if err != nil {
		t.Fatal(err)
	}
	k2 := int8Kernel(t, d, "relu4", relu4Source, true)
	const n = 37
	xs := int8Ramp(n)

	p := d.NewPipeline()
	defer p.Close()
	x := p.Input(codec.Int8, n)
	s1 := p.Stage(k1, nil, x)
	s2 := p.Stage(pack, nil, s1)
	s3 := p.Stage(k2, nil, s2)
	p.Output(s3)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	passes, err := p.PlannedPasses()
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) != 3 {
		t.Fatalf("planned passes = %v, want 3 (no fusion across the lane seam)", passes)
	}
	in, err := d.NewBuffer(codec.Int8, n)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.NewBuffer(codec.Int8x4, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.WriteInt8(xs); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run([]*Buffer{out}, []*Buffer{in}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := out.ReadInt8()
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		want := cpuDouble(xs[i])
		if want < 0 {
			want = 0
		}
		if got[i] != want {
			t.Fatalf("element %d: got %d, want %d", i, got[i], want)
		}
	}
}
