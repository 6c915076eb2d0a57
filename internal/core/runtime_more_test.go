package core

import (
	"testing"

	"glescompute/internal/codec"
)

func TestKernelUsesUVVarying(t *testing.T) {
	// v_uv is interpolated by the pass-through vertex shader (challenge #1)
	// across the output grid; at texel centres it equals the normalized
	// output coordinate.
	d := openTest(t)
	defer d.Close()
	const n = 64 // 64-wide, 1-high grid
	out, _ := d.NewBuffer(codec.Float32, n)
	k, err := d.BuildKernel(KernelSpec{
		Name:    "uv",
		Outputs: []OutputSpec{{Name: "out", Type: codec.Float32}},
		Source:  "float gc_kernel(float idx) { return v_uv.x; }",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run1(out, nil, nil); err != nil {
		t.Fatal(err)
	}
	got, err := out.ReadFloat32()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := (float32(i) + 0.5) / n
		if codec.MantissaBitsAgreement(want, got[i]) < 13 {
			t.Fatalf("v_uv.x at %d: got %g, want %g", i, got[i], want)
		}
	}
}

func TestUint8KernelArithmetic(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	const n = 256
	in := make([]uint8, n)
	for i := range in {
		in[i] = uint8(i)
	}
	bi, _ := d.NewBuffer(codec.Uint8, n)
	bo, _ := d.NewBuffer(codec.Uint8, n)
	if err := bi.WriteUint8(in); err != nil {
		t.Fatal(err)
	}
	k, err := d.BuildKernel(KernelSpec{
		Name:    "invert",
		Inputs:  []Param{{Name: "x", Type: codec.Uint8}},
		Outputs: []OutputSpec{{Name: "out", Type: codec.Uint8}},
		Source:  "float gc_kernel(float idx) { return 255.0 - gc_x(idx); }",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run1(bo, []*Buffer{bi}, nil); err != nil {
		t.Fatal(err)
	}
	got, _ := bo.ReadUint8()
	for i := range got {
		if got[i] != 255-in[i] {
			t.Fatalf("invert[%d] = %d, want %d", i, got[i], 255-in[i])
		}
	}
}

func TestInt8KernelRoundTrip(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	vals := []int8{-128, -1, 0, 1, 127}
	bi, _ := d.NewBuffer(codec.Int8, len(vals))
	bo, _ := d.NewBuffer(codec.Int8, len(vals))
	if err := bi.WriteInt8(vals); err != nil {
		t.Fatal(err)
	}
	k, err := d.BuildKernel(KernelSpec{
		Name:    "clamp-negate",
		Inputs:  []Param{{Name: "x", Type: codec.Int8}},
		Outputs: []OutputSpec{{Name: "out", Type: codec.Int8}},
		Source:  "float gc_kernel(float idx) { return -gc_x(idx); }",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run1(bo, []*Buffer{bi}, nil); err != nil {
		t.Fatal(err)
	}
	got, _ := bo.ReadInt8()
	want := []int8{127, 1, 0, -1, -127} // -(-128) clamps to 127
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("negate[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestMatrixBufferTooLarge(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	if _, err := d.NewMatrixBuffer(codec.Float32, 1<<16); err == nil {
		t.Fatal("oversized matrix must be rejected")
	}
}

func TestBufferFreeAndReuse(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	b, err := d.NewBuffer(codec.Float32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFloat32(make([]float32, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadFloat32(); err != nil {
		t.Fatal(err)
	}
	b.Free()
	// New allocations keep working after a Free.
	b2, err := d.NewBuffer(codec.Float32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.WriteFloat32(make([]float32, 16)); err != nil {
		t.Fatal(err)
	}
}

func TestOutputCountMismatch(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	k, err := d.BuildKernel(KernelSpec{
		Name: "two",
		Outputs: []OutputSpec{
			{Name: "a", Type: codec.Float32},
			{Name: "b", Type: codec.Float32},
		},
		Source: `
float gc_kernel_a(float idx) { return 1.0; }
float gc_kernel_b(float idx) { return 2.0; }
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := d.NewBuffer(codec.Float32, 4)
	if _, err := k.Run([]*Buffer{out}, nil, nil); err == nil {
		t.Fatal("output count mismatch must error")
	}
}

func TestOutputTypeMismatch(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	k, err := d.BuildKernel(KernelSpec{
		Name:    "f",
		Outputs: []OutputSpec{{Name: "out", Type: codec.Float32}},
		Source:  "float gc_kernel(float idx) { return 0.0; }",
	})
	if err != nil {
		t.Fatal(err)
	}
	wrong, _ := d.NewBuffer(codec.Int32, 4)
	if _, err := k.Run1(wrong, nil, nil); err == nil {
		t.Fatal("output type mismatch must error")
	}
}

func TestFloorConversionDevice(t *testing.T) {
	// Ablation A3 at the device level: a device configured with the
	// paper's eq. (2) floor conversion still round-trips all codecs.
	d, err := Open(Config{FloorConversion: true, RasterWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	vals := []int32{0, -77, 12345, 1<<24 - 1}
	bi, _ := d.NewBuffer(codec.Int32, len(vals))
	bo, _ := d.NewBuffer(codec.Int32, len(vals))
	if err := bi.WriteInt32(vals); err != nil {
		t.Fatal(err)
	}
	k, err := d.BuildKernel(KernelSpec{
		Name:    "id",
		Inputs:  []Param{{Name: "x", Type: codec.Int32}},
		Outputs: []OutputSpec{{Name: "out", Type: codec.Int32}},
		Source:  "float gc_kernel(float idx) { return gc_x(idx); }",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run1(bo, []*Buffer{bi}, nil); err != nil {
		t.Fatal(err)
	}
	got, _ := bo.ReadInt32()
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("floor-mode round trip failed at %d: %d != %d", i, got[i], vals[i])
		}
	}
}

func TestKernelNameDefaults(t *testing.T) {
	spec := KernelSpec{Source: "float gc_kernel(float idx) { return 0.0; }"}
	norm := spec.normalized()
	if norm.Name != "kernel" {
		t.Errorf("default name = %q", norm.Name)
	}
	if len(norm.Outputs) != 1 || norm.Outputs[0].Name != "out" || norm.Outputs[0].Type != codec.Float32 {
		t.Errorf("default outputs = %+v", norm.Outputs)
	}
}
