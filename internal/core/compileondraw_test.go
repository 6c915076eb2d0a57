package core

import (
	"strings"
	"testing"

	"glescompute/internal/codec"
)

// links returns the device's program-link count so far.
func links(d *Device) uint64 { return d.GL().Transfers().LinkCount }

// drawSpecs returns a gather kernel that may host epilogues and an
// element-wise kernel: a chain the planner fuses into one pass.
func drawSpecs() (head, ew KernelSpec) {
	head = KernelSpec{
		Name:            "head",
		Inputs:          []Param{{Name: "x", Type: codec.Int32}},
		Outputs:         []OutputSpec{{Name: "out", Type: codec.Int32}},
		Source:          "float gc_kernel(float idx) {\n\treturn gc_x(gc_out_n - 1.0 - idx) * 3.0;\n}\n",
		FusableEpilogue: true,
	}
	return head, ewSpec("ew", codec.Int32, nil, "gc_x(idx) + 1.0")
}

// planLinks declares head and ew on a fresh device, chains them, plans
// the pipeline and returns the programs the plan linked and its passes.
func planLinks(t *testing.T, fuse bool) (uint64, []string) {
	t.Helper()
	d := openTest(t)
	defer d.Close()
	head, ew := drawSpecs()
	hk, err := d.DeclareKernel(head)
	if err != nil {
		t.Fatal(err)
	}
	ek, err := d.DeclareKernel(ew)
	if err != nil {
		t.Fatal(err)
	}
	p := d.NewPipeline()
	defer p.Close()
	p.SetFusion(fuse)
	x := p.Input(codec.Int32, 16)
	p.Output(p.Stage(ek, nil, p.Stage(hk, nil, x)))
	if n := links(d); n != 0 {
		t.Fatalf("declaring and staging linked %d programs, want 0", n)
	}
	passes, err := p.PlannedPasses()
	if err != nil {
		t.Fatal(err)
	}
	n := links(d)
	in, _ := d.NewBuffer(codec.Int32, 16)
	out, _ := d.NewBuffer(codec.Int32, 16)
	defer in.Free()
	defer out.Free()
	stats, err := p.Run([]*Buffer{out}, []*Buffer{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(stats.Programs) != n || links(d) != n {
		t.Errorf("plan reports %d programs drawn, linked %d at plan and %d after Run", stats.Programs, n, links(d))
	}
	return n, passes
}

// TestCompileOnDraw pins compile on draw: a pipeline links only the
// programs its plan draws, so declared stage kernels that fusion folds
// away never compile, while BuildKernel and BuildKernelCached stay eager.
func TestCompileOnDraw(t *testing.T) {
	t.Setenv(EnvCompileCache, "")
	if n, passes := planLinks(t, true); n != 1 || len(passes) != 1 {
		t.Errorf("fused chain linked %d programs for passes %v, want 1 for 1", n, passes)
	}
	if n, passes := planLinks(t, false); n != 2 || len(passes) != 2 {
		t.Errorf("unfused chain linked %d programs for passes %v, want 2 for 2", n, passes)
	}

	d := openTest(t)
	defer d.Close()
	head, ew := drawSpecs()
	if _, err := d.BuildKernel(head); err != nil {
		t.Fatal(err)
	}
	if n := links(d); n != 1 {
		t.Errorf("BuildKernel linked %d programs, want 1", n)
	}
	if _, err := d.BuildKernelCached(ew); err != nil {
		t.Fatal(err)
	}
	if n := links(d); n != 2 {
		t.Errorf("BuildKernelCached linked %d programs in total, want 2", n)
	}
	// A declared kernel comes out of the same cache: BuildKernelCached
	// returns it linked, and later declarations do not link again.
	dk, err := d.DeclareKernel(head)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := d.BuildKernelCached(head)
	if err != nil || ck != dk {
		t.Fatalf("BuildKernelCached after DeclareKernel: %v, same kernel %v", err, ck == dk)
	}
	if n := links(d); n != 3 {
		t.Errorf("BuildKernelCached of a declared kernel: %d programs in total, want 3", n)
	}
	// A declared kernel run directly links on its first Run.
	rk, err := d.DeclareKernel(ewSpec("direct", codec.Int32, nil, "gc_x(idx) * 2.0"))
	if err != nil {
		t.Fatal(err)
	}
	in, _ := d.NewBuffer(codec.Int32, 4)
	out, _ := d.NewBuffer(codec.Int32, 4)
	defer in.Free()
	defer out.Free()
	if err := in.WriteInt32([]int32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := rk.Run1(out, []*Buffer{in}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := out.ReadInt32()
	if err != nil {
		t.Fatal(err)
	}
	int32sEqual(t, "declared kernel run directly", []int32{2, 4, 6, 8}, got)
	if n := links(d); n != 4 {
		t.Errorf("running a declared kernel: %d programs in total, want 4", n)
	}
}

// TestCompileOnDrawError pins where a stage kernel's compile error
// surfaces: declaring and staging it succeeds, and PlannedPasses and
// Run return the error, naming the kernel.
func TestCompileOnDrawError(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	bad := ewSpec("broken-stage", codec.Int32, nil, "gc_x(idx) + undefined_name")
	k, err := d.DeclareKernel(bad)
	if err != nil {
		t.Fatalf("DeclareKernel compiled the source: %v", err)
	}
	p := d.NewPipeline()
	defer p.Close()
	x := p.Input(codec.Int32, 4)
	p.Output(p.Stage(k, nil, x))
	if err := p.Err(); err != nil {
		t.Fatalf("staging a declared kernel failed: %v", err)
	}
	if _, err := p.PlannedPasses(); err == nil || !strings.Contains(err.Error(), "broken-stage") {
		t.Fatalf("PlannedPasses: %v, want a compile error naming kernel broken-stage", err)
	}
	in, _ := d.NewBuffer(codec.Int32, 4)
	out, _ := d.NewBuffer(codec.Int32, 4)
	defer in.Free()
	defer out.Free()
	if _, err := p.Run([]*Buffer{out}, []*Buffer{in}, nil); err == nil || !strings.Contains(err.Error(), "broken-stage") {
		t.Fatalf("Run: %v, want the compile error naming kernel broken-stage", err)
	}
}
