package core_test

import (
	"regexp"
	"testing"

	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/glsl"
	"glescompute/internal/nn"
	"glescompute/internal/shader"
)

// kernelFunc matches the functions that may stay calls in a generated
// shader: the kernel entry (gc_kernel, gc_kernel_<output>) and the fused
// members the planner renames to gc_fk<j>. Everything else the runtime
// generates (accessors, walk helpers, decoders, gc_encode_out) is small,
// loop-free codec code the bytecode compiler must inline.
var kernelFunc = regexp.MustCompile(`^gc_(kernel(_\w+)?|fk\d+)$`)

// TestCodecHelpersInlined compiles the fragment shader of every kernel
// the served networks and the paper's T1 kernels declare, fuse and
// compose, and checks that no call to a codec helper is left in the code.
func TestCodecHelpersInlined(t *testing.T) {
	dev, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	for _, tc := range []struct {
		m     *nn.Model
		lanes []int
	}{
		{nn.DemoLeNetFloat32(7), []int{1}},
		{nn.DemoLeNetInt8(7), []int{1, 4}},
		{nn.DemoMobileNetInt8(17), []int{1, 4}},
	} {
		for _, lanes := range tc.lanes {
			for _, tapAll := range []bool{false, true} {
				net, err := tc.m.BuildLanes(dev, 1, tapAll, lanes)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := net.PlannedPasses(); err != nil {
					t.Fatal(err)
				}
				net.Close()
			}
		}
	}
	// The T1 sum and sgemm kernels (internal/paper), in both element types.
	for _, elem := range []codec.ElemType{codec.Int32, codec.Float32} {
		ins := []core.Param{{Name: "a", Type: elem}, {Name: "b", Type: elem}}
		outs := []core.OutputSpec{{Name: "out", Type: elem}}
		for _, spec := range []core.KernelSpec{
			{Name: "sum", Inputs: ins, Outputs: outs, Source: `
float gc_kernel(float idx) {
	return gc_a(idx) + gc_b(idx);
}`},
			{Name: "sgemm", Inputs: ins, Outputs: outs, Uniforms: []string{"u_n"}, Source: `
float gc_kernel(float idx) {
	float row = floor((idx + 0.5) / u_n);
	float col = idx - row * u_n;
	float acc = 0.0;
	for (float k = 0.0; k < 2048.0; k += 1.0) {
		if (k >= u_n) { break; }
		acc += gc_a_at(k, row) * gc_b_at(col, k);
	}
	return acc;
}`},
		} {
			if _, err := dev.BuildKernelCached(spec); err != nil {
				t.Fatal(err)
			}
		}
	}

	srcs := core.FragmentSources(dev)
	if len(srcs) < 20 {
		t.Fatalf("corpus has %d fragment shaders, want every stage and fused kernel", len(srcs))
	}
	calls := 0
	for _, src := range srcs {
		prog, errs := glsl.CompileSource(src, glsl.StageFragment, glsl.CheckOptions{})
		if err := errs.Err(); err != nil {
			t.Fatal(err)
		}
		c, err := shader.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range c.Callees() {
			if !kernelFunc.MatchString(name) {
				t.Fatalf("a call to %s is left in the code of:\n%s", name, src)
			}
			calls++
		}
	}
	t.Logf("%d fragment shaders, %d kernel calls left", len(srcs), calls)
}
