package core_test

import (
	"fmt"
	"regexp"
	"sort"
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

// kernelCorpus returns the fragment shader of every kernel the served
// networks and the paper's T1 kernels declare, fuse and compose.
func kernelCorpus(t *testing.T) []string {
	t.Helper()
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
	return srcs
}

func compileFragment(t *testing.T, src string) *shader.Compiled {
	t.Helper()
	prog, errs := glsl.CompileSource(src, glsl.StageFragment, glsl.CheckOptions{})
	if err := errs.Err(); err != nil {
		t.Fatal(err)
	}
	c, err := shader.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCodecHelpersInlined checks that no call to a codec helper is left
// in the code of any kernel in the corpus.
func TestCodecHelpersInlined(t *testing.T) {
	calls := 0
	for _, src := range kernelCorpus(t) {
		c := compileFragment(t, src)
		for _, name := range c.Callees() {
			if !kernelFunc.MatchString(name) {
				t.Fatalf("a call to %s is left in the code of:\n%s", name, src)
			}
			calls++
		}
	}
	t.Logf("%d kernel calls left", calls)
}

var (
	// vec4Decode is the first line of a decoder whose bytes come from one
	// floor(t * 255.0 ± vec4(C)): Int8x4, Int32, Uint32 and Float32.
	vec4Decode = regexp.MustCompile(`(?m)^(?:float|vec4) gc_decode\w*\(vec4 t\) \{\n\t(?:vec4 b = |return )floor\(t \* 255\.0 [+-] vec4\(`)
	anyDecode  = regexp.MustCompile(`(?m)^(?:float|vec4) gc_decode\w*\(vec4 t\) \{`)
)

// TestVec4DecodesFused checks that in every kernel of the corpus whose
// decoders are vec4 decodes, every texel fetch compiles into one fused
// fetch-and-decode step, that scalar decodes are left alone, and that the
// program binary of every kernel restores.
func TestVec4DecodesFused(t *testing.T) {
	vec4Kernels, fused := 0, 0
	for _, src := range kernelCorpus(t) {
		c := compileFragment(t, src)
		// A served kernel whose binary the validator rejects would only
		// recompile from source, silently: require every one to restore.
		if blob, err := c.MarshalBinary(); err != nil {
			t.Fatal(err)
		} else if _, err := shader.UnmarshalCompiled(blob); err != nil {
			t.Fatalf("program binary rejected (%v) for:\n%s", err, src)
		}
		f, total := c.Fetches()
		nvec4, ndec := len(vec4Decode.FindAllString(src, -1)), len(anyDecode.FindAllString(src, -1))
		switch {
		case nvec4 == ndec:
			if total == 0 || f != total {
				t.Fatalf("%d of %d fetches fused in:\n%s", f, total, src)
			}
			vec4Kernels++
			fused += f
		case nvec4 == 0:
			if f != 0 {
				t.Fatalf("%d fetches fused with a scalar decode in:\n%s", f, src)
			}
		default:
			t.Fatalf("kernel mixes vec4 and scalar decoders:\n%s", src)
		}
	}
	// Float32 LeNet, int8-vec4 LeNet and MobileNet, and T1 in both types.
	if vec4Kernels < 20 {
		t.Fatalf("%d kernels decode vec4 texels, want every float32, int8-vec4 and T1 kernel", vec4Kernels)
	}
	t.Logf("%d kernels, %d fused fetches", vec4Kernels, fused)
}

// TestLoopTripDispatches pins how many instructions one trip around the
// inner loop of each int8-vec4 LeNet conv and GEMM kernel runs when no
// conditional body inside it does (shader.Compiled.LoopTrips), and
// requires that no opStats is left on that path: every region a trip
// runs is counted by the branch or back edge that ends it. The fused conv
// kernels also carry the pool's loop, which calls the conv member. Before
// the loop steps were fused, these trips ran 29 (conv1), 49 (conv2), 50
// (fc) and 47 (pool) instructions. The pool's trip fell from 32 to 31 when
// Compile began writing a subtraction's result straight into its variable
// (float kx = t - ky * 2.0).
func TestLoopTripDispatches(t *testing.T) {
	dev, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	net, err := nn.DemoLeNetInt8(7).BuildLanes(dev, 1, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if _, err := net.PlannedPasses(); err != nil {
		t.Fatal(err)
	}
	want := map[string][][]int{
		"conv1+relu1+pool1": {{31, 10}},
		"conv2+relu2+pool2": {{31, 19}},
		"fc1+relu3":         {{20}},
		"fc2+relu4":         {{20}},
		// The stage kernels the fused ones are planned from: conv1 and
		// conv2, and the one GEMM fc1, fc2 and fc3 share (fc3 runs it).
		"nn-conv-rq": {{10}, {19}},
		"nn-gemm-rq": {{20}},
	}
	kernels := core.KernelFragments(dev)
	for name, trips := range want {
		srcs := kernels[name]
		if len(srcs) != len(trips) {
			t.Fatalf("%s: %d kernels, want %d", name, len(srcs), len(trips))
		}
		var got [][]int
		for _, src := range srcs {
			var lens []int
			for _, trip := range compileFragment(t, src).LoopTrips() {
				if trip.Stats != 0 {
					t.Errorf("%s: a loop trip runs %d opStats", name, trip.Stats)
				}
				lens = append(lens, trip.Instrs)
			}
			got = append(got, lens)
		}
		// Same-name kernels come out of the cache in no fixed order.
		sort.Slice(got, func(i, j int) bool { return fmt.Sprint(got[i]) < fmt.Sprint(got[j]) })
		if fmt.Sprint(got) != fmt.Sprint(trips) {
			t.Errorf("%s: loop trips of %v instructions, want %v", name, got, trips)
		}
	}
}
