package core

import (
	"fmt"

	"glescompute/internal/codec"
)

// BuildRepackKernel builds the explicit lane-width conversion pass that
// bridges scalar and packed layouts. The fusion planner refuses to fuse
// across a lane-width boundary (the value crossing the edge changes
// shape from float to vec4); pipelines that mix widths insert a repack
// stage instead, paying one draw + one codec round trip at the seam —
// exactly the cost fusion elsewhere deletes, now made visible and
// chargeable to the layout decision that caused it.
//
// Supported conversions keep the element type and change only the
// packing: Int8 <-> Int8x4. Any width-preserving "conversion" is
// rejected.
//
// The returned kernel deliberately declares neither ElementWise nor
// FusableEpilogue: a repack must materialize both sides of the seam,
// so the planner never folds it into a neighbouring chain.
func (d *Device) BuildRepackKernel(from, to codec.ElemType) (*Kernel, error) {
	if from.Scalar() != to.Scalar() {
		return nil, fmt.Errorf("core: repack %s -> %s: element types differ", from, to)
	}
	if from.Lanes() == to.Lanes() {
		return nil, fmt.Errorf("core: repack %s -> %s: same lane width, nothing to repack", from, to)
	}
	var src string
	switch {
	case to == codec.Int8x4:
		// Pack: one fragment per output texel gathers four consecutive
		// scalars. Tail reads past the source length hit clamped texels;
		// the generated main() masks those lanes to zero regardless.
		src = `vec4 gc_kernel(float tidx) {
	float base = tidx * 4.0;
	return vec4(gc_src(base), gc_src(base + 1.0), gc_src(base + 2.0), gc_src(base + 3.0));
}`
	case to.Lanes() == 1:
		// Unpack: the packed input's scalar lane-select accessor does the
		// (texel, lane) mapping; the kernel is the identity on top of it.
		src = `float gc_kernel(float idx) { return gc_src(idx); }`
	default:
		return nil, fmt.Errorf("core: repack %s -> %s: unsupported conversion", from, to)
	}
	return d.BuildKernelCached(KernelSpec{
		Name:    fmt.Sprintf("repack_%s_to_%s", from, to),
		Source:  src,
		Inputs:  []Param{{Name: "src", Type: from}},
		Outputs: []OutputSpec{{Name: "out", Type: to}},
	})
}
