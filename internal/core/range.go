package core

import (
	"fmt"

	"glescompute/internal/codec"
	"glescompute/internal/gles"
)

// This file implements job-sized sub-range transfers: writing and reading
// a span of elements without touching the rest of the buffer. The
// scheduler's request batching depends on them — many small jobs are laid
// out as adjacent rows of one shared texture (layout.PackRows), uploaded
// in one call, and sliced back out per job. GL moves rectangles, so write
// ranges must cover whole texel rows; reads accept any span (the covering
// rows are read and the span sliced out host-side).

// HostLen returns the length of a supported host slice ([]float32,
// []int32, []uint32, []int8, []uint8), or -1 for any other type.
func HostLen(src interface{}) int {
	_, n := HostElem(src)
	return n
}

// HostElem returns the element type and length of a supported host
// slice, or length -1 for any other type.
func HostElem(src interface{}) (codec.ElemType, int) {
	switch s := src.(type) {
	case []float32:
		return codec.Float32, len(s)
	case []int32:
		return codec.Int32, len(s)
	case []uint32:
		return codec.Uint32, len(s)
	case []int8:
		return codec.Int8, len(s)
	case []uint8:
		return codec.Uint8, len(s)
	}
	return 0, -1
}

// NewHostSlice allocates a host slice of n elements of type t.
func NewHostSlice(t codec.ElemType, n int) interface{} {
	switch t {
	case codec.Float32:
		return make([]float32, n)
	case codec.Int32:
		return make([]int32, n)
	case codec.Uint32:
		return make([]uint32, n)
	case codec.Int8:
		return make([]int8, n)
	default:
		return make([]uint8, n)
	}
}

// CopyHostSlice copies src into dst starting at element off; both must be
// host slices of the same element type.
func CopyHostSlice(dst interface{}, off int, src interface{}) {
	switch d := dst.(type) {
	case []float32:
		copy(d[off:], src.([]float32))
	case []int32:
		copy(d[off:], src.([]int32))
	case []uint32:
		copy(d[off:], src.([]uint32))
	case []int8:
		copy(d[off:], src.([]int8))
	case []uint8:
		copy(d[off:], src.([]uint8))
	}
}

// SubHostSlice returns elements [off, off+n) of a host slice without
// copying, capacity capped so the caller cannot scribble past them.
func SubHostSlice(src interface{}, off, n int) interface{} {
	switch s := src.(type) {
	case []float32:
		return s[off : off+n : off+n]
	case []int32:
		return s[off : off+n : off+n]
	case []uint32:
		return s[off : off+n : off+n]
	case []int8:
		return s[off : off+n : off+n]
	case []uint8:
		return s[off : off+n : off+n]
	}
	return nil
}

// CloneHostSlice returns a fresh copy of elements [off, off+n) of a host
// slice, so the copy outlives any reuse of src.
func CloneHostSlice(src interface{}, off, n int) interface{} {
	switch s := src.(type) {
	case []float32:
		return append([]float32(nil), s[off:off+n]...)
	case []int32:
		return append([]int32(nil), s[off:off+n]...)
	case []uint32:
		return append([]uint32(nil), s[off:off+n]...)
	case []int8:
		return append([]int8(nil), s[off:off+n]...)
	case []uint8:
		return append([]uint8(nil), s[off:off+n]...)
	}
	return nil
}

// WriteRange uploads src into elements [off, off+len(src)) through one
// TexSubImage2D call. src must be a slice matching the buffer's element
// type. The range must start on a texel-row boundary and either cover
// whole rows or end at the buffer's tail — GL uploads rectangles, and the
// runtime will not read-modify-write to fake finer granularity.
func (b *Buffer) WriteRange(off int, src interface{}) error {
	if err := b.dev.checkOpen("WriteRange"); err != nil {
		return err
	}
	count, texels, err := codec.Pack(b.elem, src)
	if err != nil {
		return fmt.Errorf("core: WriteRange: %w", err)
	}
	if count == 0 {
		return nil
	}
	w := b.grid.Width
	lanes := b.elem.Lanes()
	if off < 0 || off+count > b.n {
		return fmt.Errorf("core: WriteRange: [%d,%d) outside buffer of %d elements", off, off+count, b.n)
	}
	if off%lanes != 0 {
		return fmt.Errorf("core: WriteRange: offset %d not on a texel boundary (%d lanes/texel)", off, lanes)
	}
	if count%lanes != 0 && off+count != b.n {
		return fmt.Errorf("core: WriteRange: %d elements from %d end mid-texel (%d lanes/texel) before the buffer tail", count, off, lanes)
	}
	texOff := off / lanes
	texCount := b.elem.TexelsFor(count)
	if texOff%w != 0 {
		return fmt.Errorf("core: WriteRange: offset %d not on a row boundary (width %d)", off, w)
	}
	if texCount%w != 0 && off+count != b.n {
		return fmt.Errorf("core: WriteRange: %d elements from %d neither cover whole rows (width %d) nor reach the buffer tail", count, off, w)
	}
	rows := (texCount + w - 1) / w
	padded := texels
	if len(padded) < rows*w*4 {
		padded = make([]byte, rows*w*4)
		copy(padded, texels)
	}
	ctx := b.dev.ctx
	prev := uint32(ctx.GetIntegerv(gles.TEXTURE_BINDING_2D)[0])
	ctx.BindTexture(gles.TEXTURE_2D, b.tex)
	ctx.TexSubImage2D(gles.TEXTURE_2D, 0, 0, texOff/w, w, rows, gles.RGBA, gles.UNSIGNED_BYTE, padded)
	ctx.BindTexture(gles.TEXTURE_2D, prev)
	return b.dev.checkGL("WriteRange")
}

// ReadRange reads elements [off, off+count) back into a freshly allocated
// slice of the buffer's element type, reading only the covering texel rows
// (one ReadPixels call). Any span is accepted.
func (b *Buffer) ReadRange(off, count int) (interface{}, error) {
	if err := b.dev.checkOpen("ReadRange"); err != nil {
		return nil, err
	}
	if off < 0 || count <= 0 || off+count > b.n {
		return nil, fmt.Errorf("core: ReadRange: [%d,%d) outside buffer of %d elements", off, off+count, b.n)
	}
	fbo, err := b.ensureFBO()
	if err != nil {
		return nil, err
	}
	w := b.grid.Width
	lanes := b.elem.Lanes()
	texOff := off / lanes
	texEnd := (off + count - 1) / lanes
	startRow := texOff / w
	rows := texEnd/w - startRow + 1
	ctx := b.dev.ctx
	prev := uint32(ctx.GetIntegerv(gles.FRAMEBUFFER_BINDING)[0])
	ctx.BindFramebuffer(gles.FRAMEBUFFER, fbo)
	texels := make([]byte, rows*w*4)
	ctx.ReadPixels(0, startRow, w, rows, gles.RGBA, gles.UNSIGNED_BYTE, texels)
	ctx.BindFramebuffer(gles.FRAMEBUFFER, prev)
	if err := b.dev.checkGL("ReadRange"); err != nil {
		return nil, err
	}
	// Byte offset of the first requested lane: whole texels, then lanes
	// within the first texel (4 bytes/texel ÷ lanes bytes/lane).
	skip := (texOff-startRow*w)*4 + (off-texOff*lanes)*(4/lanes)
	out, err := codec.Unpack(b.elem, texels[skip:], count)
	if err != nil {
		return nil, fmt.Errorf("core: ReadRange: %w", err)
	}
	return out, nil
}
