package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"glescompute/internal/codec"
	"glescompute/internal/gles"
	"glescompute/internal/layout"
)

// Buffer is a typed device array backed by an RGBA8 texture (challenge #3:
// arrays live in 2D textures). Reading back binds the texture to an FBO
// and uses ReadPixels — the only readback path ES 2.0 offers
// (challenge #7).
type Buffer struct {
	dev  *Device
	elem codec.ElemType // storage type; its Lanes() values share a texel
	n    int
	grid layout.Grid

	// cover is the live-texel geometry every pass rendering into this
	// buffer draws (see liveCover): texels at or past elem.TexelsFor(n)
	// are never shaded, so their contents are undefined.
	cover []byte

	tex uint32
	fbo uint32 // lazily created for readback / render target use
}

// NewBuffer allocates a device buffer of n elements of type t. A packed
// type stores Lanes values per texel, so the texture covers
// t.TexelsFor(n) texels (the tail lanes of the last texel are padding).
func (d *Device) NewBuffer(t codec.ElemType, n int) (*Buffer, error) {
	if err := d.checkOpen("NewBuffer"); err != nil {
		return nil, err
	}
	if !t.Valid() {
		return nil, fmt.Errorf("core: NewBuffer: unknown element type %s", t)
	}
	g, err := layout.ForLength(t.TexelsFor(n), d.cfg.MaxGridWidth)
	if err != nil {
		return nil, err
	}
	return d.newBufferWithGrid(t, n, g)
}

// NewBufferWithGrid allocates a buffer of n logical elements over an
// explicit texture layout — the hook the scheduler's request batching
// uses to allocate one shared texture laid out by layout.PackRows. n may
// be smaller than the grid holds (trailing texels are padding), never
// larger.
func (d *Device) NewBufferWithGrid(t codec.ElemType, n int, g layout.Grid) (*Buffer, error) {
	if err := d.checkOpen("NewBufferWithGrid"); err != nil {
		return nil, err
	}
	if g.Width <= 0 || g.Height <= 0 || g.Width > d.cfg.MaxGridWidth ||
		g.Height > d.ctx.Caps().MaxTextureSize {
		return nil, fmt.Errorf("core: NewBufferWithGrid: grid %dx%d out of range", g.Width, g.Height)
	}
	if err := checkFits("NewBufferWithGrid", t, n, g); err != nil {
		return nil, err
	}
	return d.newBufferWithGrid(t, n, g)
}

// checkFits rejects an unknown element type, and a length the grid's
// texels cannot hold at t's lane width.
func checkFits(op string, t codec.ElemType, n int, g layout.Grid) error {
	if !t.Valid() {
		return fmt.Errorf("core: %s: unknown element type %s", op, t)
	}
	if n <= 0 || n > g.Texels()*t.Lanes() {
		return fmt.Errorf("core: %s: %d %s elements do not fit %dx%d texels", op, n, t, g.Width, g.Height)
	}
	return nil
}

// NewMatrixBuffer allocates a buffer holding an n×n row-major matrix with
// an exact n×n texel layout, so kernels can address (row, col) directly.
func (d *Device) NewMatrixBuffer(t codec.ElemType, n int) (*Buffer, error) {
	if err := d.checkOpen("NewMatrixBuffer"); err != nil {
		return nil, err
	}
	if n > d.cfg.MaxGridWidth {
		return nil, fmt.Errorf("core: matrix dimension %d exceeds max texture size %d", n, d.cfg.MaxGridWidth)
	}
	g, err := layout.Square(n)
	if err != nil {
		return nil, err
	}
	if err := checkFits("NewMatrixBuffer", t, n*n, g); err != nil {
		return nil, err
	}
	return d.newBufferWithGrid(t, n*n, g)
}

func (d *Device) newBufferWithGrid(t codec.ElemType, n int, g layout.Grid) (*Buffer, error) {
	ctx := d.ctx
	prev := uint32(ctx.GetIntegerv(gles.TEXTURE_BINDING_2D)[0])
	tex := ctx.CreateTexture()
	ctx.BindTexture(gles.TEXTURE_2D, tex)
	// Allocate storage; NEAREST + CLAMP_TO_EDGE keeps NPOT textures
	// complete and addressing exact (challenge #4 and the ES 2.0 NPOT
	// completeness rules).
	ctx.TexImage2D(gles.TEXTURE_2D, 0, gles.RGBA, g.Width, g.Height, 0, gles.RGBA, gles.UNSIGNED_BYTE, nil)
	ctx.TexParameteri(gles.TEXTURE_2D, gles.TEXTURE_MIN_FILTER, gles.NEAREST)
	ctx.TexParameteri(gles.TEXTURE_2D, gles.TEXTURE_MAG_FILTER, gles.NEAREST)
	ctx.TexParameteri(gles.TEXTURE_2D, gles.TEXTURE_WRAP_S, gles.CLAMP_TO_EDGE)
	ctx.TexParameteri(gles.TEXTURE_2D, gles.TEXTURE_WRAP_T, gles.CLAMP_TO_EDGE)
	ctx.BindTexture(gles.TEXTURE_2D, prev)
	if err := d.checkGL("NewBuffer"); err != nil {
		return nil, err
	}
	b := &Buffer{dev: d, elem: t, grid: g, tex: tex}
	b.setLen(n)
	return b, nil
}

// setLen sets the logical length, rebuilding the live-texel cover when
// the live texel count changes.
func (b *Buffer) setLen(n int) {
	if b.cover == nil || b.elem.TexelsFor(n) != b.elem.TexelsFor(b.n) {
		b.cover = liveCover(b.grid, b.elem.TexelsFor(n))
	}
	b.n = n
}

// Elem returns the storage element type (Int8x4 for a packed int8
// buffer; Elem().Scalar() is the host type its values read back as).
func (b *Buffer) Elem() codec.ElemType { return b.elem }

// Len returns the element count.
func (b *Buffer) Len() int { return b.n }

// Grid returns the 2D texture layout.
func (b *Buffer) Grid() layout.Grid { return b.grid }

// Texture returns the name of the GL texture backing the buffer, for raw
// dev.GL() interop. Texels at or past Elem().TexelsFor(Len()) are the
// grid's tail: no pass writes them, so their contents are undefined.
func (b *Buffer) Texture() uint32 { return b.tex }

// Free releases the buffer's GL objects. Freeing after the device has
// closed is a no-op (the context's objects are already unreachable).
func (b *Buffer) Free() {
	if b.dev.closed {
		b.fbo, b.tex = 0, 0
		return
	}
	if b.fbo != 0 {
		b.dev.ctx.DeleteFramebuffer(b.fbo)
		b.fbo = 0
	}
	if b.tex != 0 {
		b.dev.ctx.DeleteTexture(b.tex)
		b.tex = 0
	}
}

// ensureFBO lazily creates the framebuffer object with this buffer's
// texture as color attachment. The caller's framebuffer binding is left
// untouched; callers bind the returned FBO themselves when they need it.
func (b *Buffer) ensureFBO() (uint32, error) {
	if b.fbo != 0 {
		return b.fbo, nil
	}
	ctx := b.dev.ctx
	prev := uint32(ctx.GetIntegerv(gles.FRAMEBUFFER_BINDING)[0])
	fbo := ctx.CreateFramebuffer()
	ctx.BindFramebuffer(gles.FRAMEBUFFER, fbo)
	ctx.FramebufferTexture2D(gles.FRAMEBUFFER, gles.COLOR_ATTACHMENT0, gles.TEXTURE_2D, b.tex, 0)
	st := ctx.CheckFramebufferStatus(gles.FRAMEBUFFER)
	ctx.BindFramebuffer(gles.FRAMEBUFFER, prev)
	if st != gles.FRAMEBUFFER_COMPLETE {
		return 0, fmt.Errorf("core: buffer FBO incomplete: 0x%04x", st)
	}
	if err := b.dev.checkGL("ensureFBO"); err != nil {
		return 0, err
	}
	b.fbo = fbo
	return fbo, nil
}

// upload packs the prepared texel bytes (4 per texel) into the texture,
// restoring the application's 2D texture binding afterwards.
func (b *Buffer) upload(texels []byte) error {
	if err := b.dev.checkOpen("upload"); err != nil {
		return err
	}
	ctx := b.dev.ctx
	full := make([]byte, b.grid.Texels()*4)
	copy(full, texels)
	prev := uint32(ctx.GetIntegerv(gles.TEXTURE_BINDING_2D)[0])
	ctx.BindTexture(gles.TEXTURE_2D, b.tex)
	ctx.TexImage2D(gles.TEXTURE_2D, 0, gles.RGBA, b.grid.Width, b.grid.Height, 0, gles.RGBA, gles.UNSIGNED_BYTE, full)
	ctx.BindTexture(gles.TEXTURE_2D, prev)
	return b.dev.checkGL("upload")
}

// readTexels reads the whole texture back through an FBO + ReadPixels,
// restoring the application's framebuffer binding afterwards.
func (b *Buffer) readTexels() ([]byte, error) {
	if err := b.dev.checkOpen("read"); err != nil {
		return nil, err
	}
	fbo, err := b.ensureFBO()
	if err != nil {
		return nil, err
	}
	ctx := b.dev.ctx
	prev := uint32(ctx.GetIntegerv(gles.FRAMEBUFFER_BINDING)[0])
	ctx.BindFramebuffer(gles.FRAMEBUFFER, fbo)
	out := make([]byte, b.grid.Texels()*4)
	ctx.ReadPixels(0, 0, b.grid.Width, b.grid.Height, gles.RGBA, gles.UNSIGNED_BYTE, out)
	ctx.BindFramebuffer(gles.FRAMEBUFFER, prev)
	if err := b.dev.checkGL("readTexels"); err != nil {
		return nil, err
	}
	return out, nil
}

// write checks src against the buffer's type and length, packs it through
// the codec table and uploads the full grid.
func (b *Buffer) write(op string, src interface{}) error {
	n, texels, err := codec.Pack(b.elem, src)
	if err != nil {
		return fmt.Errorf("core: %s: %w", op, err)
	}
	if n != b.n {
		return fmt.Errorf("core: %s: length %d does not match buffer length %d", op, n, b.n)
	}
	return b.upload(texels)
}

// read reads the full grid back and decodes it through the codec table
// into a []T, after checking that T is the buffer's host type t.
func read[T any](b *Buffer, op string, t codec.ElemType) ([]T, error) {
	if b.elem.Scalar() != t {
		return nil, fmt.Errorf("core: %s: buffer holds %s, not %s", op, b.elem, t)
	}
	texels, err := b.readTexels()
	if err != nil {
		return nil, err
	}
	out, err := codec.Unpack(b.elem, texels, b.n)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", op, err)
	}
	return out.([]T), nil
}

// WriteFloat32 uploads float data, packed per the paper's Fig. 2 byte
// re-arrangement.
func (b *Buffer) WriteFloat32(src []float32) error { return b.write("WriteFloat32", src) }

// ReadFloat32 reads the buffer back into float data.
func (b *Buffer) ReadFloat32() ([]float32, error) {
	return read[float32](b, "ReadFloat32", codec.Float32)
}

// WriteInt32 uploads two's-complement int32 data (paper §IV-D).
func (b *Buffer) WriteInt32(src []int32) error { return b.write("WriteInt32", src) }

// ReadInt32 reads the buffer back into int32 data.
func (b *Buffer) ReadInt32() ([]int32, error) { return read[int32](b, "ReadInt32", codec.Int32) }

// WriteUint32 uploads uint32 data (paper §IV-C).
func (b *Buffer) WriteUint32(src []uint32) error { return b.write("WriteUint32", src) }

// ReadUint32 reads the buffer back into uint32 data.
func (b *Buffer) ReadUint32() ([]uint32, error) { return read[uint32](b, "ReadUint32", codec.Uint32) }

// WriteUint8 uploads byte data (paper §IV-A).
func (b *Buffer) WriteUint8(src []uint8) error { return b.write("WriteUint8", src) }

// ReadUint8 reads the buffer back into byte data.
func (b *Buffer) ReadUint8() ([]uint8, error) { return read[uint8](b, "ReadUint8", codec.Uint8) }

// WriteInt8 uploads signed byte data: §IV-B two's complement one value
// per texel for Int8 buffers, excess-128 four lanes per texel for Int8x4
// buffers (a quarter of the texels and upload bytes).
func (b *Buffer) WriteInt8(src []int8) error { return b.write("WriteInt8", src) }

// ReadInt8 reads an Int8 or Int8x4 buffer back into signed byte data.
func (b *Buffer) ReadInt8() ([]int8, error) { return read[int8](b, "ReadInt8", codec.Int8) }

// f32bytes encodes float32 values little-endian.
func f32bytes(vals []float32) []byte {
	out := make([]byte, len(vals)*4)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}
