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
	fmt  codec.Format // texel layout: element type + lane width
	elem codec.ElemType
	n    int
	grid layout.Grid

	tex uint32
	fbo uint32 // lazily created for readback / render target use
}

// NewBuffer allocates a device buffer of n elements of type t in the
// scalar (one value per texel) format.
func (d *Device) NewBuffer(t codec.ElemType, n int) (*Buffer, error) {
	return d.NewBufferFmt(codec.FormatOf(t), n)
}

// NewBufferFmt allocates a device buffer of n logical elements in an
// explicit texel format; packed formats store Lanes values per texel, so
// the texture covers ceil(n/lanes) texels (the tail lanes of the last
// texel are padding).
func (d *Device) NewBufferFmt(f codec.Format, n int) (*Buffer, error) {
	if err := d.checkOpen("NewBuffer"); err != nil {
		return nil, err
	}
	if f == codec.FmtAuto {
		return nil, fmt.Errorf("core: NewBufferFmt: format must be explicit")
	}
	g, err := layout.ForLengthLanes(n, f.Lanes(), d.cfg.MaxGridWidth)
	if err != nil {
		return nil, err
	}
	return d.newBufferWithGrid(f, n, g)
}

// NewBufferWithGrid allocates a buffer of n logical elements over an
// explicit texture layout — the hook the scheduler's request batching
// uses to allocate one shared texture laid out by layout.PackRows. n may
// be smaller than the grid's texel count (trailing texels are padding).
func (d *Device) NewBufferWithGrid(t codec.ElemType, n int, g layout.Grid) (*Buffer, error) {
	if err := d.checkOpen("NewBufferWithGrid"); err != nil {
		return nil, err
	}
	if g.Width <= 0 || g.Height <= 0 || g.Width > d.cfg.MaxGridWidth ||
		g.Height > d.ctx.Caps().MaxTextureSize {
		return nil, fmt.Errorf("core: NewBufferWithGrid: grid %dx%d out of range", g.Width, g.Height)
	}
	if n <= 0 || n > g.Texels()*g.LaneCount() {
		return nil, fmt.Errorf("core: NewBufferWithGrid: %d elements do not fit %dx%d texels", n, g.Width, g.Height)
	}
	return d.newBufferWithGrid(codec.FormatOf(t), n, g)
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
	return d.newBufferWithGrid(codec.FormatOf(t), n*n, g)
}

func (d *Device) newBufferWithGrid(f codec.Format, n int, g layout.Grid) (*Buffer, error) {
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
	return &Buffer{dev: d, fmt: f, elem: f.Elem(), n: n, grid: g, tex: tex}, nil
}

// Elem returns the logical element type.
func (b *Buffer) Elem() codec.ElemType { return b.elem }

// Format returns the texel format.
func (b *Buffer) Format() codec.Format { return b.fmt }

// Len returns the element count.
func (b *Buffer) Len() int { return b.n }

// Grid returns the 2D texture layout.
func (b *Buffer) Grid() layout.Grid { return b.grid }

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

func (b *Buffer) checkLen(op string, n int) error {
	if n != b.n {
		return fmt.Errorf("core: %s: length %d does not match buffer length %d", op, n, b.n)
	}
	return nil
}

func (b *Buffer) checkElem(op string, t codec.ElemType) error {
	if b.elem != t {
		return fmt.Errorf("core: %s: buffer holds %s, not %s", op, b.elem, t)
	}
	return nil
}

// WriteFloat32 uploads float data, packed per the paper's Fig. 2 byte
// re-arrangement.
func (b *Buffer) WriteFloat32(src []float32) error {
	if err := b.checkElem("WriteFloat32", codec.Float32); err != nil {
		return err
	}
	if err := b.checkLen("WriteFloat32", len(src)); err != nil {
		return err
	}
	buf := make([]byte, b.fmt.TexelsFor(len(src))*4)
	if err := codec.PackFloat32(buf, src); err != nil {
		return err
	}
	return b.upload(buf)
}

// ReadFloat32 reads the buffer back into float data.
func (b *Buffer) ReadFloat32() ([]float32, error) {
	if err := b.checkElem("ReadFloat32", codec.Float32); err != nil {
		return nil, err
	}
	texels, err := b.readTexels()
	if err != nil {
		return nil, err
	}
	out := make([]float32, b.n)
	if err := codec.UnpackFloat32(out, texels[:b.n*4]); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteInt32 uploads two's-complement int32 data (paper §IV-D).
func (b *Buffer) WriteInt32(src []int32) error {
	if err := b.checkElem("WriteInt32", codec.Int32); err != nil {
		return err
	}
	if err := b.checkLen("WriteInt32", len(src)); err != nil {
		return err
	}
	buf := make([]byte, len(src)*4)
	if err := codec.PackInt32(buf, src); err != nil {
		return err
	}
	return b.upload(buf)
}

// ReadInt32 reads the buffer back into int32 data.
func (b *Buffer) ReadInt32() ([]int32, error) {
	if err := b.checkElem("ReadInt32", codec.Int32); err != nil {
		return nil, err
	}
	texels, err := b.readTexels()
	if err != nil {
		return nil, err
	}
	out := make([]int32, b.n)
	if err := codec.UnpackInt32(out, texels[:b.n*4]); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteUint32 uploads uint32 data (paper §IV-C).
func (b *Buffer) WriteUint32(src []uint32) error {
	if err := b.checkElem("WriteUint32", codec.Uint32); err != nil {
		return err
	}
	if err := b.checkLen("WriteUint32", len(src)); err != nil {
		return err
	}
	buf := make([]byte, len(src)*4)
	if err := codec.PackUint32(buf, src); err != nil {
		return err
	}
	return b.upload(buf)
}

// ReadUint32 reads the buffer back into uint32 data.
func (b *Buffer) ReadUint32() ([]uint32, error) {
	if err := b.checkElem("ReadUint32", codec.Uint32); err != nil {
		return nil, err
	}
	texels, err := b.readTexels()
	if err != nil {
		return nil, err
	}
	out := make([]uint32, b.n)
	if err := codec.UnpackUint32(out, texels[:b.n*4]); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteUint8 uploads byte data (paper §IV-A).
func (b *Buffer) WriteUint8(src []uint8) error {
	if err := b.checkElem("WriteUint8", codec.Uint8); err != nil {
		return err
	}
	if err := b.checkLen("WriteUint8", len(src)); err != nil {
		return err
	}
	buf := make([]byte, len(src)*4)
	if err := codec.PackUint8(buf, src); err != nil {
		return err
	}
	return b.upload(buf)
}

// ReadUint8 reads the buffer back into byte data.
func (b *Buffer) ReadUint8() ([]uint8, error) {
	if err := b.checkElem("ReadUint8", codec.Uint8); err != nil {
		return nil, err
	}
	texels, err := b.readTexels()
	if err != nil {
		return nil, err
	}
	out := make([]uint8, b.n)
	if err := codec.UnpackUint8(out, texels[:b.n*4]); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteInt8 uploads signed byte data: §IV-B two's complement one value
// per texel for scalar buffers, excess-128 four lanes per texel for
// Int8x4 buffers (a quarter of the texels and upload bytes).
func (b *Buffer) WriteInt8(src []int8) error {
	if err := b.checkElem("WriteInt8", codec.Int8); err != nil {
		return err
	}
	if err := b.checkLen("WriteInt8", len(src)); err != nil {
		return err
	}
	buf := make([]byte, b.fmt.TexelsFor(len(src))*4)
	if b.fmt == codec.FmtInt8x4 {
		if err := codec.PackInt8x4(buf, src); err != nil {
			return err
		}
	} else if err := codec.PackInt8(buf, src); err != nil {
		return err
	}
	return b.upload(buf)
}

// ReadInt8 reads the buffer back into signed byte data.
func (b *Buffer) ReadInt8() ([]int8, error) {
	if err := b.checkElem("ReadInt8", codec.Int8); err != nil {
		return nil, err
	}
	texels, err := b.readTexels()
	if err != nil {
		return nil, err
	}
	out := make([]int8, b.n)
	if b.fmt == codec.FmtInt8x4 {
		if err := codec.UnpackInt8x4(out, texels); err != nil {
			return nil, err
		}
		return out, nil
	}
	if err := codec.UnpackInt8(out, texels[:b.n*4]); err != nil {
		return nil, err
	}
	return out, nil
}

// f32bytes encodes float32 values little-endian.
func f32bytes(vals []float32) []byte {
	out := make([]byte, len(vals)*4)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}
