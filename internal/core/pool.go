package core

import (
	"glescompute/internal/codec"
	"glescompute/internal/layout"
)

// poolKey identifies interchangeable buffers: same element type and same
// texel grid (a buffer's texture storage is its grid; the type decides
// how many logical values each texel carries).
type poolKey struct {
	elem codec.ElemType
	grid layout.Grid
}

// BufferPool recycles device buffers. Pipelines use one for their
// ping-pong intermediates (a slot is released as soon as its last reader
// has run, so the next stage's output reuses the texture a previous
// stage wrote, and repeated pipeline execution is allocation-free); the
// scheduler's device workers use one per device for job and batch
// buffers. Buffers checked out of a pool are by construction never
// simultaneously bound as a stage's input and render target — the swap
// half of the runtime's hazard rule (Pipeline falls back to a copy when
// the target is a user-owned buffer it cannot swap).
//
// A pool is not safe for concurrent use; each owner (pipeline, device
// worker) keeps its own.
type BufferPool struct {
	dev  *Device
	free map[poolKey][]*Buffer
	all  []*Buffer

	// Retention caps; 0 means unlimited. Long-running services cap their
	// pools so request-shape diversity cannot grow memory without bound:
	// a Release over the cap frees the buffer instead of retaining it.
	perKeyLimit int
	totalLimit  int
	freeCount   int

	allocs int // buffers created because no free one matched
	reuses int // acquisitions served from the free lists
}

// NewBufferPool creates an empty pool over the device.
func NewBufferPool(d *Device) *BufferPool {
	return &BufferPool{dev: d, free: map[poolKey][]*Buffer{}}
}

// SetLimit caps retention: at most perKey free buffers per shape and
// total free buffers overall (0 = unlimited). Buffers released beyond a
// cap are freed immediately.
func (p *BufferPool) SetLimit(perKey, total int) {
	p.perKeyLimit, p.totalLimit = perKey, total
}

// Acquire returns a free pooled buffer of the given shape, allocating
// one when the pool has none. n may differ between users of the same
// grid (e.g. reduction tails); the logical length is rewritten on
// checkout, and must fit the grid at elem's lane width.
func (p *BufferPool) Acquire(elem codec.ElemType, n int, grid layout.Grid) (*Buffer, error) {
	if err := p.dev.checkOpen("BufferPool.Acquire"); err != nil {
		return nil, err
	}
	if err := checkFits("BufferPool.Acquire", elem, n, grid); err != nil {
		return nil, err
	}
	key := poolKey{elem: elem, grid: grid}
	if list := p.free[key]; len(list) > 0 {
		b := list[len(list)-1]
		p.free[key] = list[:len(list)-1]
		p.freeCount--
		b.setLen(n)
		p.reuses++
		return b, nil
	}
	b, err := p.dev.newBufferWithGrid(elem, n, grid)
	if err != nil {
		return nil, err
	}
	p.allocs++
	p.all = append(p.all, b)
	return b, nil
}

// Release returns a buffer acquired from this pool to its free list, or
// frees it outright when a retention cap is exceeded.
func (p *BufferPool) Release(b *Buffer) {
	key := poolKey{elem: b.elem, grid: b.grid}
	if (p.perKeyLimit > 0 && len(p.free[key]) >= p.perKeyLimit) ||
		(p.totalLimit > 0 && p.freeCount >= p.totalLimit) {
		p.dropAndFree(b)
		return
	}
	p.free[key] = append(p.free[key], b)
	p.freeCount++
}

// dropAndFree removes b from the pool's ownership list and frees it.
func (p *BufferPool) dropAndFree(b *Buffer) {
	for i, o := range p.all {
		if o == b {
			p.all[i] = p.all[len(p.all)-1]
			p.all = p.all[:len(p.all)-1]
			break
		}
	}
	b.Free()
}

// FreeAll releases every GL object the pool ever allocated.
func (p *BufferPool) FreeAll() {
	for _, b := range p.all {
		b.Free()
	}
	p.all = nil
	p.free = map[poolKey][]*Buffer{}
	p.freeCount = 0
}
