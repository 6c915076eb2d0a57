package sched

import (
	"fmt"

	"glescompute/internal/codec"
	"glescompute/internal/core"
)

// Input is one typed host input to a job, built with Float32s, Int32s,
// Uint32s, Int8s, Bytes or FromBuffer, so the element type is fixed at the
// call site. The zero value is invalid and is rejected at Submit.
type Input struct {
	data interface{}
	elem codec.ElemType
}

// len returns the input's element count.
func (in Input) len() int { return core.HostLen(in.data) }

// Float32s wraps a []float32 input.
func Float32s(v []float32) Input { return Input{data: v, elem: codec.Float32} }

// Int32s wraps a []int32 input.
func Int32s(v []int32) Input { return Input{data: v, elem: codec.Int32} }

// Uint32s wraps a []uint32 input.
func Uint32s(v []uint32) Input { return Input{data: v, elem: codec.Uint32} }

// Int8s wraps an []int8 input.
func Int8s(v []int8) Input { return Input{data: v, elem: codec.Int8} }

// Bytes wraps a []uint8 input.
func Bytes(v []uint8) Input { return Input{data: v, elem: codec.Uint8} }

// FromBuffer snapshots a device buffer's current contents as a job input
// of the buffer's host element type (int8 for a packed Int8x4 buffer).
// The snapshot is taken here, on the caller's goroutine — later writes to
// the buffer do not affect the job.
func FromBuffer(b *core.Buffer) (Input, error) {
	data, err := b.ReadRange(0, b.Len())
	if err != nil {
		return Input{}, fmt.Errorf("sched: FromBuffer: %w", err)
	}
	return Input{data: data, elem: b.Elem().Scalar()}, nil
}
