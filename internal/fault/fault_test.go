package fault

import (
	"errors"
	"testing"
	"time"

	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/gles"
)

// sumSpec is a minimal element-wise kernel for driving real device work.
// Int32 in and out: the integer codec round-trips exactly, so results can
// be compared bit-for-bit.
var sumSpec = core.KernelSpec{
	Name:    "fault_sum",
	Inputs:  []core.Param{{Name: "a", Type: codec.Int32}, {Name: "b", Type: codec.Int32}},
	Outputs: []core.OutputSpec{{Name: "out", Type: codec.Int32}},
	Source:  `float gc_kernel(float idx) { return gc_a(idx) + gc_b(idx); }`,
}

// runOnce uploads two small arrays, runs the sum kernel and reads back the
// result — one full upload/draw/readback round trip.
func runOnce(t *testing.T, dev *core.Device) ([]int32, error) {
	t.Helper()
	k, err := dev.BuildKernelCached(sumSpec)
	if err != nil {
		return nil, err
	}
	a := []int32{1, 2, 3, 4}
	b := []int32{10, 20, 30, 40}
	ba, err := dev.NewBuffer(codec.Int32, len(a))
	if err != nil {
		return nil, err
	}
	defer ba.Free()
	bb, err := dev.NewBuffer(codec.Int32, len(b))
	if err != nil {
		return nil, err
	}
	defer bb.Free()
	bo, err := dev.NewBuffer(codec.Int32, len(a))
	if err != nil {
		return nil, err
	}
	defer bo.Free()
	if err := ba.WriteRange(0, a); err != nil {
		return nil, err
	}
	if err := bb.WriteRange(0, b); err != nil {
		return nil, err
	}
	if _, err := k.Run1(bo, []*core.Buffer{ba, bb}, nil); err != nil {
		return nil, err
	}
	out, err := bo.ReadRange(0, len(a))
	if err != nil {
		return nil, err
	}
	return out.([]int32), nil
}

// TestPlanDeterminism: the same (seed, opts) pair produces identical
// schedules and identical fired faults for identical op streams.
func TestPlanDeterminism(t *testing.T) {
	opts := Options{OpHorizon: 8, StallFor: time.Microsecond}
	run := func() Stats {
		p := NewPlan(42, opts)
		inj := p.Injector(0)
		for i := 0; i < 32; i++ {
			inj.FaultBefore(gles.FaultOpDraw)
			inj.FaultBefore(gles.FaultOpUpload)
			inj.FaultBefore(gles.FaultOpRead)
		}
		return p.Stats()
	}
	s1, s2 := run(), run()
	if s1 != s2 {
		t.Fatalf("same seed, different fired faults: %+v vs %+v", s1, s2)
	}
	if s1.Total() == 0 {
		t.Fatalf("no faults fired over the full horizon: %+v", s1)
	}
}

// TestStickyLoss: after a terminal event every operation is dropped with
// CONTEXT_LOST and the schedule stops advancing.
func TestStickyLoss(t *testing.T) {
	p := NewPlan(7, Options{OpHorizon: 4, StallsPerIncarnation: -1, OOMsPerIncarnation: -1})
	inj := p.Injector(0) // slot 0, incarnation 0: terminal is ContextLost on a draw
	var lostAt int
	for i := 1; i <= 8; i++ {
		act := inj.FaultBefore(gles.FaultOpDraw)
		if act.DropOp && act.ErrCode == gles.CONTEXT_LOST {
			lostAt = i
			break
		}
	}
	if lostAt == 0 {
		t.Fatal("terminal event never fired within the horizon")
	}
	if !inj.Lost() {
		t.Fatal("injector not marked lost after terminal event")
	}
	for _, op := range []gles.FaultOp{gles.FaultOpDraw, gles.FaultOpRead, gles.FaultOpUpload} {
		act := inj.FaultBefore(op)
		if !act.DropOp || act.ErrCode != gles.CONTEXT_LOST {
			t.Fatalf("op %v after loss: got %+v, want dropped with CONTEXT_LOST", op, act)
		}
	}
}

// TestIncarnationBudget: incarnations beyond FaultyIncarnations carry no
// events at all, so replacements eventually run clean.
func TestIncarnationBudget(t *testing.T) {
	p := NewPlan(3, Options{FaultyIncarnations: 2, OpHorizon: 8})
	p.Injector(0)
	p.Injector(0)
	clean := p.Injector(0) // 3rd incarnation: past the budget
	for i := 0; i < 64; i++ {
		for _, op := range []gles.FaultOp{gles.FaultOpDraw, gles.FaultOpRead, gles.FaultOpUpload} {
			if act := clean.FaultBefore(op); act != (gles.FaultAction{}) {
				t.Fatalf("clean incarnation injected %+v", act)
			}
		}
	}
	if got := p.Incarnations(0); got != 3 {
		t.Fatalf("Incarnations(0) = %d, want 3", got)
	}
}

// TestDeviceClassification drives a real core.Device through injected
// faults and checks the error classification contract: context loss wraps
// core.ErrDeviceLost (and marks the device lost), transient OOM wraps
// core.ErrOutOfMemory (and the device keeps working), and corrupted
// readback surfaces as an error rather than wrong data.
func TestDeviceClassification(t *testing.T) {
	t.Run("context-lost", func(t *testing.T) {
		dev, err := core.Open(core.Config{RasterWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
		p := NewPlan(1, Options{OpHorizon: 1, StallsPerIncarnation: -1, OOMsPerIncarnation: -1})
		dev.GL().SetFaultInjector(p.Injector(0)) // slot 0, inc 0: ContextLost on draw #1
		if _, err := runOnce(t, dev); !errors.Is(err, core.ErrDeviceLost) {
			t.Fatalf("err = %v, want wrapped core.ErrDeviceLost", err)
		}
		if !dev.Lost() {
			t.Fatal("device not marked lost")
		}
	})
	t.Run("transient-oom", func(t *testing.T) {
		dev, err := core.Open(core.Config{RasterWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
		p := NewPlan(1, Options{OpHorizon: 4, StallsPerIncarnation: -1, OOMsPerIncarnation: 1, NoTerminal: true})
		dev.GL().SetFaultInjector(p.Injector(0))
		var sawOOM bool
		var out []int32
		for i := 0; i < 8; i++ {
			got, err := runOnce(t, dev)
			if err != nil {
				if !errors.Is(err, core.ErrOutOfMemory) {
					t.Fatalf("err = %v, want wrapped core.ErrOutOfMemory", err)
				}
				sawOOM = true
				continue
			}
			out = got
		}
		if !sawOOM {
			t.Fatal("scheduled OOM never fired")
		}
		if dev.Lost() {
			t.Fatal("transient OOM must not kill the device")
		}
		want := []int32{11, 22, 33, 44}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("post-OOM result %v, want %v", out, want)
			}
		}
	})
	t.Run("corrupt-readback", func(t *testing.T) {
		dev, err := core.Open(core.Config{RasterWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
		p := NewPlan(2, Options{OpHorizon: 2, StallsPerIncarnation: -1, OOMsPerIncarnation: -1})
		dev.GL().SetFaultInjector(p.Injector(1)) // slot 1, inc 0: CorruptReadback on a read
		var sawLost bool
		for i := 0; i < 4; i++ {
			out, err := runOnce(t, dev)
			if err != nil {
				if !errors.Is(err, core.ErrDeviceLost) {
					t.Fatalf("err = %v, want wrapped core.ErrDeviceLost", err)
				}
				sawLost = true
				break
			}
			// Any result that does come back must be correct: corruption
			// must never escape as silently wrong data.
			want := []int32{11, 22, 33, 44}
			for j := range want {
				if out[j] != want[j] {
					t.Fatalf("corrupt data escaped: %v, want %v", out, want)
				}
			}
		}
		if !sawLost {
			t.Fatal("scheduled readback corruption never fired")
		}
	})
	t.Run("disabled-injector-is-clean", func(t *testing.T) {
		dev, err := core.Open(core.Config{RasterWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
		out, err := runOnce(t, dev)
		if err != nil {
			t.Fatal(err)
		}
		want := []int32{11, 22, 33, 44}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("got %v, want %v", out, want)
			}
		}
	})
}
