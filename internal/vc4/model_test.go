package vc4

import (
	"testing"
	"time"

	"glescompute/internal/gles"
	"glescompute/internal/shader"
)

func TestPeakGFLOPSMatchesPaper(t *testing.T) {
	m := DefaultModel()
	// The paper (§I) quotes the VideoCore IV at 24 GFlops.
	if got := m.PeakGFLOPS(); got != 24 {
		t.Errorf("peak = %g GFLOPS, want 24 (paper §I)", got)
	}
}

// execute prices fragment work alone: one draw's shader time without the
// per-call overhead.
func execute(m *Model, s shader.Stats) time.Duration {
	return m.Price(&gles.DrawStats{FragmentStats: s}, &gles.TransferStats{}).Execute
}

func TestShaderTimeScalesLinearly(t *testing.T) {
	m := DefaultModel()
	t1 := execute(m, shader.Stats{Add: 1000, Mul: 1000, Invocations: 100})
	t2 := execute(m, shader.Stats{Add: 2000, Mul: 2000, Invocations: 200})
	if diff := t2 - 2*t1; diff < -time.Nanosecond || diff > time.Nanosecond {
		t.Errorf("time must scale linearly: %v vs %v", t1, t2)
	}
	if t1 <= 0 {
		t.Error("non-empty stats must cost time")
	}
}

func TestShaderTimeOpWeights(t *testing.T) {
	m := DefaultModel()
	add := execute(m, shader.Stats{Add: 1000})
	if execute(m, shader.Stats{SFU: 1000}) <= add {
		t.Error("SFU ops must cost more than plain adds")
	}
	if execute(m, shader.Stats{Div: 1000}) <= add {
		t.Error("divisions must cost more than adds")
	}
	if execute(m, shader.Stats{Mov: 1000}) >= add {
		t.Error("moves must be cheaper than adds (register coalescing)")
	}
}

func TestTransferAndCompileTime(t *testing.T) {
	m := DefaultModel()
	tr := gles.TransferStats{
		TexUploadBytes:  uint64(m.UploadBytesPerSec), // exactly one second
		TexUploadCalls:  1,
		ReadPixelsBytes: uint64(m.ReadbackBytesPerSec),
		ReadPixelsCalls: 1,
		CompileCount:    2,
		LinkCount:       1,
		BinaryLoadCount: 3,
	}
	got := m.Price(&gles.DrawStats{}, &tr)
	want := Timeline{
		Compile:  2*m.CompileTimePerShader + m.LinkTimePerProgram + 3*m.BinaryLoadPerProgram,
		Upload:   time.Second + m.UploadCallOverhead,
		Readback: time.Second + m.ReadbackOverhead,
	}
	if got != want {
		t.Errorf("Price = %+v, want %+v", got, want)
	}
}

// TestWallTimeComposition pins Execute as the vertex stage plus the
// fragment stage, each priced on its own, plus the per-draw overhead —
// and Total as the sum of the four phases.
func TestWallTimeComposition(t *testing.T) {
	m := DefaultModel()
	vert := shader.Stats{Invocations: 6, Mov: 60}
	frag := shader.Stats{Add: 1 << 20, Invocations: 1 << 16}
	draws := gles.DrawStats{DrawCalls: 3, VertexStats: vert, FragmentStats: frag}
	tr := gles.TransferStats{TexUploadBytes: 1 << 20, TexUploadCalls: 1, CompileCount: 2, LinkCount: 1}
	got := m.Price(&draws, &tr)
	if want := execute(m, vert) + execute(m, frag) + 3*m.DrawCallOverhead; got.Execute != want {
		t.Errorf("Execute %v, want %v", got.Execute, want)
	}
	if got.Total() != got.Compile+got.Upload+got.Execute+got.Readback {
		t.Errorf("Total %v != sum of phases %+v", got.Total(), got)
	}
	if zero := m.Price(&gles.DrawStats{}, &gles.TransferStats{}); zero != (Timeline{}) {
		t.Errorf("no work priced at %+v", zero)
	}
}

func TestLaneCyclesPerInvocation(t *testing.T) {
	m := DefaultModel()
	s := shader.Stats{Add: 3000, Tex: 200, Invocations: 100}
	want := (3000*(1-m.DualIssueEff/2) + 200*m.CycTex + 100*m.CycPerInvocation) / 100
	if got := m.LaneCyclesPerInvocation(&s); got != want {
		t.Errorf("lane cycles %g, want %g", got, want)
	}
}

func TestDualIssueReducesALUTime(t *testing.T) {
	m := DefaultModel()
	m.DualIssueEff = 0
	s := shader.Stats{Add: 10000, Mul: 10000}
	slow := execute(m, s)
	m.DualIssueEff = 1
	if fast := execute(m, s); fast >= slow {
		t.Error("full dual-issue must halve ALU time")
	}
}
