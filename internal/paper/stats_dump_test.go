package paper

import "testing"

func TestDumpSgemmOpMix(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	st, _, err := runT1(sgemmInt32, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	f16 := st.Draw.FragmentStats
	perIter := func(v uint64) float64 { return float64(v) / (16.0 * 16.0 * 16.0) }
	t.Logf("sgemm per-iteration op mix: Add=%.1f Mul=%.1f Div=%.2f Cmp=%.2f Logic=%.2f Mov=%.1f Sel=%.2f SFU=%.2f Tex=%.2f Branch=%.2f Call=%.2f",
		perIter(f16.Add), perIter(f16.Mul), perIter(f16.Div), perIter(f16.Cmp),
		perIter(f16.Logic), perIter(f16.Mov), perIter(f16.Select), perIter(f16.SFU),
		perIter(f16.Tex), perIter(f16.Branch), perIter(f16.Call))
}
