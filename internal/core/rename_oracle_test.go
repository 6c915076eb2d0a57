package core_test

import (
	"regexp"
	"testing"

	"glescompute/internal/core"
	"glescompute/internal/nn"
)

// TestRenameIdentMatchesRegexp is the identifier scan's differential
// against the word-boundary regexp it replaced, on the real corpus:
// every stage and fused kernel source the golden networks declare and
// compose, at both lane widths, fused and tapped. Each identifier of each
// source is searched and renamed, together with the near misses the
// planner's accessor names create (name+"4", name+"_at", name+"_st",
// name+"4_st", name+"_dims" and the name less its last byte).
func TestRenameIdentMatchesRegexp(t *testing.T) {
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
		{nn.DemoLeNetInt32(7), []int{1}},
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
	ident := regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	srcs := core.CachedSources(dev)
	if len(srcs) < 20 {
		t.Fatalf("corpus has %d kernel sources, want the golden networks' stage and fused kernels", len(srcs))
	}
	checked := 0
	for _, src := range srcs {
		names := map[string]bool{}
		for _, id := range ident.FindAllString(src, -1) {
			for _, n := range []string{id, id + "4", id + "_at", id + "_st", id + "4_st", id + "_dims", id[:len(id)-1]} {
				if n != "" {
					names[n] = true
				}
			}
		}
		for name := range names {
			re := regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`)
			if got, want := core.MentionsIdent(src, name), re.MatchString(src); got != want {
				t.Fatalf("MentionsIdent(%q) = %v, regexp says %v in:\n%s", name, got, want, src)
			}
			if got, want := core.RenameIdent(src, name, "gc_fk9"), re.ReplaceAllLiteralString(src, "gc_fk9"); got != want {
				t.Fatalf("RenameIdent(%q) differs from the regexp in:\n%s", name, src)
			}
			checked++
		}
	}
	t.Logf("%d sources, %d names checked", len(srcs), checked)
}
