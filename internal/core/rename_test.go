package core

import "testing"

// TestRenameIdentBoundaries pins the identifier scan at the cases a
// word-boundary match gets wrong when done by hand: a name that prefixes
// a longer identifier (gc_x in gc_x_at, gc_x4, gc_x4_st), a name at the
// very start or end of the source, digits on either side, adjacent and
// overlapping occurrences, and a replacement that contains the name.
func TestRenameIdentBoundaries(t *testing.T) {
	for _, tc := range []struct {
		src, from, to, want string
	}{
		{"gc_x", "gc_x", "Y", "Y"},
		{"gc_x(1.0)", "gc_x", "Y", "Y(1.0)"},
		{"1.0 + gc_x", "gc_x", "Y", "1.0 + Y"},
		{"gc_x_at(gc_x4(gc_x(i)), gc_x4_st(s))", "gc_x", "Y", "gc_x_at(gc_x4(Y(i)), gc_x4_st(s))"},
		{"gc_x_at(gc_x4(gc_x(i)), gc_x4_st(s))", "gc_x4", "Y", "gc_x_at(Y(gc_x(i)), gc_x4_st(s))"},
		{"my_gc_x + gc_x", "gc_x", "Y", "my_gc_x + Y"},
		{"u_k2 + u_k * 2.0 + 2u_k", "u_k", "(4.0)", "u_k2 + (4.0) * 2.0 + 2u_k"},
		{"gc_x*gc_x", "gc_x", "Y", "Y*Y"},
		{"gc_xgc_x gc_x", "gc_x", "Y", "gc_xgc_x Y"},
		{"aa aaa aa", "aa", "b", "b aaa b"},
		{"a", "a", "a_a", "a_a"},
		{"", "gc_x", "Y", ""},
		{"gc_w", "gc_x", "Y", "gc_w"},
	} {
		if got := renameIdent(tc.src, tc.from, tc.to); got != tc.want {
			t.Errorf("renameIdent(%q, %q, %q) = %q, want %q", tc.src, tc.from, tc.to, got, tc.want)
		}
		if got, want := mentionsIdent(tc.src, tc.from), tc.want != tc.src; got != want {
			t.Errorf("mentionsIdent(%q, %q) = %v, want %v", tc.src, tc.from, got, want)
		}
	}
}
