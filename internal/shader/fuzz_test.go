package shader

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"glescompute/internal/glsl"
)

// FuzzProgramBinary feeds arbitrary bytes to UnmarshalCompiled, the
// decoder behind the on-disk compile cache (an untrusted boundary). It
// must never panic, and every blob it accepts must re-marshal to the
// identical bytes, so an accepted blob carries no state the format cannot
// express. The seeds are the program binaries of the GLSL corpus in
// internal/glsl/testdata; past findings live in testdata/fuzz.
//
//	go test -run '^$' -fuzz FuzzProgramBinary -fuzztime 20s ./internal/shader
func FuzzProgramBinary(f *testing.F) {
	dir := filepath.Join("..", "glsl", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		stage := glsl.StageFragment
		switch filepath.Ext(e.Name()) {
		case ".frag":
		case ".vert":
			stage = glsl.StageVertex
		default:
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		prog, errs := glsl.CompileSource(string(src), stage, glsl.CheckOptions{})
		if errs.Err() != nil {
			f.Fatalf("%s: %v", e.Name(), errs)
		}
		c, err := Compile(prog)
		if err != nil {
			f.Fatalf("%s: %v", e.Name(), err)
		}
		blob, err := c.MarshalBinary()
		if err != nil {
			f.Fatalf("%s: %v", e.Name(), err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalCompiled(data)
		if err != nil {
			if c != nil {
				t.Fatalf("rejected blob returned a program: %v", err)
			}
			return
		}
		out, err := c.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted blob does not re-marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			n := 0
			for n < len(out) && n < len(data) && out[n] == data[n] {
				n++
			}
			t.Fatalf("accepted %d-byte blob re-marshals to %d bytes, first difference at byte %d", len(data), len(out), n)
		}
	})
}
