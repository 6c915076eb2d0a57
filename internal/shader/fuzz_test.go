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
// must never panic; every blob it accepts must re-marshal to the
// identical bytes, so an accepted blob carries no state the format cannot
// express, and must run once on a VM without panicking. The seeds are the
// program binaries of the GLSL corpus in internal/glsl/testdata and of one
// program per fused form (texel decode, compare-and-branch, loop step and
// back edge, forwarded results, calls and discards that count their
// regions); past findings live in testdata/fuzz.
//
//	go test -run '^$' -fuzz FuzzProgramBinary -fuzztime 20s ./internal/shader
func FuzzProgramBinary(f *testing.F) {
	dir := filepath.Join("..", "glsl", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	add := func(name, src string, stage glsl.ShaderStage) {
		prog, errs := glsl.CompileSource(src, stage, glsl.CheckOptions{})
		if errs.Err() != nil {
			f.Fatalf("%s: %v", name, errs)
		}
		c, err := Compile(prog)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		blob, err := c.MarshalBinary()
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		if _, err := UnmarshalCompiled(blob); err != nil {
			f.Fatalf("%s: a compiled program's binary is rejected: %v", name, err)
		}
		f.Add(blob)
	}
	const fusedHead = "precision highp float;\nuniform sampler2D u_a;\nuniform float u_n;\nvarying vec2 v_uv;\n" +
		"vec4 dec(vec4 t) { return floor(t * 255.0 - vec4(127.5)); }\n"
	for name, body := range map[string]string{
		"texel decode":           `void main() { gl_FragColor = dec(texture2D(u_a, v_uv)) / 255.0; }`,
		"decode into a variable": `void main() { vec4 x = dec(texture2D(u_a, v_uv)); gl_FragColor = x / 255.0; }`,
		"compare-and-branch": `void main() {
	float s = v_uv.x;
	if (s > 0.5) { s = 0.25; }
	if (s <= u_n) { s += 1.0; }
	gl_FragColor = vec4(s);
}`,
		"loop step and back edge": `void main() {
	float s = 0.0;
	for (float k = 0.0; k < 4.0; k += 1.0) { if (k >= u_n) { break; } s += k; }
	for (int i = 0; i < 2; i++) { s *= 0.5; }
	while (s > 1.0) { s -= 1.0; }
	do { s += 0.25; } while (s < 0.5);
	gl_FragColor = vec4(s);
}`,
		"forwarded results": `void main() {
	vec4 acc = vec4(0.0);
	vec2 st = v_uv;
	acc += v_uv.x * dec(texture2D(u_a, st));
	st.x += v_uv.y;
	float y = st.x + u_n;
	gl_FragColor = acc + vec4(y);
}`,
		"call and discard": `float f(float x) { for (int i = 0; i < 2; i++) { x = x * 0.5; } return x; }
void kill(float x) { if (x < 0.25) { discard; } }
void main() { kill(v_uv.x); gl_FragColor = vec4(f(v_uv.y)); }`,
	} {
		add(name, fusedHead+body, glsl.StageFragment)
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
		add(e.Name(), string(src), stage)
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
		// A runtime error is fine (a corrupt program may loop or discard);
		// a panic is not.
		vm := NewVM(c, diffSampler{}, ExactSFU)
		vm.MaxLoopIter = 8
		if err := vm.InitGlobals(); err == nil {
			vm.Run()
		}
	})
}
