package shader

import (
	"strings"
	"testing"
)

// TestProgramBinaryRejectsBadOperands patches one register operand, table
// reference, decode shape or loop link of a valid program at a time and
// requires UnmarshalCompiled to reject the blob: a VM running it would
// index outside its register file or tables mid-draw, or loop unguarded.
func TestProgramBinaryRejectsBadOperands(t *testing.T) {
	c := compileFrag(t, `
precision highp float;
uniform sampler2D u_a;
varying vec2 v_uv;
vec4 dec(vec4 t) { return floor(t * 255.0 - vec4(127.5)); }
void main() {
	vec4 x = dec(texture2D(u_a, v_uv));
	vec4 acc = vec4(0.0);
	vec2 st = v_uv;
	for (float k = 0.0; k < 4.0; k += 1.0) {
		acc += x.x * dec(texture2D(u_a, st));
		st.x += x.y;
	}
	if (x.x > x.w) { x.y = 1.0; }
	gl_FragColor = vec4(sin(x.x * 2.0), x.yzw) / 255.0 + acc;
}`)
	if opCount(c, opTexDecode) == 0 || len(c.builtins) == 0 {
		t.Fatal("program has no fused decode or builtin descriptor to patch")
	}
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if r, err := UnmarshalCompiled(blob); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	} else if r.maxDepth != c.maxDepth {
		t.Fatalf("restored call depth %d, compiled %d", r.maxDepth, c.maxDepth)
	}
	firstOf := func(op opcode) int {
		for pc, in := range c.code {
			if in.op == op {
				return pc
			}
		}
		t.Fatalf("no opcode %d", op)
		return 0
	}
	for _, tc := range []struct {
		name  string
		patch func(p *Compiled)
	}{
		{"first instruction dst", func(p *Compiled) { p.code[0].dst = p.nregs + 1000 }},
		{"negative operand", func(p *Compiled) { p.code[firstOf(opTexDecode)].b = -1 }},
		{"coordinate past the end", func(p *Compiled) { p.code[firstOf(opTexDecode)].b = p.nregs - 1 }},
		{"texel register", func(p *Compiled) { p.code[firstOf(opTexDecode)].c = p.nregs - 2 }},
		{"decode shape no codec emits", func(p *Compiled) { p.code[firstOf(opTexDecode)].aux = int32(len(decodeTables)) }},
		{"negative decode shape", func(p *Compiled) { p.code[firstOf(opTexDecode)].aux = -1 }},
		{"builtin argument", func(p *Compiled) { p.builtins[0].args[0] = p.nregs }},
		{"builtin arity", func(p *Compiled) { p.builtins[0].nargs = 4 }},
		{"component count", func(p *Compiled) { p.code[firstOf(opMov)].n = -1 }},
		{"unknown opcode", func(p *Compiled) { p.code[0].op = 99 }},
		{"jump past the end", func(p *Compiled) { p.code[firstOf(opBrGt)].aux = int32(len(p.code)) }},
		{"backward jump", func(p *Compiled) { p.code[firstOf(opBrGt)].aux = 0 }},
		{"branch stats entry", func(p *Compiled) { p.code[firstOf(opBrGt)].n = int32(len(p.stats)) }},
		{"return stats entry", func(p *Compiled) { p.code[firstOf(opRet)].n = -1 }},
		{"stats entry", func(p *Compiled) { p.code[firstOf(opStats)].aux = int32(len(p.stats)) }},
		{"compare operand against its immediate", func(p *Compiled) { p.code[firstOf(opBrLt)].a = p.nregs }},
		{"compare operand register", func(p *Compiled) { p.code[firstOf(opBrGt)].b = p.nregs }},
		{"immediate operand register", func(p *Compiled) { p.code[firstOf(opMulImm)].a = p.nregs }},
		{"add into a variable", func(p *Compiled) { p.code[firstOf(opAdd)].dst = p.nregs }},
		{"accumulator", func(p *Compiled) { p.code[firstOf(opMulAdd)].c = p.nregs - 2 }},
		{"decode result register", func(p *Compiled) { p.code[firstOf(opTexDecode)].dst = p.nregs - 3 }},
		{"loop step register", func(p *Compiled) { p.code[firstOf(opLoopStep)].a = p.nregs }},
		{"back edge loop", func(p *Compiled) { p.code[firstOf(opLoopStep)].b = int32(len(p.poss)) }},
		{"back edge stats entry", func(p *Compiled) { p.code[firstOf(opLoopStep)].n = int32(len(p.stats)) }},
		{"back edge past its head", func(p *Compiled) { p.code[firstOf(opLoopStep)].aux++ }},
		{"second reset", func(p *Compiled) { p.code[firstOf(opLoopStep)-1] = p.code[firstOf(opLoopReset)] }},
		{"entry past the end", func(p *Compiled) { p.mainEntry = int32(len(p.code)) }},
		{"mutated range outside globals", func(p *Compiled) { p.mutatedRanges = append(p.mutatedRanges, [2]int32{0, 1}) }},
		{"builtin slot", func(p *Compiled) { p.builtinOff[0] = p.nregs - 1 }},
	} {
		p := *c
		p.code = append([]instr(nil), c.code...)
		p.builtins = append([]builtinDesc(nil), c.builtins...)
		tc.patch(&p)
		bad, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := UnmarshalCompiled(bad); err == nil || got != nil {
			t.Errorf("%s: patched blob accepted", tc.name)
		} else if !strings.HasPrefix(err.Error(), "shader: program binary") {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
