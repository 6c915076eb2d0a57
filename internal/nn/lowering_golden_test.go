package nn

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"glescompute/internal/codec"
	"glescompute/internal/core"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files from current output")

// loweringCase is one network the golden file pins.
type loweringCase struct {
	name  string
	model *Model
	input interface{}
	batch int
	lanes int
}

// loweringRecord is what the golden file pins per network: the fused
// pass plan, the modeled clock of every builder stage on a cold device
// ("compile/upload/execute/readback" in ns), the host bytes moved, and an
// FNV-1a hash of every read-back tensor (every layer's with tapAll, the
// final output's without).
type loweringRecord struct {
	Name          string   `json:"name"`
	Passes        []string `json:"passes"`
	StageTimesNs  []string `json:"stage_times_ns"`
	UploadBytes   uint64   `json:"upload_bytes"`
	ReadbackBytes uint64   `json:"readback_bytes"`
	Taps          []string `json:"taps"`
}

// hashTap renders an FNV-1a 64 hash of a tap's little-endian bytes.
func hashTap(t *testing.T, tap interface{}) string {
	t.Helper()
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, tap); err != nil {
		t.Fatalf("hashing %T: %v", tap, err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return fmt.Sprintf("%016x", h.Sum64())
}

// smallDWDenseInt8 is a tiny int8 model whose channel count (3) forces
// C4 padding through a depthwise conv (baked requant scale) and a dense
// layer.
func smallDWDenseInt8() *Model {
	rng := rand.New(rand.NewSource(5))
	in := Shape{H: 6, W: 6, C: 3}
	return NewModel(codec.Int8, in).
		DepthwiseConv("dw", 3, 3, 1, randI8(rng, 9*3, -2, 2), randI8(rng, 3, -8, 8)).
		Rescale("rq1", 2).
		ReLU("relu").
		Dense("fc", 5, randI8(rng, 4*4*3*5, -2, 2), randI8(rng, 5, -8, 8)).
		Rescale("rq2", 4)
}

func loweringCases() []loweringCase {
	var cases []loweringCase
	for _, batch := range []int{1, 4} {
		cases = append(cases,
			loweringCase{"lenet-float32", DemoLeNetFloat32(7), DemoInputFloat32(8, batch), batch, 1},
			loweringCase{"lenet-int32", DemoLeNetInt32(7), DemoInputInt32(8, batch), batch, 1},
			loweringCase{"lenet-int8", DemoLeNetInt8(7), DemoInputInt8(8, batch), batch, 1},
			loweringCase{"lenet-int8", DemoLeNetInt8(7), DemoInputInt8(8, batch), batch, 4},
		)
		mn := DemoMobileNetInt8(17)
		mnInput := DemoInputMobileNet(9, batch)
		dw := smallDWDenseInt8()
		input := randI8(rand.New(rand.NewSource(6)), batch*dw.In().N(), -8, 7)
		for _, lanes := range []int{1, 4} {
			cases = append(cases, loweringCase{"dw-dense-int8", dw, input, batch, lanes},
				loweringCase{"mobilenet-int8", mn, mnInput, batch, lanes})
		}
	}
	return cases
}

// TestLoweringGolden pins the nn lowering end to end: for every element
// type and lane width, each network's planned passes, per-stage modeled
// times, host traffic and tap contents must match
// testdata/lowering.golden.json exactly. A refactor of the builder that
// changes any kernel, stage, fusion decision or marked output fails it.
// Regenerate with -update-golden only after an intentional change to the
// lowering.
func TestLoweringGolden(t *testing.T) {
	t.Setenv(core.EnvCompileCache, "")
	var recs []loweringRecord
	for _, tc := range loweringCases() {
		for _, tapAll := range []bool{true, false} {
			recs = append(recs, lowerOnce(t, tc, tapAll))
		}
	}
	got, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "lowering.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("lowering differs from golden file %s\n--- got ---\n%s", golden, got)
	}
}

// lowerOnce builds one case on a fresh device (so the modeled compile
// time is cold), plans it, runs it once and records the result.
func lowerOnce(t *testing.T, tc loweringCase, tapAll bool) loweringRecord {
	t.Helper()
	name := fmt.Sprintf("%s/lanes%d/b%d", tc.name, tc.lanes, tc.batch)
	if !tapAll {
		name += "/out"
	}
	dev, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	net, err := tc.model.BuildLanes(dev, tc.batch, tapAll, tc.lanes)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer net.Close()
	passes, err := net.PlannedPasses()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, err := net.Run(tc.input)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rec := loweringRecord{
		Name:          name,
		Passes:        passes,
		UploadBytes:   res.Stats.HostUploadBytes,
		ReadbackBytes: res.Stats.HostReadbackBytes,
	}
	for _, st := range res.Stats.StageTimes {
		rec.StageTimesNs = append(rec.StageTimesNs,
			fmt.Sprintf("%d/%d/%d/%d", st.Compile, st.Upload, st.Execute, st.Readback))
	}
	taps := res.Taps
	if !tapAll {
		taps = []interface{}{res.Output}
	}
	for _, tap := range taps {
		rec.Taps = append(rec.Taps, hashTap(t, tap))
	}
	return rec
}
