package paper

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"glescompute/internal/obs"
)

// TestRunServeQuick runs a scaled-down S1 sweep and pins the acceptance
// properties that are robust at small scale: every job bit-identical to
// its synchronous reference, batching actually coalescing launches, and
// the batched pool beating the naive single device by ≥2× on modeled
// time. (The wall-clock speedup is asserted only at full scale by
// `paperbench -exp serve`; at test sizes it is noise-dominated.)
func TestRunServeQuick(t *testing.T) {
	res, err := RunServe(240, 128, []int{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Validated {
		t.Fatal("serve outputs not bit-identical to synchronous Kernel.Run")
	}
	if len(res.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(res.Points))
	}
	base := res.Points[0]
	if base.Batching || base.Devices != 1 {
		t.Fatalf("baseline point misconfigured: %+v", base)
	}
	if base.Occupancy > 1.001 {
		t.Fatalf("unbatched baseline coalesced jobs: occupancy %.2f", base.Occupancy)
	}
	var sawBatching bool
	for _, pt := range res.Points {
		if pt.Batching && pt.Occupancy > 1.5 {
			sawBatching = true
		}
		if pt.Launches == 0 || pt.Modeled <= 0 {
			t.Fatalf("degenerate point: %+v", pt)
		}
	}
	if !sawBatching {
		t.Fatalf("no point shows coalescing: %+v", res.Points)
	}
	if res.ModelSpeedupX < 2 {
		t.Fatalf("batched pool modeled speedup %.2fx, want >= 2x", res.ModelSpeedupX)
	}
	t.Logf("S1 quick: model %.1fx, wall %.1fx, batched occupancy %.1f",
		res.ModelSpeedupX, res.WallSpeedupX, res.Points[len(res.Points)-1].Occupancy)
}

// TestRunServeLoadDeterministic: S3's service-time quantiles and its
// simulated sweep are ordered, non-zero and identical across two runs —
// the property that lets benchgate gate them with no noise margin. The
// live pass's admitted/shed split depends on host timing and is left out.
func TestRunServeLoadDeterministic(t *testing.T) {
	a, err := RunServeLoad(2000, 64, 20160316, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunServeLoad(2000, 64, 20160316, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Validated {
		t.Fatalf("not validated: %+v", a)
	}
	if a.P50ModeledUS <= 0 || a.P50ModeledUS > a.P95ModeledUS || a.P95ModeledUS > a.P99ModeledUS {
		t.Fatalf("degenerate service-time quantiles: p50 %g p95 %g p99 %g", a.P50ModeledUS, a.P95ModeledUS, a.P99ModeledUS)
	}
	qa := [...]float64{a.P50ModeledUS, a.P95ModeledUS, a.P99ModeledUS, a.MeanServiceUS, a.RefP99}
	qb := [...]float64{b.P50ModeledUS, b.P95ModeledUS, b.P99ModeledUS, b.MeanServiceUS, b.RefP99}
	if qa != qb {
		t.Fatalf("service-time quantiles not deterministic:\n  run 1: %v\n  run 2: %v", qa, qb)
	}
	if !reflect.DeepEqual(a.Points, b.Points) {
		t.Fatalf("simulated sweep not deterministic:\n  run 1: %+v\n  run 2: %+v", a.Points, b.Points)
	}
}

// TestRunServeTraced: the dedicated capture pass records job spans and
// metrics without perturbing the sweep's validated results.
func TestRunServeTraced(t *testing.T) {
	ob := &Obs{Tracer: obs.NewTracer(1), Metrics: obs.NewRegistry()}
	res, err := RunServe(120, 64, []int{1}, ob)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Validated {
		t.Fatal("traced sweep lost bit-identity")
	}
	if ob.Tracer.Len() == 0 {
		t.Fatal("capture pass recorded no trace events")
	}
	var prom bytes.Buffer
	ob.Metrics.WritePrometheus(&prom)
	if !strings.Contains(prom.String(), "glescompute_jobs_completed_total 120") {
		t.Fatalf("capture pass metrics missing completions:\n%s", prom.String())
	}
}
