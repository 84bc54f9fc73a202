package main

import (
	"context"
	"math"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rtoffload/internal/admitd"
	"rtoffload/internal/exp"
	"rtoffload/internal/stats"
)

// tinySizes shrinks every workload so a full run takes well under a
// second; the code paths are the full runs' own.
var tinySizes = sizes{
	churn: churnSize{ops: 30, maxLive: 6, warm: 5, window: 16, setups: 2},
	http:  httpSize{ops: 12, maxLive: 6, warm: 4, reads: 1, window: 8, setups: 2},
	c10k:  campaignSize{tasks: 300, sets: 1, warm: 1, setups: 2},
	fleet: campaignSize{fleet: true, tasks: 12, sets: 1, warm: 2, setups: 2},
}

// buildAdmitd compiles the admitd server for the HTTP tests.
func buildAdmitd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "admitd")
	out, err := exec.Command("go", "build", "-o", bin, "rtoffload/cmd/admitd").CombinedOutput()
	if err != nil {
		t.Fatalf("building admitd: %v\n%s", err, out)
	}
	return bin
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	spec, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got [][2]string) {
		if len(defs) != len(got) {
			t.Fatalf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(defs), len(got))
		}
		for i, d := range defs {
			if d.name != got[i][0] || d.unit != got[i][1] {
				t.Errorf("%s %d: code has %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, got[i][0], got[i][1])
			}
		}
	}
	var e2e, layer [][2]string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, [2]string{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, [2]string{m.Name, m.Unit})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %q, code %q", got, workloadNames())
	}
}

// TestTinyWorkloads runs every workload at tiny size, untraced and
// traced, and checks the result's metric names and units against
// BENCHMARK.json, the correctness verdict, and that the partition
// shares sum to 1.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		units[true][m.Name] = m.Unit
	}
	admitd := buildAdmitd(t)
	for _, w := range workloads(tinySizes) {
		for _, traced := range []bool{false, true} {
			rc := runConfig{seed: 3, seconds: 400 * time.Millisecond, trace: traced, admitd: admitd}
			res, err := measure(context.Background(), w, rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(units[traced]) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(units[traced]))
			}
			for name, m := range res.Metrics {
				if want, ok := units[traced][name]; !ok || want != m.Unit {
					t.Errorf("%s trace=%v: metric %s [%s] not in BENCHMARK.json as such", w.name, traced, name, m.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v", w.name, traced, name, m.Value)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, res.Metrics[d.name].Value)
					}
				}
				continue
			}
			var sum float64
			for _, p := range partition {
				sum += res.Metrics[p].Value
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: partition shares sum to %v", w.name, sum)
			}
		}
	}
}

func TestCorruptedShadowViewTripsGate(t *testing.T) {
	lg, err := genLog(5, 20, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	clean := newOutcome()
	churnPass(lg, 20, &hist{}, &windows{w: 16}, clean)
	if len(clean.mismatches) != 0 || clean.failed != 0 || clean.attempted != 20*tenants {
		t.Fatalf("clean pass: %d attempted, flagged %v", clean.attempted, clean.mismatches)
	}
	for i := range lg.steps[3] {
		if s := &lg.steps[3][i]; s.committed {
			s.view ^= 1
			break
		}
	}
	bad := newOutcome()
	churnPass(lg, 20, &hist{}, &windows{w: 16}, bad)
	if len(bad.mismatches) != 1 || bad.failed != 1 {
		t.Fatalf("corrupted shadow view: %d mismatches, %d failed, want 1 and 1", len(bad.mismatches), bad.failed)
	}
}

// TestHashViewCoversEveryField pins the view's field counts: a field
// added to DecisionView or ChoiceView must be added to hashView too.
func TestHashViewCoversEveryField(t *testing.T) {
	if n := reflect.TypeOf(admitd.DecisionView{}).NumField(); n != 10 {
		t.Errorf("DecisionView has %d fields; update hashView", n)
	}
	if n := reflect.TypeOf(admitd.ChoiceView{}).NumField(); n != 6 {
		t.Errorf("ChoiceView has %d fields; update hashView", n)
	}
	v := &admitd.DecisionView{Tenant: "a", Choices: []admitd.ChoiceView{{TaskID: 1}}}
	w := *v
	w.Choices = []admitd.ChoiceView{{TaskID: 1, Server: "edge"}}
	if hashView(v) == hashView(&w) {
		t.Error("views differing in a choice's server hash alike")
	}
}

func TestHTTPGateAndLatencySplit(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the admitd server")
	}
	srv, err := startServer(context.Background(), buildAdmitd(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	clients := []*http.Client{newClient(), newClient()}
	lg, err := genLog(9, 12, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	const reads = 2
	const window = 4
	conns := httpPass(srv, clients, lg, 12, reads, window)
	var requests int64
	for _, hs := range conns {
		if len(hs.mismatches) != 0 || hs.failed != 0 {
			t.Fatalf("clean pass flagged: %v", hs.mismatches)
		}
		if got := int64(hs.write.n + hs.read.n); got != hs.requests || int64(len(hs.win.rates)*window) != hs.requests {
			t.Fatalf("latency split covers %d (windows %d) of %d requests", got, len(hs.win.rates)*window, hs.requests)
		}
		requests += hs.requests
	}
	if want := int64(12 * tenants * (1 + reads)); requests != want {
		t.Fatalf("%d requests, want %d", requests, want)
	}
	if err := cleanUp(srv, clients[0], lg, 12); err != nil {
		t.Fatal(err)
	}

	// A corrupted expected body must fail the pass.
	for i := range lg.steps[1] {
		if s := &lg.steps[1][i]; s.committed {
			s.wire ^= 1
			break
		}
	}
	conns = httpPass(srv, clients, lg, 12, reads, window)
	var failed int64
	for _, hs := range conns {
		failed += hs.failed
	}
	if failed != 1 {
		t.Fatalf("corrupted expected body: %d failed requests, want 1", failed)
	}
}

func TestInjectedMissTripsGate(t *testing.T) {
	good := exp.CellResult{Cell: 0, Scenario: "busy", Jobs: 100, Finished: 100, Benefit: 1}
	o := newOutcome()
	checkCell(o, 0, good, &good)
	if len(o.mismatches) != 0 || o.failed != 0 {
		t.Fatalf("clean cell flagged: %v", o.mismatches)
	}
	missed := good
	missed.Misses = 2
	checkCell(o, 0, missed, nil)
	if len(o.mismatches) != 1 || o.failed != 2 {
		t.Fatalf("injected miss: %v mismatches, %d failed", o.mismatches, o.failed)
	}
	drift := good
	drift.Jobs++
	o = newOutcome()
	checkCell(o, 0, drift, &good)
	if len(o.mismatches) != 1 {
		t.Fatalf("nondeterministic cell not flagged: %v", o.mismatches)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4, 8}); q1 != 1.25 || q2 != 3 || q3 != 7 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestWindows(t *testing.T) {
	win := windows{w: 2}
	for _, us := range []float64{100, 100, 100, 300, 200, 200, 5} {
		win.add(us)
	}
	if len(win.rates) != 3 || win.rates[0] != 1e4 || win.rates[1] != 5e3 || win.rates[2] != 5e3 {
		t.Fatalf("window rates = %v", win.rates)
	}
	if !reflect.DeepEqual(win.p50s, []float64{100, 200, 200}) || !reflect.DeepEqual(win.p90s, []float64{100, 280, 200}) {
		t.Fatalf("window p50s = %v, p90s = %v", win.p50s, win.p90s)
	}
	var all windows
	all.merge(&win)
	all.merge(&win)
	if rate, p50, p90 := all.medians(); rate != 5e3 || p50 != 200 || p90 != 200 {
		t.Fatalf("medians = %v %v %v", rate, p50, p90)
	}
}

// TestHistQuantiles checks the histogram's percentiles against the
// exact ones within a bucket width, and its exact maximum.
func TestHistQuantiles(t *testing.T) {
	var h hist
	var xs []float64
	for i := 1; i <= 10000; i++ {
		us := 20 + 500*float64(i%97)/97 + float64(i%13)
		h.add(us)
		xs = append(xs, us)
	}
	h.add(2e5) // one tail request
	xs = append(xs, 2e5)
	for _, p := range []float64{1, 50, 90, 99} {
		got, want := h.quantile(p), stats.Percentile(xs, p)
		if math.Abs(got/want-1) > 0.006 {
			t.Errorf("p%v = %v, exact %v", p, got, want)
		}
	}
	if got := h.quantile(100); got != 2e5 {
		t.Errorf("max = %v, want 2e5", got)
	}
	var merged hist
	merged.merge(&h)
	merged.merge(&h)
	if merged.n != 2*h.n || merged.quantile(50) != h.quantile(50) {
		t.Errorf("merge: n %d, p50 %v; want %d, %v", merged.n, merged.quantile(50), 2*h.n, h.quantile(50))
	}
}

func TestAttribution(t *testing.T) {
	const core = "rtoffload/internal/core."
	samples := []stackSample{
		{ns: 10, frames: []string{"math/big.nat.mul", "rtoffload/internal/dbf.(*Analyzer).Feasible", core + "improveLoop", "main.runChurn"}},
		{ns: 20, frames: []string{core + "repairDecision", core + "repairFleetDecision", core + "Decide"}},
		{ns: 30, frames: []string{"rtoffload/internal/fleet.Fleet.Accumulate", core + "repairFleetDecision", core + "Decide"}},
		{ns: 40, frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{ns: 50, frames: []string{"runtime.futex", "runtime.schedule"}},
		{ns: 99, frames: []string{core + "(*Admission).Add", "main.oracleShadowStep"}},
		{ns: 60, frames: []string{"time.Now", "rtoffload/perfbench.churnPass"}},
	}
	a := attribute(samples)
	if a.totalNS != 210 || a.oracleNS != 99 || a.decideNS != 50 {
		t.Fatalf("total %d oracle %d decide %d", a.totalNS, a.oracleNS, a.decideNS)
	}
	want := map[string]int64{"dbf": 10, "core": 20, "fleet": 30, "gc": 40, "other": 50, "perfbench": 60}
	for layer, ns := range want {
		if a.layerNS[layer] != ns {
			t.Errorf("layer %s: %d ns, want %d", layer, a.layerNS[layer], ns)
		}
	}
	o := newOutcome()
	a.record(o)
	var sum float64
	for _, p := range partition {
		sum += o.values[p]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("partition sums to %v", sum)
	}
	if got := o.values["core.fleet_repair.share"]; got != 30.0/210 {
		t.Errorf("fleet repair share %v, want %v", got, 30.0/210)
	}
	if got := o.values["core.exact_upgrade.share"]; got != 10.0/210 {
		t.Errorf("exact upgrade share %v, want %v", got, 10.0/210)
	}
}
