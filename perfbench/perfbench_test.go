package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/gstore"
	"repro/internal/service"
	"repro/pkg/client"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeEveryMetricEmitted runs every workload on a tiny graph for a
// few seconds, untraced and traced, and checks that each run is correct
// and prints exactly the metrics BENCHMARK.json names, with their units.
func TestSmokeEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds graphd and runs it")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	bin := filepath.Join(work, "graphd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/graphd").CombinedOutput(); err != nil {
		t.Fatalf("building graphd: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		wl, ok := findWorkload(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		wl.levels = 10
		for _, traced := range []bool{false, true} {
			res, err := runBench(benchConfig{wl: wl, seed: 7, seconds: 3, trace: traced, graphd: bin, work: work})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.Name, traced, name, got.Unit, unit)
				} else if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, traced, name, got.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.Name, traced, name)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result does not marshal: %v", w.Name, traced, err)
			}
		}
	}
	children.Lock()
	defer children.Unlock()
	if n := len(children.set); n != 0 {
		t.Errorf("%d graphd processes still running", n)
	}
}

// corruptingProxy forwards to target and, when corrupt is set, moves one
// float of every JSON answer by one ulp: a wrong answer no coarser
// check would notice.
func corruptingProxy(target string, corrupt *atomic.Bool) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		req, _ := http.NewRequest(r.Method, target+r.URL.RequestURI(), bytes.NewReader(body))
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if corrupt.Load() && resp.StatusCode == http.StatusOK {
			var v map[string]any
			if json.Unmarshal(out, &v) == nil && nudgeFloat(v) {
				out, _ = json.Marshal(v)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		w.Write(out)
	}))
}

// nudgeFloat moves the first non-integral number found (depth first, in
// key order of the fields checked) to its next float64.
func nudgeFloat(v any) bool {
	switch x := v.(type) {
	case map[string]any:
		for _, k := range []string{"sum", "conductance", "results", "top"} {
			if f, ok := x[k].(float64); ok && f != math.Trunc(f) {
				x[k] = math.Nextafter(f, math.Inf(1))
				return true
			}
			if c, ok := x[k]; ok && nudgeFloat(c) {
				return true
			}
		}
	case []any:
		for _, e := range x {
			if nudgeFloat(e) {
				return true
			}
		}
	}
	return false
}

// TestCheckerRejectsCorruptedAnswers sends each op through a proxy in
// front of an in-process server: untouched answers pass the reference
// check, answers one ulp off fail it.
func TestCheckerRejectsCorruptedAnswers(t *testing.T) {
	g, err := gen.Kronecker(gen.KroneckerConfig{Levels: 10}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := service.NewServer(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Store().Put("g", g); err != nil {
		t.Fatal(err)
	}
	backend := httptest.NewServer(srv.Handler())
	defer backend.Close()
	var corrupt atomic.Bool
	proxy := corruptingProxy(backend.URL, &corrupt)
	defer proxy.Close()

	hg := gstore.Wrap(g)
	nodes := seedable(hg)
	cli, err := client.New(proxy.URL, client.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	reqs := []request{
		{op: opPPR, seeds: []int{nodes[0]}},
		{op: opLCPPR, seeds: []int{nodes[1]}},
		{op: opLCHeat, seeds: []int{nodes[2]}},
		{op: opBatch, seeds: nodes[3:11]},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, c := range []bool{false, true} {
		corrupt.Store(c)
		for _, q := range reqs {
			r := &run{ref: newReference(hg), cli: cli}
			if err := r.doRead(ctx, q, true); err != nil {
				t.Fatalf("%s: %v", opNames[q.op], err)
			}
			r.chk.run()
			if c && len(r.chk.failures) == 0 {
				t.Errorf("%s: corrupted answer accepted", opNames[q.op])
			}
			if !c && len(r.chk.failures) != 0 {
				t.Errorf("%s: correct answer rejected: %v", opNames[q.op], r.chk.failures)
			}
		}
	}
}

func TestKneeInterpolatesInLogP99(t *testing.T) {
	steps := []stepStats{
		{Rate: 100, P99Ms: 5, Pass: true},
		{Rate: 200, P99Ms: 10, Pass: true},
		{Rate: 300, P99Ms: 40, Pass: false},
	}
	// p99 crosses 20 ms halfway between 10 and 40 ms in log space.
	if got := knee(steps, 20); math.Abs(got-250) > 1e-9 {
		t.Errorf("knee = %v, want 250", got)
	}
	if got := knee(steps[:2], 20); got != 200 {
		t.Errorf("knee with every step passing = %v, want the top rate 200", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Errorf("p99 = %v, want 5", q)
	}
}

func TestLateScheduleFailsRun(t *testing.T) {
	late := 2 * p99LimitMs * time.Millisecond
	ss := make([]sample, 100)
	for i := range ss {
		ss[i] = sample{enq: late, sent: late, done: late + time.Millisecond}
	}
	r := &run{}
	r.onSchedule("nominal step", ss[:1])
	r.onSchedule("nominal step", ss)
	if r.attempted != 2 || r.failed != 2 {
		t.Errorf("late steps: attempted=%d failed=%d, want 2 and 2", r.attempted, r.failed)
	}
	r.onSchedule("nominal step", make([]sample, 100))
	if r.attempted != 3 || r.failed != 2 {
		t.Errorf("on-time step: attempted=%d failed=%d, want 3 and 2", r.attempted, r.failed)
	}
}
