package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/internal/local"
	"repro/internal/ncp"
	"repro/internal/persist"
	"repro/internal/service"
	"repro/pkg/api"
)

// span is one timed call into a layer. Spans of one replayed request
// share rid; parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	RID    int32  `json:"rid"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; an off tracer records nothing, so the
// same replay code runs traced and untraced.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, rid int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, RID: rid})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.epoch))
	}
}

// overheadPairs is the number of untraced/traced replay pass pairs.
const overheadPairs = 3

// replayed is what one traced request left besides its spans.
type replayed struct {
	op        opKind
	miss      bool
	respBytes int
	stats     kernel.Stats
	support   int // support of the swept vector, for sweep cost per node
}

// replay is the traced run's in-process part: the first nominal steps'
// requests replayed against an in-process service.Server on the same
// graph, with spans around the calls into each layer, plus the layer
// calls that serving does not exercise per request (batch vs sequential
// kernel, WAL, snapshots, NCP).
func (r *run) replay(ctx context.Context) error {
	t := time.Now()
	hg, err := persist.ReadSnapshotFile(r.path)
	if err != nil {
		return err
	}
	r.layer["persist.snapshot_load_s"] = metric{time.Since(t).Seconds(), "s"}
	t = time.Now()
	c, err := gstore.NewCompact(hg)
	if err != nil {
		return err
	}
	r.layer["gstore.compact_build_s"] = metric{time.Since(t).Seconds(), "s"}
	c.Close()

	reqs := r.nominalReqs[:min(r.cfg.wl.replay, len(r.nominalReqs))]
	g := gstore.Wrap(hg)
	// A discarded warm pass first, then alternating untraced and traced
	// passes, each on a fresh server so all see the same cache misses,
	// and each after the CPU caches were flushed, so the graph is as cold
	// at the start of a pass as at the start of a served step. The
	// overhead is the difference of the two sides' median pass times.
	flush := newCacheFlusher()
	if _, _, err := r.replayPass(hg, reqs, &tracer{}); err != nil {
		return err
	}
	var untraced, traced []float64
	var tr *tracer
	var info []replayed
	for i := 0; i < overheadPairs; i++ {
		flush.run()
		d, _, err := r.replayPass(hg, reqs, &tracer{})
		if err != nil {
			return err
		}
		untraced = append(untraced, float64(d))
		tr = &tracer{on: true, epoch: time.Now(), spans: make([]span, 0, 4*len(reqs))}
		flush.run()
		if d, info, err = r.replayPass(hg, reqs, tr); err != nil {
			return err
		}
		traced = append(traced, float64(d))
	}
	u, tt := median(untraced), median(traced)
	r.layer["trace.overhead_us_per_req"] = metric{(tt - u) / float64(len(reqs)) / 1e3, "us"}
	r.layer["trace.overhead_pct"] = metric{100 * (tt - u) / u, "%"}
	flush.run()
	if err := kernelPass(g, reqs, info, tr); err != nil {
		return err
	}
	r.spanMetrics(tr.spans, info)
	if err := writeSpans(filepath.Join(r.dir, "spans.jsonl"), tr.spans); err != nil {
		return err
	}
	if err := r.kernelBatch(ctx, g); err != nil {
		return err
	}
	if err := r.persistLayer(); err != nil {
		return err
	}
	t = time.Now()
	_, err = ncp.SpectralProfileOn(ctx, g, ncp.SpectralConfig{Seeds: r.cfg.wl.ncpSeeds, BaseSeed: ncpBaseSeed(0)},
		rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}
	r.layer["ncp.spectral_s"] = metric{time.Since(t).Seconds(), "s"}
	return nil
}

// prepared is a replayed request's wire form, built before timing.
type prepared struct {
	path string
	body []byte
}

func prepare(q request) prepared {
	var v any
	path := "/v1/graphs/g/"
	switch q.op {
	case opPPR:
		v, path = q.pprReq(), path+"ppr"
	case opLCPPR, opLCHeat:
		v, path = q.lcReq(), path+"localcluster"
	default:
		v, path = batchReq(q.seeds), path+"ppr:batch"
	}
	b, _ := json.Marshal(v) // api request types always marshal
	return prepared{path, b}
}

// decodeRequest is the api layer's share of a request: strict JSON
// decode, defaults, validation.
func decodeRequest(op opKind, body []byte) error {
	var req api.Request
	switch op {
	case opPPR:
		req = &api.PPRRequest{}
	case opLCPPR, opLCHeat:
		req = &api.LocalClusterRequest{}
	default:
		req = &api.PPRBatchRequest{}
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	req.Normalize()
	return req.Validate()
}

func newResponse(op opKind) any {
	switch op {
	case opPPR:
		return &api.PPRResponse{}
	case opLCPPR, opLCHeat:
		return &api.LocalClusterResponse{}
	default:
		return &api.PPRBatchResponse{}
	}
}

// replayPass runs reqs through a fresh in-process server, with spans
// around the api decode and encode of each request and around the
// handler, and returns the pass's wall time and what each request left.
func (r *run) replayPass(hg *graph.Graph, reqs []request, tr *tracer) (time.Duration, []replayed, error) {
	srv, err := service.NewServer(service.Config{})
	if err != nil {
		return 0, nil, err
	}
	defer srv.Close()
	if _, err := srv.Store().Put("g", hg); err != nil {
		return 0, nil, err
	}
	h := srv.Handler()
	preps := make([]prepared, len(reqs))
	for i, q := range reqs {
		preps[i] = prepare(q)
	}
	info := make([]replayed, len(reqs))
	start := time.Now()
	for i, q := range reqs {
		rid := int32(i)
		root := tr.begin("request", -1, rid)
		sp := tr.begin("api.decode", root, rid)
		err := decodeRequest(q.op, preps[i].body)
		tr.end(sp)
		if err != nil {
			return 0, nil, err
		}
		hreq := httptest.NewRequest(http.MethodPost, preps[i].path, bytes.NewReader(preps[i].body))
		hreq.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		sp = tr.begin("service.handler", root, rid)
		h.ServeHTTP(rec, hreq)
		tr.end(sp)
		if rec.Code != http.StatusOK {
			return 0, nil, fmt.Errorf("in-process %s: %d %s", preps[i].path, rec.Code, rec.Body.Bytes())
		}
		info[i] = replayed{op: q.op, miss: rec.Header().Get("X-Graphd-Cache") == "miss", respBytes: rec.Body.Len()}
		resp := newResponse(q.op)
		if err := json.Unmarshal(rec.Body.Bytes(), resp); err != nil {
			return 0, nil, err
		}
		sp = tr.begin("api.encode", root, rid)
		_, err = json.Marshal(resp)
		tr.end(sp)
		if err != nil {
			return 0, nil, err
		}
		tr.end(root)
	}
	return time.Since(start), info, nil
}

// kernelPass repeats, in the served order, the kernel and sweep calls of
// the single-seed requests that missed the result cache, with spans
// under the same request ids. It runs apart from the handler pass so
// each diffusion finds the caches as the served one did, after the
// previous requests' diffusions, rather than warmed by its own twin.
func kernelPass(g gstore.Graph, reqs []request, info []replayed, tr *tracer) error {
	pool := kernel.NewPool(g.N())
	for i, q := range reqs {
		if !info[i].miss || q.op == opBatch {
			continue
		}
		rid := int32(i)
		ws := pool.Get()
		var sp int32
		var err error
		if q.op == opLCHeat {
			sp = tr.begin("kernel.heat", -1, rid)
			info[i].stats, err = kernel.HeatKernel{T: heatT, Eps: heatEps}.Diffuse(g, ws, q.seeds)
		} else {
			sp = tr.begin("kernel.push", -1, rid)
			info[i].stats, err = kernel.PushACL{Alpha: pprAlpha, Eps: pprEps}.Diffuse(g, ws, q.seeds)
		}
		tr.end(sp)
		if err == nil && q.op != opPPR {
			info[i].support = ws.PSupport()
			sp = tr.begin("local.sweep", -1, rid)
			_, err = local.WorkspaceSweepCut(g, ws)
			tr.end(sp)
		}
		pool.Put(ws)
		if err != nil {
			return err
		}
	}
	return nil
}

// cacheFlusher evicts the CPU caches by writing one byte per cache line
// of a buffer twice the size of the last-level cache.
type cacheFlusher struct{ buf []byte }

func newCacheFlusher() *cacheFlusher {
	llc := 128 << 20 // when sysfs does not say
	if b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size"); err == nil {
		if k, err := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(string(b)), "K")); err == nil && k > 0 {
			llc = k << 10
		}
	}
	return &cacheFlusher{buf: make([]byte, 2*llc)}
}

func (f *cacheFlusher) run() {
	for i := 0; i < len(f.buf); i += 64 {
		f.buf[i]++
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spanMetrics turns the traced pass into per-layer figures. The
// handler's self time is its span minus the spans of the layer calls
// repeated for the same request (decode, kernel, sweep, encode), over
// single-seed cache misses.
func (r *run) spanMetrics(spans []span, info []replayed) {
	byRID := make([]map[string]time.Duration, len(info))
	for i := range byRID {
		byRID[i] = map[string]time.Duration{}
	}
	var handler, decode, encode, push, heat, sweep, self, vols, pushes, supports, respBytes []float64
	var pushNs, pushVol, sweepNs, sweepSupport float64
	for _, s := range spans {
		byRID[s.RID][s.Name] += s.dur()
		d := us(s.dur())
		switch s.Name {
		case "service.handler":
			handler = append(handler, d)
		case "api.decode":
			decode = append(decode, d)
		case "api.encode":
			encode = append(encode, d)
		case "kernel.push":
			push = append(push, d)
			st := info[s.RID].stats
			pushNs += float64(s.dur())
			pushVol += st.WorkVolume
			vols = append(vols, st.WorkVolume)
			pushes = append(pushes, float64(st.Pushes))
			supports = append(supports, float64(st.MaxSupport))
		case "kernel.heat":
			heat = append(heat, d)
		case "local.sweep":
			sweep = append(sweep, d)
			sweepNs += float64(s.dur())
			sweepSupport += float64(info[s.RID].support)
		}
	}
	for i, inf := range info {
		respBytes = append(respBytes, float64(inf.respBytes))
		if !inf.miss || inf.op == opBatch {
			continue
		}
		m := byRID[i]
		children := m["api.decode"] + m["kernel.push"] + m["kernel.heat"] + m["local.sweep"] + m["api.encode"]
		self = append(self, us(m["service.handler"]-children))
	}
	set := func(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }
	set("service.handler_p50_us", quantile(handler, 0.5), "us")
	set("service.handler_p99_us", quantile(handler, 0.99), "us")
	set("service.self_p50_us", quantile(self, 0.5), "us")
	set("api.decode_us", median(decode), "us")
	set("api.encode_us", median(encode), "us")
	set("api.response_bytes", median(respBytes), "B")
	set("kernel.push_p50_us", quantile(push, 0.5), "us")
	set("kernel.push_p99_us", quantile(push, 0.99), "us")
	set("kernel.heat_p50_us", quantile(heat, 0.5), "us")
	set("kernel.ns_per_volume", pushNs/pushVol, "ns")
	set("kernel.work_volume_p50", median(vols), "count")
	set("kernel.pushes_p50", median(pushes), "count")
	set("kernel.support_p50", median(supports), "count")
	set("local.sweep_p50_us", quantile(sweep, 0.5), "us")
	set("local.sweep_ns_per_support", sweepNs/sweepSupport, "ns")
	r.record["replay"] = map[string]any{"requests": len(info), "single_seed_misses": len(self), "push_spans": len(push),
		"push_volume_total": pushVol, "sweep_support_total": sweepSupport}
}

// kernelBatch times kernel.BatchDiffuser.Run against sequential Diffuse
// calls on the identical 64 seeds, over a few rounds.
func (r *run) kernelBatch(ctx context.Context, g gstore.Graph) error {
	sampler := newSeedSampler(r.nodes, 0, r.cfg.rng(7))
	pool := kernel.NewPool(g.N())
	method := kernel.PushACL{Alpha: pprAlpha, Eps: pprEps}
	var batch, seq []float64
	for round := 0; round < 5; round++ {
		seeds := sampler.distinct(analyticsK)
		t := time.Now()
		_, err := kernel.BatchDiffuser{Method: method}.Run(ctx, g, pool, seeds,
			func(int, *kernel.Workspace, kernel.Stats) error { return nil })
		if err != nil {
			return err
		}
		batch = append(batch, us(time.Since(t))/float64(len(seeds)))
		t = time.Now()
		for _, s := range seeds {
			ws := pool.Get()
			_, err := method.Diffuse(g, ws, []int{s})
			pool.Put(ws)
			if err != nil {
				return err
			}
		}
		seq = append(seq, us(time.Since(t))/float64(len(seeds)))
	}
	r.layer["kernel.batch_us_per_seed"] = metric{median(batch), "us"}
	r.layer["kernel.seq_us_per_seed"] = metric{median(seq), "us"}
	return nil
}

// persistLayer replays the ingest phase's batches into a WAL of its own
// (one fsync per append), replays that WAL, and writes the first
// streamed graph's snapshot.
func (r *run) persistLayer() error {
	dir := filepath.Join(r.dir, "data-trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	walPath := filepath.Join(dir, "replay.wal")
	w, err := persist.CreateWAL(walPath, streamNodes)
	if err != nil {
		return err
	}
	var lat []float64
	edges := 0
	for _, b := range r.batches {
		if len(b) != appendSize {
			continue
		}
		if len(lat) == 300 {
			break
		}
		batch := make([]persist.Edge, len(b))
		for i, e := range b {
			batch[i] = persist.Edge{U: e.U, V: e.V, W: 1}
		}
		t := time.Now()
		err := w.AppendBatch(batch)
		lat = append(lat, us(time.Since(t)))
		if err != nil {
			w.Close()
			return err
		}
		edges += len(batch)
	}
	if err := w.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(walPath)
	if err != nil {
		return err
	}
	r.layer["persist.wal_append_p50_us"] = metric{quantile(lat, 0.5), "us"}
	r.layer["persist.wal_append_p99_us"] = metric{quantile(lat, 0.99), "us"}
	r.layer["persist.wal_bytes_per_edge"] = metric{float64(fi.Size()) / float64(edges), "B"}

	t := time.Now()
	w2, _, _, err := persist.OpenWAL(walPath)
	if err != nil {
		return err
	}
	r.layer["persist.recovery_s"] = metric{time.Since(t).Seconds(), "s"}
	w2.Close()

	refs, err := r.streamRefs()
	if err != nil {
		return err
	}
	// A sealed stream: the large batches of one round.
	g := refs[max(0, slices.Index(r.sealed, true))].g
	var writes []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if err := persist.WriteSnapshotFile(filepath.Join(dir, "sealed.gsnap"), g); err != nil {
			return err
		}
		writes = append(writes, time.Since(t).Seconds())
	}
	r.layer["persist.snapshot_write_s"] = metric{median(writes), "s"}
	return nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
