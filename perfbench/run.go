package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/gstore"
	"repro/internal/persist"
	"repro/pkg/api"
	"repro/pkg/client"
)

const (
	// Each serving request is checked against the reference with
	// probability checkShare, up to checkCap per op kind and run.
	checkShare = 0.02
	checkCap   = 25
	numStreams = 4 // streamed graphs the small batches go to, round-robin; they stay open
	setups     = 3 // least set-ups per run, reported as their median
	// setupMin is the least time spent in set-ups: on a graph that loads
	// in tens of milliseconds, three set-ups were too few for a steady
	// median (quartile spread 0.2–0.4 over ten runs at 2^14).
	setupMin = time.Second
	// jobPoll is the SDK's job poll interval. Each poll is a request
	// graphd spends CPU on, so it is long against the poll's cost and
	// short against a job.
	jobPoll = 10 * time.Millisecond
)

// Shares of the measured seconds, each spread evenly over the rounds.
// The serving ladder's climb above the nominal rate is not budgeted: it
// takes ladderStep per rate reached. Neither are the append burst and
// the NCP job of each round, which are fixed amounts of work.
const (
	rounds         = 10
	nominalShare   = 0.4
	analyticsShare = 0.2 // ppr:batch calls
	ingestShare    = 0.1 // appends beside reads
)

func (r *run) share(frac float64) time.Duration {
	return time.Duration(frac * float64(r.cfg.seconds) * float64(time.Second))
}

// run is the state of one benchmark run.
type run struct {
	cfg     benchConfig
	dir     string
	path    string // the served graph's snapshot
	ref     *reference
	refG    *gstore.Compact
	nodes   []int // seedable nodes of the served graph
	hc      *http.Client
	tr      *countingTransport
	scrapes *http.Client // /metrics and /debug/vars reads, kept off hc's round-trip count
	gd      *graphd
	cli     *client.Client
	dataDir string

	mu        sync.Mutex // guards chk and the counters below during load phases
	chk       checker
	attempted int
	failed    int
	errs      []string

	e2e    map[string]metric
	layer  map[string]metric
	record map[string]any

	nominalReqs []request          // the first nominal steps' requests, replayed by the traced run
	streams     []string           // streamed graphs in creation order
	sealed      []bool             // per stream
	batches     [][]api.StreamEdge // the ingest phase's edge batches
	batchStream []int              // per batch, the index of its stream
	acked       []bool
}

func newRun(cfg benchConfig, dir string) (*run, error) {
	path, err := graphFile(cfg.work, cfg.wl.levels)
	if err != nil {
		return nil, err
	}
	g, err := persist.OpenMapped(path)
	if err != nil {
		return nil, fmt.Errorf("mapping reference graph: %w", err)
	}
	hc, tr := newHTTPClient(conns())
	nodes := seedable(g)
	return &run{
		cfg: cfg, dir: dir, path: path, refG: g, ref: newReference(g), nodes: nodes,
		hc: hc, tr: tr, scrapes: &http.Client{Timeout: 30 * time.Second},
		e2e: map[string]metric{}, layer: map[string]metric{},
		record: map[string]any{"workload": cfg.wl.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
			"graph": map[string]any{"levels": cfg.wl.levels, "n": g.N(), "m": g.M(), "seedable": len(nodes)}},
	}, nil
}

func (r *run) close() {
	if r.refG != nil {
		r.refG.Close()
	}
}

// op counts one attempted operation and its failure, if any.
func (r *run) op(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 20 {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

func (r *run) addCheck(what string, verify func() error) {
	r.mu.Lock()
	r.chk.add(what, verify)
	r.mu.Unlock()
}

func (r *run) logPath() string { return filepath.Join(r.dir, "graphd.log") }

func (r *run) connect(gd *graphd) error {
	cli, err := client.New(gd.base, client.WithHTTPClient(r.hc), client.WithRetries(0),
		client.WithPollInterval(jobPoll))
	if err != nil {
		return err
	}
	r.gd, r.cli = gd, cli
	return nil
}

func (r *run) execute(ctx context.Context) error {
	// Wall time of each phase, for the record: where a run's time goes.
	phases := map[string]float64{}
	t := time.Now()
	lap := func(name string) {
		phases[name] += time.Since(t).Seconds()
		t = time.Now()
	}
	r.record["phase_s"] = phases
	if err := r.setup(ctx); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	lap("setup")
	sv, an, in, err := r.newPhases(ctx)
	if err != nil {
		return err
	}
	rp, err := r.newRecoveryProbe(ctx)
	if err != nil {
		return fmt.Errorf("recovery probe: %w", err)
	}
	lap("probe")
	// The measured phases run in rounds, so each metric's samples span
	// the whole run rather than one contiguous slice of it; per-round
	// figures are reported as medians.
	for round := 0; round < rounds; round++ {
		if err := sv.round(ctx, round); err != nil {
			return fmt.Errorf("serving round %d: %w", round, err)
		}
		lap("serve")
		if err := an.round(ctx); err != nil {
			return fmt.Errorf("analytics round %d: %w", round, err)
		}
		lap("analytics")
		if err := in.round(ctx); err != nil {
			return fmt.Errorf("ingest round %d: %w", round, err)
		}
		lap("ingest")
		if err := rp.round(ctx, r); err != nil {
			return fmt.Errorf("recovery round %d: %w", round, err)
		}
		lap("recover")
	}
	sv.finish()
	an.finish()
	in.finish()
	if err := rp.finish(r); err != nil {
		return err
	}
	// The serving process's peak RSS, before the restart replaces it.
	hwm, err := r.gd.vmHWMMB()
	if err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = metric{hwm, "MB"}
	if err := r.restartServing(ctx); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	lap("restart")
	if err := r.gd.stop(); err != nil {
		return err
	}
	r.chk.run()
	lap("check")
	return nil
}

// setup starts graphd on fresh data dirs with the served graph
// preloaded, at least `setups` times and until set-ups have taken
// setupMin, and times each until it answers a query; the last instance
// stays up for the phases that follow.
func (r *run) setup(ctx context.Context) error {
	probe := pprBody(r.nodes[0])
	var times []float64
	var spent float64
	for i := 0; ; i++ {
		dataDir := filepath.Join(r.dir, fmt.Sprintf("data-%d", i))
		gd, err := startGraphd(r.cfg.graphd, r.logPath(), "-data-dir", dataDir, "-load", "g="+r.path)
		if err != nil {
			return err
		}
		wctx, cancel := context.WithTimeout(ctx, 120*time.Second)
		d, err := gd.waitAnswer(wctx, func() error {
			_, err := postRaw(wctx, r.hc, gd.base+"/v1/graphs/g/ppr", probe)
			return err
		})
		cancel()
		if err != nil {
			return err
		}
		times = append(times, d.Seconds())
		spent += d.Seconds()
		if i < setups-1 || spent < setupMin.Seconds() {
			if err := gd.stop(); err != nil {
				return err
			}
			os.RemoveAll(dataDir)
			continue
		}
		r.dataDir = dataDir
		if err := r.connect(gd); err != nil {
			return err
		}
		break
	}
	r.record["setup_s"] = append([]float64(nil), times...)
	r.e2e["setup_s"] = metric{median(times), "s"}
	return nil
}

func pprBody(seed int) []byte {
	b, _ := json.Marshal(api.PPRRequest{Seeds: []int{seed}, Alpha: pprAlpha, Eps: pprEps, TopK: pprTopK})
	return b
}

// doRead issues one serving-mix request through the SDK and, when
// sampled, queues its answer for comparison with the reference.
func (r *run) doRead(ctx context.Context, q request, sampled bool) error {
	what := opNames[q.op]
	var err error
	switch q.op {
	case opPPR:
		req := q.pprReq()
		var resp api.PPRResponse
		if resp, err = r.cli.Graphs.PPR(ctx, "g", req); err == nil && sampled {
			r.addCheck(what, func() error {
				want, err := r.ref.ppr(req)
				if err != nil {
					return err
				}
				return diffPPR(resp, want)
			})
		}
	case opLCPPR, opLCHeat:
		req := q.lcReq()
		var resp api.LocalClusterResponse
		if resp, err = r.cli.Graphs.LocalCluster(ctx, "g", req); err == nil && sampled {
			r.addCheck(what, func() error {
				want, err := r.ref.localCluster(req)
				if err != nil {
					return err
				}
				return diffLocalCluster(resp, want)
			})
		}
	case opBatch:
		req := batchReq(q.seeds)
		var resp api.PPRBatchResponse
		if resp, err = r.cli.Graphs.PPRBatch(ctx, "g", req); err == nil && sampled {
			r.addCheck(what, func() error { return r.ref.diffBatch(req, resp) })
		}
	}
	r.op(what, err)
	return err
}

func (r *run) streamRefs() ([]streamRef, error) {
	return buildRefs(len(r.streams), r.batches, r.batchStream, r.acked)
}

// restartServing deletes the served graph, restarts the serving graphd
// on its data dir and checks that the recovered streams hold exactly
// what was acknowledged and answer with the same bytes as before; the
// recovery probe, not this restart, times recovery. The served graph
// goes first because set-up already times loading it.
func (r *run) restartServing(ctx context.Context) error {
	refs, err := r.streamRefs()
	if err != nil {
		return err
	}
	err = r.cli.Graphs.Delete(ctx, "g")
	r.op("delete served graph", err)
	if err != nil {
		return err
	}
	rc, err := r.newRecovery(ctx, r.gd, r.dataDir, r.streams, r.sealed, refs)
	if err != nil {
		return err
	}
	gd, _, _, err := r.restart(ctx, r.gd, rc)
	if err != nil {
		return err
	}
	return r.connect(gd)
}

var errWrongAnswer = errors.New("wrong answer")

// result folds the run into the printed line: end-to-end metrics
// untraced, per-layer metrics traced.
func (r *run) result() *result {
	res := &result{Attempted: r.attempted + r.chk.attempts, Failed: r.failed + len(r.chk.failures)}
	res.Correct = res.Failed == 0
	res.Metrics = r.e2e
	if r.cfg.trace {
		res.Metrics = r.layer
	}
	for _, f := range append(r.errs, r.chk.failures...) {
		logf("FAILED %s", f)
	}
	return res
}

func (r *run) writeRecord(res *result) error {
	r.record["end_to_end"] = r.e2e
	r.record["per_layer"] = r.layer
	r.record["attempted"], r.record["failed"] = res.Attempted, res.Failed
	r.record["failed_share"] = float64(res.Failed) / float64(max(1, res.Attempted))
	r.record["failures"] = append(r.errs, r.chk.failures...)
	b, err := json.MarshalIndent(r.record, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(r.dir, "record.json")
	logf("run record: %s", path)
	return os.WriteFile(path, b, 0o644)
}
