package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/pkg/api"
	"repro/pkg/client"
)

// streamRef is what the store must hold for one streamed graph: the
// acknowledged batches, deduplicated into a graph, and the raw count of
// acknowledged edges (what an open stream reports).
type streamRef struct {
	g     *graph.Graph
	edges int
	probe int // a node with an edge, for queries
}

// buildRefs folds the acknowledged batches into one streamRef per
// stream; batch i went to stream stream[i].
func buildRefs(streams int, batches [][]api.StreamEdge, stream []int, acked []bool) ([]streamRef, error) {
	refs := make([]streamRef, streams)
	builders := make([]*graph.Builder, streams)
	for k := range builders {
		builders[k] = graph.NewBuilder(streamNodes)
		refs[k].probe = -1
	}
	for i, b := range batches {
		if !acked[i] {
			continue
		}
		k := stream[i]
		for _, e := range b {
			builders[k].AddEdge(e.U, e.V)
		}
		refs[k].edges += len(b)
		if refs[k].probe < 0 {
			refs[k].probe = b[0].U
		}
	}
	for k, b := range builders {
		g, err := b.Build()
		if err != nil {
			return nil, err
		}
		refs[k].g = g
	}
	return refs, nil
}

// recovery is a graphd data dir and what a restart on it must bring
// back: every stream's acknowledged edges, and for every sealed stream
// the bytes a query answered before the restart.
type recovery struct {
	dataDir string
	streams []string
	sealed  []bool
	refs    []streamRef
	paths   []string          // query paths, one per sealed stream, sorted
	queries map[string][]byte // path → request body
	before  map[string][]byte // path → answer before the restart
}

// newRecovery records the answers of gd, which serves dataDir, to one
// query per sealed stream.
func (r *run) newRecovery(ctx context.Context, gd *graphd, dataDir string, streams []string, sealed []bool, refs []streamRef) (*recovery, error) {
	rc := &recovery{dataDir: dataDir, streams: streams, sealed: sealed, refs: refs,
		queries: map[string][]byte{}, before: map[string][]byte{}}
	for k, name := range streams {
		if sealed[k] {
			p := "/v1/graphs/" + name + "/ppr"
			rc.paths = append(rc.paths, p)
			rc.queries[p] = pprBody(refs[k].probe)
		}
	}
	sort.Strings(rc.paths)
	for _, p := range rc.paths {
		b, err := postRaw(ctx, r.hc, gd.base+p, rc.queries[p])
		r.op("pre-restart query", err)
		if err != nil {
			return nil, err
		}
		rc.before[p] = b
	}
	return rc, nil
}

// restart stops gd, starts graphd on the recovery's data dir, waits
// until every graph answers, checks what it recovered, and returns the
// new process with its wall and CPU time from exec until it answered.
func (r *run) restart(ctx context.Context, gd *graphd, rc *recovery) (*graphd, float64, float64, error) {
	if err := gd.stop(); err != nil {
		return nil, 0, 0, err
	}
	gd, err := startGraphd(r.cfg.graphd, r.logPath(), "-data-dir", rc.dataDir)
	if err != nil {
		return nil, 0, 0, err
	}
	wctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	d, err := gd.waitAnswer(wctx, func() error {
		for _, p := range rc.paths {
			if _, err := postRaw(wctx, r.hc, gd.base+p, rc.queries[p]); err != nil {
				return err
			}
		}
		for k, name := range rc.streams {
			if !rc.sealed[k] {
				if _, err := getRaw(wctx, r.hc, gd.base+"/v1/graphs/"+name); err != nil {
					return err
				}
			}
		}
		return nil
	})
	cancel()
	if err != nil {
		return nil, 0, 0, err
	}
	cpu, err := gd.cpuSeconds()
	if err != nil {
		return nil, 0, 0, err
	}
	if err := r.verifyRecovered(ctx, gd, rc); err != nil {
		return nil, 0, 0, err
	}
	return gd, d.Seconds(), cpu, nil
}

// verifyRecovered counts a failed op for every query whose answer
// changed across the restart and every stream that came back with
// other contents than were acknowledged.
func (r *run) verifyRecovered(ctx context.Context, gd *graphd, rc *recovery) error {
	for _, p := range rc.paths {
		b, err := postRaw(ctx, r.hc, gd.base+p, rc.queries[p])
		if err == nil && string(b) != string(rc.before[p]) {
			err = fmt.Errorf("%w: answer differs from before the restart", errWrongAnswer)
		}
		r.op("recovered "+p, err)
	}
	cli, err := client.New(gd.base, client.WithHTTPClient(r.hc), client.WithRetries(0))
	if err != nil {
		return err
	}
	for k, ref := range rc.refs {
		name, sealed := rc.streams[k], rc.sealed[k]
		info, err := cli.Graphs.Get(ctx, name)
		if err == nil {
			wantEdges := ref.g.M()
			if !sealed {
				wantEdges = ref.edges
			}
			if info.Nodes != streamNodes || info.Edges != wantEdges || info.Sealed != sealed {
				err = fmt.Errorf("%w: recovered %s has n=%d m=%d sealed=%v, want n=%d m=%d sealed=%v",
					errWrongAnswer, name, info.Nodes, info.Edges, info.Sealed, streamNodes, wantEdges, sealed)
			}
		}
		r.op("recovered "+name, err)
	}
	return nil
}

// Content of the recovery probe's data dir: probeSealed streams of
// bulkLarge large batches each, sealed, as one ingest round leaves, and
// probeOpen streams whose WALs hold probeOpenLarge large and
// probeOpenSmall small batches each.
const (
	probeSealed    = 4
	probeOpen      = 2
	probeOpenLarge = 8
	probeOpenSmall = 100
)

// recoveryProbe is a second graphd, on a data dir of its own whose
// contents are written once before the rounds and never change, that
// every round restarts: recovery is timed at ten points spread over the
// run, each recovering the same data. Restarts of the serving graphd
// can only come after the rounds, since they end the serving process;
// five of them back to back read the same within a run but 0.34–0.49 s
// of CPU across ten runs at 2^20 (spread 0.17).
type recoveryProbe struct {
	rc    *recovery
	gd    *graphd
	times []float64 // wall s from exec until every graph answered, per restart
	cpus  []float64 // graphd CPU s over the same, per restart
}

func (r *run) newRecoveryProbe(ctx context.Context) (*recoveryProbe, error) {
	dir := filepath.Join(r.dir, "data-recovery")
	gd, err := startGraphd(r.cfg.graphd, r.logPath(), "-data-dir", dir)
	if err != nil {
		return nil, err
	}
	p := &recoveryProbe{gd: gd}
	wctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	_, err = gd.waitAnswer(wctx, func() error {
		_, err := getRaw(wctx, r.hc, gd.base+"/v1/graphs")
		return err
	})
	cancel()
	if err != nil {
		return p, err
	}
	cli, err := client.New(gd.base, client.WithHTTPClient(r.hc), client.WithRetries(0))
	if err != nil {
		return p, err
	}
	rng := r.cfg.rng(7)
	var names []string
	var sealed, acked []bool
	var batches [][]api.StreamEdge
	var stream []int
	for k := 0; k < probeSealed+probeOpen; k++ {
		name := fmt.Sprintf("r%d", k)
		_, err := cli.Graphs.Stream(ctx, name, streamNodes)
		r.op("stream-create", err)
		if err != nil {
			return p, err
		}
		bs := edgeBatches(rng, bulkLarge, bulkSize, streamNodes)
		if k >= probeSealed {
			bs = append(edgeBatches(rng, probeOpenLarge, bulkSize, streamNodes),
				edgeBatches(rng, probeOpenSmall, appendSize, streamNodes)...)
		}
		for _, b := range bs {
			_, err := cli.Graphs.AppendEdges(ctx, name, b)
			r.op("append", err)
			if err != nil {
				return p, err
			}
			batches, stream, acked = append(batches, b), append(stream, k), append(acked, true)
		}
		if k < probeSealed {
			_, err := cli.Graphs.Seal(ctx, name)
			r.op("seal", err)
			if err != nil {
				return p, err
			}
		}
		names, sealed = append(names, name), append(sealed, k < probeSealed)
	}
	refs, err := buildRefs(len(names), batches, stream, acked)
	if err != nil {
		return p, err
	}
	p.rc, err = r.newRecovery(ctx, gd, dir, names, sealed, refs)
	return p, err
}

// round restarts the probe's graphd once.
func (p *recoveryProbe) round(ctx context.Context, r *run) error {
	gd, wall, cpu, err := r.restart(ctx, p.gd, p.rc)
	if err != nil {
		return err
	}
	p.gd = gd
	p.times, p.cpus = append(p.times, wall), append(p.cpus, cpu)
	return nil
}

func (p *recoveryProbe) finish(r *run) error {
	r.record["recover_s"] = append([]float64(nil), p.times...)
	r.record["recover_cpu_s"] = append([]float64(nil), p.cpus...)
	r.layer["client.recover_s"] = metric{median(p.times), "s"}
	r.e2e["recover_cpu_s"] = metric{median(p.cpus), "s"}
	return p.gd.stop()
}
