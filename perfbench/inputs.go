package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/gen"
	"repro/internal/gstore"
	"repro/internal/persist"
	"repro/pkg/api"
)

// graphSeed fixes the structure of every workload graph: --seed varies
// the request streams, edge batches and job seeds, not the graph, so
// runs with different seeds measure the same stored data.
const graphSeed = 1

// graphFile returns the path of the workload's Kronecker snapshot,
// generating it on first use. Generation is input preparation, not
// set-up: it is cached under the work directory and never timed.
func graphFile(work string, levels int) (string, error) {
	dir := filepath.Join(work, "inputs")
	path := filepath.Join(dir, fmt.Sprintf("kron%d-s%d.gsnap", levels, graphSeed))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	g, err := gen.Kronecker(gen.KroneckerConfig{Levels: levels}, rand.New(rand.NewSource(graphSeed)))
	if err != nil {
		return "", fmt.Errorf("generating kronecker 2^%d: %w", levels, err)
	}
	if err := persist.WriteSnapshotFile(path, g); err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}

// seedable lists the nodes every op of the mix can start from: degree
// above zero (Kronecker leaves many isolated nodes, which diffuse
// nothing) and below 1/pprEps, because a hub with a larger degree never
// satisfies the push condition, so its ppr vector is empty and graphd
// rightly refuses its local cluster.
func seedable(g gstore.Graph) []int {
	var out []int
	for u := 0; u < g.N(); u++ {
		if d := g.Degree(u); d > 0 && d*pprEps < 1 {
			out = append(out, u)
		}
	}
	return out
}

// seedSampler draws seed nodes: Zipf-ranked over a seeded permutation of
// the seedable nodes when zipf > 1, uniform over them otherwise.
type seedSampler struct {
	nodes []int
	rng   *rand.Rand
	zipf  *rand.Zipf
}

func newSeedSampler(nodes []int, zipf float64, rng *rand.Rand) *seedSampler {
	perm := append([]int(nil), nodes...)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	s := &seedSampler{nodes: perm, rng: rng}
	if zipf > 1 {
		s.zipf = rand.NewZipf(rng, zipf, 1, uint64(len(perm)-1))
	}
	return s
}

func (s *seedSampler) next() int {
	if s.zipf != nil {
		return s.nodes[s.zipf.Uint64()]
	}
	return s.nodes[s.rng.Intn(len(s.nodes))]
}

// distinct draws k distinct nodes uniformly: the fresh seeds of one
// ppr:batch request.
func (s *seedSampler) distinct(k int) []int {
	out := make([]int, 0, k)
	seen := make(map[int]bool, k)
	for len(out) < k {
		u := s.nodes[s.rng.Intn(len(s.nodes))]
		if !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	return out
}

// Read operations of the serving mix.
type opKind int

const (
	opPPR    opKind = iota // POST /ppr, top-k masses
	opLCPPR                // POST /localcluster method=ppr (push + sweep)
	opLCHeat               // POST /localcluster method=heat (heat kernel + sweep)
	opBatch                // POST /ppr:batch
	numOps
)

var opNames = [numOps]string{"ppr", "localcluster-ppr", "localcluster-heat", "ppr-batch"}

// Serving-mix request parameters. They are fixed so a response is a pure
// function of the seeds, which is what the reference recomputes.
const (
	pprAlpha   = 0.15
	pprEps     = 1e-4
	pprTopK    = 100
	heatT      = 5
	heatEps    = 1e-4
	mixBatchK  = 8  // seeds per ppr:batch in the serving mix, as graphload's batch op
	batchTopK  = 20 // top-k per seed in every ppr:batch
	analyticsK = 64 // seeds per ppr:batch in the analytics phase
)

// request is one generated read: its kind and its seeds.
type request struct {
	op    opKind
	seeds []int
}

func (r request) pprReq() api.PPRRequest {
	return api.PPRRequest{Seeds: r.seeds, Alpha: pprAlpha, Eps: pprEps, TopK: pprTopK}
}

func (r request) lcReq() api.LocalClusterRequest {
	if r.op == opLCHeat {
		return api.LocalClusterRequest{Method: "heat", Seeds: r.seeds, T: heatT, Eps: heatEps}
	}
	return api.LocalClusterRequest{Method: "ppr", Seeds: r.seeds, Alpha: pprAlpha, Eps: pprEps}
}

func batchReq(seeds []int) api.PPRBatchRequest {
	return api.PPRBatchRequest{Seeds: seeds, Alpha: pprAlpha, Eps: pprEps, TopK: batchTopK}
}

// mix draws the serving mix by the workload's weights.
type mix struct {
	seeds   *seedSampler
	rng     *rand.Rand
	weights [numOps]float64
}

func (m *mix) next() request {
	x := m.rng.Float64()
	op := opKind(0)
	for ; op < numOps-1; op++ {
		if x < m.weights[op] {
			break
		}
		x -= m.weights[op]
	}
	if op == opBatch {
		return request{op: opBatch, seeds: m.seeds.distinct(mixBatchK)}
	}
	return request{op: op, seeds: []int{m.seeds.next()}}
}

// edgeBatches generates count batches of size random edges (no self
// loops) among nodes node ids.
func edgeBatches(rng *rand.Rand, count, size, nodes int) [][]api.StreamEdge {
	out := make([][]api.StreamEdge, count)
	for i := range out {
		b := make([]api.StreamEdge, size)
		for j := range b {
			u := rng.Intn(nodes)
			v := rng.Intn(nodes - 1)
			if v >= u {
				v++
			}
			b[j] = api.StreamEdge{U: u, V: v}
		}
		out[i] = b
	}
	return out
}
