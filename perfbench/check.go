package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/gstore"
	"repro/internal/kernel"
	"repro/internal/local"
	"repro/internal/ncp"
	"repro/pkg/api"
)

// reference recomputes graphd's answers in-process on the same graph,
// through the same public kernel, local and ncp functions the service
// calls, so a correct response matches it bit for bit.
type reference struct {
	g    gstore.Graph
	pool *kernel.Pool
}

func newReference(g gstore.Graph) *reference {
	return &reference{g: g, pool: kernel.NewPool(g.N())}
}

// topMasses orders the workspace's output plane by mass descending,
// node ascending, and keeps the first k: the service's top-k contract.
func topMasses(ws *kernel.Workspace, k int) []api.NodeMass {
	out := make([]api.NodeMass, 0, ws.PSupport())
	ws.ForEachP(func(u int, x float64) { out = append(out, api.NodeMass{Node: u, Mass: x}) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].Mass != out[j].Mass {
			return out[i].Mass > out[j].Mass
		}
		return out[i].Node < out[j].Node
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

func (r *reference) ppr(req api.PPRRequest) (api.PPRResponse, error) {
	ws := r.pool.Get()
	defer r.pool.Put(ws)
	st, err := kernel.PushACL{Alpha: req.Alpha, Eps: req.Eps}.Diffuse(r.g, ws, req.Seeds)
	if err != nil {
		return api.PPRResponse{}, err
	}
	return api.PPRResponse{
		Support: ws.PSupport(), Sum: ws.PSum(), Pushes: st.Pushes, WorkVolume: st.WorkVolume,
		Top: topMasses(ws, req.TopK),
	}, nil
}

func (r *reference) localCluster(req api.LocalClusterRequest) (api.LocalClusterResponse, error) {
	ws := r.pool.Get()
	defer r.pool.Put(ws)
	var (
		st      kernel.Stats
		err     error
		support int
	)
	if req.Method == "heat" {
		st, err = kernel.HeatKernel{T: req.T, Eps: req.Eps}.Diffuse(r.g, ws, req.Seeds)
		support = st.MaxSupport
	} else {
		st, err = kernel.PushACL{Alpha: req.Alpha, Eps: req.Eps}.Diffuse(r.g, ws, req.Seeds)
		support = ws.PSupport()
	}
	if err != nil {
		return api.LocalClusterResponse{}, err
	}
	cut, err := local.WorkspaceSweepCut(r.g, ws)
	if err != nil {
		return api.LocalClusterResponse{}, err
	}
	return api.LocalClusterResponse{
		Method: req.Method, Set: cut.Set, Size: len(cut.Set), Conductance: cut.Conductance,
		Volume: gstore.VolumeOfSet(r.g, cut.Set), Support: support,
	}, nil
}

// ncpSummary is the NCP job's result computed directly.
func (r *reference) ncpSummary(ctx context.Context, seeds int, baseSeed int64) (*api.ProfileSummary, error) {
	prof, err := ncp.SpectralProfileOn(ctx, r.g, ncp.SpectralConfig{Seeds: seeds, BaseSeed: baseSeed},
		rand.New(rand.NewSource(baseSeed)))
	if err != nil {
		return nil, err
	}
	s := &api.ProfileSummary{Clusters: len(prof.Clusters)}
	for _, pt := range prof.MinEnvelope() {
		s.Envelope = append(s.Envelope, api.EnvelopePoint{Size: pt.Size, Conductance: pt.Conductance})
	}
	return s, nil
}

// Bit-exact comparisons. Each returns nil on a match and a description
// of the first difference otherwise.

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func diffTop(got, want []api.NodeMass) error {
	if len(got) != len(want) {
		return fmt.Errorf("top has %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Node != want[i].Node || !sameFloat(got[i].Mass, want[i].Mass) {
			return fmt.Errorf("top[%d] = %d:%v, want %d:%v", i, got[i].Node, got[i].Mass, want[i].Node, want[i].Mass)
		}
	}
	return nil
}

func diffPPR(got, want api.PPRResponse) error {
	switch {
	case got.Support != want.Support:
		return fmt.Errorf("support %d, want %d", got.Support, want.Support)
	case !sameFloat(got.Sum, want.Sum):
		return fmt.Errorf("sum %v, want %v", got.Sum, want.Sum)
	case got.Pushes != want.Pushes:
		return fmt.Errorf("pushes %d, want %d", got.Pushes, want.Pushes)
	case !sameFloat(got.WorkVolume, want.WorkVolume):
		return fmt.Errorf("work volume %v, want %v", got.WorkVolume, want.WorkVolume)
	}
	return diffTop(got.Top, want.Top)
}

func diffLocalCluster(got, want api.LocalClusterResponse) error {
	switch {
	case got.Method != want.Method:
		return fmt.Errorf("method %q, want %q", got.Method, want.Method)
	case got.Size != want.Size || len(got.Set) != len(want.Set):
		return fmt.Errorf("set size %d, want %d", got.Size, want.Size)
	case !sameFloat(got.Conductance, want.Conductance):
		return fmt.Errorf("conductance %v, want %v", got.Conductance, want.Conductance)
	case !sameFloat(got.Volume, want.Volume):
		return fmt.Errorf("volume %v, want %v", got.Volume, want.Volume)
	case got.Support != want.Support:
		return fmt.Errorf("support %d, want %d", got.Support, want.Support)
	}
	for i := range got.Set {
		if got.Set[i] != want.Set[i] {
			return fmt.Errorf("set[%d] = %d, want %d", i, got.Set[i], want.Set[i])
		}
	}
	return nil
}

// diffBatch checks each per-seed result of a ppr:batch against the
// single-seed answer for that seed.
func (r *reference) diffBatch(req api.PPRBatchRequest, got api.PPRBatchResponse) error {
	if len(got.Results) != len(req.Seeds) {
		return fmt.Errorf("batch has %d results, want %d", len(got.Results), len(req.Seeds))
	}
	for i, s := range req.Seeds {
		res := got.Results[i]
		if res.Seed != s {
			return fmt.Errorf("result %d is for seed %d, want %d", i, res.Seed, s)
		}
		want, err := r.ppr(api.PPRRequest{Seeds: []int{s}, Alpha: req.Alpha, Eps: req.Eps, TopK: req.TopK})
		if err != nil {
			return err
		}
		single := api.PPRResponse{Support: res.Support, Sum: res.Sum, Pushes: res.Pushes,
			WorkVolume: res.WorkVolume, Top: res.Top}
		if err := diffPPR(single, want); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
	}
	return nil
}

func diffProfile(got, want *api.ProfileSummary) error {
	if got == nil {
		return fmt.Errorf("job result has no spectral profile")
	}
	if got.Clusters != want.Clusters {
		return fmt.Errorf("%d clusters, want %d", got.Clusters, want.Clusters)
	}
	if len(got.Envelope) != len(want.Envelope) {
		return fmt.Errorf("envelope has %d points, want %d", len(got.Envelope), len(want.Envelope))
	}
	for i := range got.Envelope {
		g, w := got.Envelope[i], want.Envelope[i]
		if g.Size != w.Size || !sameFloat(g.Conductance, w.Conductance) {
			return fmt.Errorf("envelope[%d] = %d:%v, want %d:%v", i, g.Size, g.Conductance, w.Size, w.Conductance)
		}
	}
	return nil
}

// check is one sampled answer awaiting comparison with the reference.
type check struct {
	what   string
	verify func() error
}

// checker collects sampled answers during a phase and verifies them
// after it, so reference computations never compete with the
// measurement for CPU.
type checker struct {
	pending  []check
	attempts int
	failures []string
}

func (c *checker) add(what string, verify func() error) {
	c.pending = append(c.pending, check{what, verify})
}

func (c *checker) run() {
	for _, ch := range c.pending {
		c.attempts++
		if err := ch.verify(); err != nil {
			c.failures = append(c.failures, fmt.Sprintf("%s: %v", ch.what, err))
		}
	}
	c.pending = nil
}
