// Command perfbench is the repository benchmark. It runs one workload
// against a graphd child process and prints, as the last line of
// standard output, one JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1).
//
// It is normally started by run.sh, which builds graphd and this program
// from the checkout first:
//
//	bash perfbench/run.sh --workload serve-small-skewed --seed 1 --seconds 20 --trace 0
//
// Every run has the same phases — set-up, then rounds of an open-loop
// serving ladder, a closed-loop analytics phase, an ingest phase with a
// seal and beside reads, and a restart of a second graphd that recovers
// a data directory of fixed contents; then a restart of the serving
// graphd that recovers what the rounds ingested — and every sampled
// answer is checked bit for bit against an in-process reference. The
// workloads differ in their inputs; NOTES.md records why each exists.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// workload is one set of inputs and rates.
type workload struct {
	name     string
	levels   int     // Kronecker power of the served graph
	zipf     float64 // seed popularity exponent; 0 = uniform
	weights  [numOps]float64
	nominal  float64 // req/s at which latency is gated
	ladder   []float64
	ncpSeeds int // spectral NCP seeds per scale
	replay   int // requests the traced run replays in-process
}

// Serving-mix weights, indexed by opKind. graphload's default mix is
// ppr=0.8,localcluster=0.15,diffuse=0.05; its heat diffusion is served
// here through /localcluster method=heat (see NOTES.md). The batch mix
// joins it with graphload's batch-heavy mix ppr=0.5,batch=0.5 at equal
// weight, as `make bench` and the CI perf gate run the two.
var (
	defaultMix = [numOps]float64{opPPR: 0.8, opLCPPR: 0.15, opLCHeat: 0.05}
	batchMix   = [numOps]float64{opPPR: 0.65, opLCPPR: 0.075, opLCHeat: 0.025, opBatch: 0.25}
)

// Settings shared by every workload.
const (
	p99LimitMs  = 50   // knee criterion
	appendRate  = 200  // edge batches/s in the ingest phase, beside reads
	appendBurst = 200  // closed-loop edge batches per round, alone, for append CPU
	appendSize  = 32   // edges per batch
	bulkLarge   = 24   // large batches per round, alone, for append CPU per edge
	bulkSize    = 8192 // edges per large batch
	streamNodes = 4096 // node count of each streamed graph
)

var workloads = []workload{
	{
		name: "serve-small-skewed", levels: 14, zipf: 1.1, weights: defaultMix,
		nominal: 400, ladder: []float64{700, 900, 1150, 1500, 1900, 2450, 3150, 4000, 5100},
		ncpSeeds: 20, replay: 2000,
	},
	{
		name: "serve-large-uniform", levels: 20, weights: batchMix,
		nominal: 200, ladder: []float64{260, 340, 440, 570, 740, 960, 1250, 1600},
		ncpSeeds: 1, replay: 300,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "seed for every generated request, batch and job parameter")
		seconds = flag.Int("seconds", 25, "measured seconds, split across the phases")
		trace   = flag.Int("trace", 0, "1 = also replay in-process with spans and print per-layer metrics")
		bin     = flag.String("graphd", "", "graphd binary")
		work    = flag.String("work", ".bench_build", "directory for inputs, data dirs, logs and run records")
	)
	flag.Parse()
	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -graphd, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}

	// Stop children on an interrupt too; the deferred stopAll covers
	// every ordinary exit path of run.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		stopAll()
		os.Exit(130)
	}()

	res, err := runBench(benchConfig{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, graphd: *bin, work: *work})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type benchConfig struct {
	wl      workload
	seed    int64
	seconds int
	trace   bool
	graphd  string
	work    string
}

// conns is the connection and worker count of every load phase.
func conns() int { return runtime.NumCPU() }

// rng derives an independent RNG per purpose from the run seed.
func (c benchConfig) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(c.seed*1_000_003 + stream))
}

func runBench(cfg benchConfig) (*result, error) {
	defer stopAll()
	work, err := filepath.Abs(cfg.work)
	if err != nil {
		return nil, err
	}
	cfg.work = work
	runDir := filepath.Join(work, "runs", fmt.Sprintf("%s-seed%d-trace%v-%d", cfg.wl.name, cfg.seed, cfg.trace, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	// Data dirs hold copies of the served graph; only logs and the
	// record are kept.
	defer removeDataDirs(runDir)

	r, err := newRun(cfg, runDir)
	if err != nil {
		return nil, err
	}
	defer r.close()
	ctx := context.Background()
	if err := r.execute(ctx); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := r.replay(ctx); err != nil {
			return nil, err
		}
	}
	res := r.result()
	if err := r.writeRecord(res); err != nil {
		return nil, err
	}
	return res, nil
}

func removeDataDirs(runDir string) {
	matches, _ := filepath.Glob(filepath.Join(runDir, "data-*"))
	for _, m := range matches {
		os.RemoveAll(m)
	}
}

// logf reports progress on standard error; standard output carries only
// the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
