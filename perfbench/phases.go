package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/pkg/api"
)

// stepStats summarizes one open-loop rate step.
type stepStats struct {
	Rate        float64 `json:"rate"`
	N           int     `json:"n"`
	Failed      int     `json:"failed"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	SendWaitP99 float64 `json:"send_wait_p99_ms"`
	GenLateP99  float64 `json:"gen_late_p99_ms"`
	ServiceMean float64 `json:"service_mean_ms"`
	DrainMs     float64 `json:"drain_ms"`
	Pass        bool    `json:"pass"`
}

// summarize judges a step against the knee criterion: p99 within the
// limit, at most 1% failed, and the backlog drained within the limit
// after the last arrival. Latency counts from due, so a step whose
// generator ran later than the limit at p99 fails too.
func summarize(rate float64, dur time.Duration, ss []sample, limitMs float64) stepStats {
	st := stepStats{Rate: rate, N: len(ss)}
	var lat, wait, late, svc []float64
	var lastDone time.Duration
	for _, s := range ss {
		if s.err != nil {
			st.Failed++
		}
		lat = append(lat, ms(s.latency()))
		wait = append(wait, ms(s.sendWait()))
		late = append(late, ms(s.late()))
		svc = append(svc, ms(s.service()))
		lastDone = max(lastDone, s.done)
	}
	st.P50Ms, st.P99Ms = quantile(lat, 0.5), quantile(lat, 0.99)
	st.SendWaitP99, st.GenLateP99 = quantile(wait, 0.99), quantile(late, 0.99)
	st.ServiceMean = mean(svc)
	st.DrainMs = ms(lastDone - dur)
	st.Pass = st.P99Ms <= limitMs && float64(st.Failed) <= 0.01*float64(st.N) && st.DrainMs <= limitMs
	return st
}

// knee interpolates, in log p99, the rate at which p99 crosses the limit
// between the last passing step and the first failing one.
func knee(steps []stepStats, limitMs float64) float64 {
	for i, st := range steps {
		if st.Pass {
			continue
		}
		if i == 0 {
			return st.Rate * math.Min(1, limitMs/st.P99Ms)
		}
		lo := steps[i-1]
		if st.P99Ms <= limitMs {
			return lo.Rate
		}
		f := (math.Log(limitMs) - math.Log(lo.P99Ms)) / (math.Log(st.P99Ms) - math.Log(lo.P99Ms))
		return lo.Rate + (st.Rate-lo.Rate)*math.Max(0, math.Min(1, f))
	}
	return steps[len(steps)-1].Rate
}

// replaySteps is the number of nominal steps, from the first, whose
// requests the traced run replays.
const replaySteps = 2

// ladderStep is the length of one ladder step. The climb stops at the
// first failing step, so a slower machine spends less time climbing.
const ladderStep = 250 * time.Millisecond

// onSchedule fails the run when the generator of a gated window (a
// nominal step, an ingest window) ran later than p99LimitMs at p99: its
// arrivals were bunched, so the window did not offer the load it names.
func (r *run) onSchedule(what string, ss []sample) {
	late := make([]float64, len(ss))
	for i, s := range ss {
		late[i] = ms(s.late())
	}
	var err error
	if p99 := quantile(late, 0.99); p99 > p99LimitMs {
		err = fmt.Errorf("generator %.1f ms late at p99, above the %d ms bound", p99, p99LimitMs)
	}
	r.op(what+" schedule", err)
}

// serveState is the open-loop serving ladder. Each round runs the
// nominal rate, and every other round then climbs the ladder until a
// step fails; the figures are medians over the rounds (the nominal
// ones) or over the climbs (the knee).
type serveState struct {
	r         *run
	mix       *mix
	sampleRNG *rand.Rand
	checked   [numOps]int

	steps      [][]stepStats // per round
	knees      []float64
	calls      int
	extraTrips int64
	nominal    delta     // scrape deltas over the nominal steps
	all        delta     // over every step
	queryCPU   []float64 // graphd CPU µs per read of each round's nominal step
}

func (s *serveState) step(ctx context.Context, rate float64, dur time.Duration, record bool) ([]sample, []request) {
	dues := evenDues(rate, dur)
	reqs := make([]request, len(dues))
	sampled := make([]bool, len(dues))
	for i := range reqs {
		reqs[i] = s.mix.next()
		if record && s.sampleRNG.Float64() < checkShare && s.checked[reqs[i].op] < checkCap {
			sampled[i] = true
			s.checked[reqs[i].op]++
		}
	}
	ss := runOpen(ctx, conns(), dues, func(ctx context.Context, i int) error {
		return s.r.doRead(ctx, reqs[i], sampled[i])
	})
	return ss, reqs
}

func (s *serveState) round(ctx context.Context, round int) error {
	r, wl := s.r, s.r.cfg.wl
	nominalDur := r.share(nominalShare) / rounds
	if round == 0 {
		s.step(ctx, wl.nominal, time.Second, false) // warm-up: fills the result cache, grows pools
	}
	before, err := takeScrape(ctx, r.scrapes, r.gd.debug)
	if err != nil {
		return err
	}
	trips0 := r.tr.trips.Load()
	cpu0, err := r.gd.cpuSeconds()
	if err != nil {
		return err
	}
	ss, reqs := s.step(ctx, wl.nominal, nominalDur, true)
	cpu1, err := r.gd.cpuSeconds()
	if err != nil {
		return err
	}
	s.queryCPU = append(s.queryCPU, 1e6*(cpu1-cpu0)/float64(len(ss)))
	r.onSchedule("nominal step", ss)
	if round < replaySteps {
		r.nominalReqs = append(r.nominalReqs, reqs...)
	}
	afterNominal, err := takeScrape(ctx, r.scrapes, r.gd.debug)
	if err != nil {
		return err
	}
	steps := []stepStats{summarize(wl.nominal, nominalDur, ss, p99LimitMs)}
	calls := len(ss)
	for _, rate := range wl.ladder {
		if round%2 == 0 || !steps[len(steps)-1].Pass {
			break
		}
		ss, _ := s.step(ctx, rate, ladderStep, true)
		calls += len(ss)
		steps = append(steps, summarize(rate, ladderStep, ss, p99LimitMs))
	}
	// Retries are off, so every call is one round trip; any surplus is
	// a retry and fails the run.
	trips := r.tr.trips.Load() - trips0
	var retryErr error
	if trips != int64(calls) {
		retryErr = fmt.Errorf("%d round trips for %d calls", trips, calls)
	}
	r.op("retries", retryErr)
	after, err := takeScrape(ctx, r.scrapes, r.gd.debug)
	if err != nil {
		return err
	}
	s.nominal.add(before, afterNominal)
	s.all.add(before, after)
	s.calls += calls
	s.extraTrips += trips - int64(calls)
	s.steps = append(s.steps, steps)
	if round%2 == 1 {
		s.knees = append(s.knees, knee(steps, p99LimitMs))
	}
	for _, st := range steps {
		logf("%s round %d rate %.0f/s: n=%d p50=%.2fms p99=%.2fms drain=%.1fms failed=%d pass=%v",
			wl.name, round, st.Rate, st.N, st.P50Ms, st.P99Ms, st.DrainMs, st.Failed, st.Pass)
	}
	return nil
}

func (s *serveState) finish() {
	r := s.r
	var p50, p99, wait, late, svc []float64
	samples := 0
	for _, steps := range s.steps {
		nom := steps[0]
		p50, p99 = append(p50, nom.P50Ms), append(p99, nom.P99Ms)
		wait, svc = append(wait, nom.SendWaitP99), append(svc, nom.ServiceMean)
		samples += nom.N
		for _, st := range steps {
			late = append(late, st.GenLateP99)
		}
	}
	r.record["serve_steps"] = s.steps
	r.record["serve_knees"] = s.knees
	r.record["query_samples"] = samples
	r.layer["client.query_p50_ms"] = metric{median(p50), "ms"}
	r.layer["client.query_p99_ms"] = metric{median(p99), "ms"}
	r.layer["client.knee_rps"] = metric{median(s.knees), "req/s"}
	r.record["query_cpu_us"] = append([]float64(nil), s.queryCPU...)
	r.e2e["query_cpu_us"] = metric{median(s.queryCPU), "us"}

	hits, misses := s.all.sum("graphd_cache_hits_total"), s.all.sum("graphd_cache_misses_total")
	r.layer["client.send_wait_p99_ms"] = metric{median(wait), "ms"}
	r.layer["client.gen_late_p99_ms"] = metric{slices.Max(late), "ms"}
	r.layer["client.retries"] = metric{float64(s.extraTrips), "count"}
	r.layer["http.overhead_mean_ms"] = metric{mean(svc) - s.nominal.meanMs("graphd_request_seconds"), "ms"}
	r.layer["service.cache_hit_ratio"] = metric{hits / math.Max(1, hits+misses), "ratio"}
	r.layer["service.cache_evictions_per_kreq"] = metric{1000 * s.all.sum("graphd_cache_evictions_total") / float64(s.calls), "count"}
	r.layer["runtime.allocs_per_req"] = metric{s.all.mallocs / float64(s.calls), "count"}
	r.layer["runtime.bytes_per_req"] = metric{s.all.allocBytes / float64(s.calls), "B"}
	r.layer["runtime.gc_pause_ms"] = metric{s.all.pauseNs / 1e6, "ms"}
}

// analyticsState is one closed-loop caller: per round, ppr:batch
// requests of fresh seeds for the round's share of the time, then one
// spectral NCP job. The run's jobs, and so their work, are the same
// for every --seed (see ncpBaseSeed).
type analyticsState struct {
	r        *run
	sampler  *seedSampler
	rates    []float64 // seeds/s per round
	jobTimes []float64
	callCPU  []float64 // graphd CPU µs per seed of each ppr:batch call
	jobCPU   []float64 // graphd CPU s of each NCP job
	jobs     int
	batches  int
	d        delta
}

// batchWarmup is the number of unmeasured ppr:batch calls before the
// first round's: the first calls of K=64 grow graphd's batch
// workspaces and cost ≈1.3× the later ones.
const batchWarmup = 8

// ncpBaseSeed is the base_seed of a run's i-th NCP job. Like the graph,
// the jobs do not depend on --seed: a job's work varies several-fold
// with the nodes its base seed draws (1.2–3.1 s of graphd CPU per job
// at 2^20 with 4 seeds per scale), which would swamp a comparison of
// runs. Each job of a run still has a base seed of its own, so the job
// cache never answers one.
func ncpBaseSeed(i int) int64 { return int64(i) + 1 }

// batchCall issues one ppr:batch of fresh seeds and returns graphd's
// CPU time per seed for it and the call's wall time.
func (a *analyticsState) batchCall(ctx context.Context) (float64, time.Duration, error) {
	r := a.r
	req := batchReq(a.sampler.distinct(analyticsK))
	cpu0, err := r.gd.cpuSeconds()
	if err != nil {
		return 0, 0, err
	}
	t := time.Now()
	resp, err := r.cli.Graphs.PPRBatch(ctx, "g", req)
	d := time.Since(t)
	r.op("ppr-batch-64", err)
	if err != nil {
		return 0, 0, err
	}
	cpu1, err := r.gd.cpuSeconds()
	if err != nil {
		return 0, 0, err
	}
	if a.batches < 2 {
		r.addCheck("ppr-batch-64", func() error { return r.ref.diffBatch(req, resp) })
	}
	a.batches++
	return 1e6 * (cpu1 - cpu0) / float64(len(req.Seeds)), d, nil
}

func (a *analyticsState) round(ctx context.Context) error {
	r := a.r
	slice := r.share(analyticsShare) / rounds
	if err := r.gd.collect(ctx, r.scrapes); err != nil {
		return err
	}
	if len(a.rates) == 0 {
		for i := 0; i < batchWarmup; i++ {
			if _, _, err := a.batchCall(ctx); err != nil {
				return err
			}
		}
	}
	before, err := takeScrape(ctx, r.scrapes, r.gd.debug)
	if err != nil {
		return err
	}
	var calls int
	var busy time.Duration
	for end := time.Now().Add(slice); calls == 0 || time.Now().Before(end); calls++ {
		cpu, d, err := a.batchCall(ctx)
		if err != nil {
			return err
		}
		a.callCPU = append(a.callCPU, cpu)
		busy += d
	}
	a.rates = append(a.rates, float64(calls*analyticsK)/busy.Seconds())
	if err := a.job(ctx); err != nil {
		return err
	}
	after, err := takeScrape(ctx, r.scrapes, r.gd.debug)
	if err != nil {
		return err
	}
	a.d.add(before, after)
	return nil
}

// job runs the run's next NCP job to its result and records its wall
// and graphd CPU time.
func (a *analyticsState) job(ctx context.Context) error {
	r, wl := a.r, a.r.cfg.wl
	base := ncpBaseSeed(a.jobs)
	job, err := api.NewJob("ncp", "g", api.NCPJobParams{Method: "spectral", Seeds: wl.ncpSeeds, BaseSeed: base})
	if err != nil {
		return err
	}
	if err := r.gd.collect(ctx, r.scrapes); err != nil {
		return err
	}
	cpu0, err := r.gd.cpuSeconds()
	if err != nil {
		return err
	}
	t := time.Now()
	var res api.NCPJobResult
	view, err := r.cli.Jobs.Submit(ctx, job)
	if err == nil {
		_, err = r.cli.Jobs.WaitResult(ctx, view.ID, &res)
	}
	d := time.Since(t)
	r.op("ncp-job", err)
	if err != nil {
		return err
	}
	cpu1, err := r.gd.cpuSeconds()
	if err != nil {
		return err
	}
	a.jobTimes = append(a.jobTimes, d.Seconds())
	a.jobCPU = append(a.jobCPU, cpu1-cpu0)
	if a.jobs == 0 {
		r.addCheck("ncp-job", func() error {
			want, err := r.ref.ncpSummary(ctx, wl.ncpSeeds, base)
			if err != nil {
				return err
			}
			if res.Nodes != r.refG.N() || res.EdgesM != r.refG.M() {
				return fmt.Errorf("job saw n=%d m=%d, want n=%d m=%d", res.Nodes, res.EdgesM, r.refG.N(), r.refG.M())
			}
			return diffProfile(res.Spectral, want)
		})
	}
	a.jobs++
	return nil
}

func (a *analyticsState) finish() {
	r := a.r
	r.record["batch_seeds_per_s"] = append([]float64(nil), a.rates...)
	r.record["ncp_job_s"] = append([]float64(nil), a.jobTimes...)
	r.record["batch_cpu_us_per_seed"] = append([]float64(nil), a.callCPU...)
	r.record["ncp_job_cpu_s"] = append([]float64(nil), a.jobCPU...)
	r.layer["client.batch_seeds_per_s"] = metric{median(a.rates), "seeds/s"}
	r.layer["jobs.ncp_job_s"] = metric{median(a.jobTimes), "s"}
	r.e2e["batch_cpu_us_per_seed"] = metric{median(a.callCPU), "us"}
	r.e2e["ncp_job_cpu_s"] = metric{mean(a.jobCPU), "s"}
	r.layer["jobs.queue_wait_ms"] = metric{a.d.meanMs("graphd_job_queue_wait_seconds"), "ms"}
}

// ingestState appends edge batches to streaming graphs. Each round
// first appends, closed-loop on one connection with nothing else
// running, appendBurst small batches round-robin to the numStreams open
// streams, for graphd's CPU time per batch; then bulkLarge large batches
// to a stream of the round's own, for CPU time per edge, and seals that
// stream, for CPU time per seal; then appends small batches at a fixed
// rate on one connection while ppr reads on the served graph run at the
// nominal rate on the others. The large batches make a seal's CSR build
// ≈0.1 s of work, so its CPU time is not lost among graphd's background
// work, and sealing a stream per round spreads the seals over the run
// like the other figures: three seals at its end read the same within
// a run but 0.22–0.32 s across runs.
type ingestState struct {
	r          *run
	batchRNG   *rand.Rand
	sampler    *seedSampler
	open       []int     // the open streams' indices
	appendCPU  []float64 // graphd CPU µs per small batch of each round's burst
	bulkCPU    []float64 // graphd CPU ns per edge of each round's large batches
	sealCPU    []float64 // graphd CPU s of each round's seal
	sealTimes  []float64
	appendP50  []float64
	appendP99  []float64
	readP99    []float64
	appendN    int
	readN      int
	d          delta
	readsSoFar int
}

// appendBatch appends batch j to its stream and records the ack.
func (r *run) appendBatch(ctx context.Context, j int) error {
	_, err := r.cli.Graphs.AppendEdges(ctx, r.streams[r.batchStream[j]], r.batches[j])
	r.op("append", err)
	r.acked[j] = err == nil
	return err
}

// addStream creates a streaming graph and returns its index.
func (r *run) addStream(ctx context.Context, name string) (int, error) {
	_, err := r.cli.Graphs.Stream(ctx, name, streamNodes)
	r.op("stream-create", err)
	if err != nil {
		return 0, err
	}
	r.streams = append(r.streams, name)
	r.sealed = append(r.sealed, false)
	return len(r.streams) - 1, nil
}

// addBatches generates n more edge batches of size edges, the i-th for
// stream streams[i%len(streams)], and returns the first index.
func (in *ingestState) addBatches(n, size int, streams []int) int {
	r := in.r
	first := len(r.batches)
	r.batches = append(r.batches, edgeBatches(in.batchRNG, n, size, streamNodes)...)
	for i := 0; i < n; i++ {
		r.batchStream = append(r.batchStream, streams[i%len(streams)])
	}
	r.acked = append(r.acked, make([]bool, n)...)
	return first
}

// burst appends batches [first, first+n) closed-loop and returns
// graphd's CPU time for them.
func (in *ingestState) burst(ctx context.Context, first, n int) (float64, error) {
	r := in.r
	cpu0, err := r.gd.cpuSeconds()
	if err != nil {
		return 0, err
	}
	for j := first; j < first+n; j++ {
		if err := r.appendBatch(ctx, j); err != nil {
			return 0, err
		}
	}
	cpu1, err := r.gd.cpuSeconds()
	return cpu1 - cpu0, err
}

func (in *ingestState) round(ctx context.Context) error {
	r, wl := in.r, in.r.cfg.wl
	cpu, err := in.burst(ctx, in.addBatches(appendBurst, appendSize, in.open), appendBurst)
	if err != nil {
		return err
	}
	in.appendCPU = append(in.appendCPU, 1e6*cpu/appendBurst)
	if err := in.bulk(ctx); err != nil {
		return err
	}

	dur := r.share(ingestShare) / rounds
	appendDues, readDues := evenDues(appendRate, dur), evenDues(wl.nominal, dur)
	first := in.addBatches(len(appendDues), appendSize, in.open)
	reads := make([]request, len(readDues))
	for i := range reads {
		reads[i] = request{op: opPPR, seeds: []int{in.sampler.next()}}
	}
	before, err := takeScrape(ctx, r.scrapes, r.gd.debug)
	if err != nil {
		return err
	}
	var appends []sample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		appends = runOpen(ctx, 1, appendDues, func(ctx context.Context, i int) error {
			return r.appendBatch(ctx, first+i)
		})
	}()
	readSamples := runOpen(ctx, max(1, conns()-1), readDues, func(ctx context.Context, i int) error {
		return r.doRead(ctx, reads[i], (in.readsSoFar+i)%100 == 0)
	})
	wg.Wait()
	r.onSchedule("ingest appends", appends)
	r.onSchedule("ingest reads", readSamples)
	after, err := takeScrape(ctx, r.scrapes, r.gd.debug)
	if err != nil {
		return err
	}
	in.d.add(before, after)
	in.readsSoFar += len(reads)
	lat := func(ss []sample) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = ms(s.latency())
		}
		return out
	}
	appendLat, readLat := lat(appends), lat(readSamples)
	in.appendN += len(appendLat)
	in.readN += len(readLat)
	in.readP99 = append(in.readP99, quantile(readLat, 0.99))
	in.appendP99 = append(in.appendP99, quantile(appendLat, 0.99))
	in.appendP50 = append(in.appendP50, quantile(appendLat, 0.5))
	return nil
}

// bulk appends bulkLarge large batches to a new stream and seals it,
// each after a forced collection, recording graphd's CPU time per edge
// and per seal.
func (in *ingestState) bulk(ctx context.Context) error {
	r := in.r
	k, err := r.addStream(ctx, fmt.Sprintf("b%d", len(in.sealCPU)))
	if err != nil {
		return err
	}
	first := in.addBatches(bulkLarge, bulkSize, []int{k})
	if err := r.gd.collect(ctx, r.scrapes); err != nil {
		return err
	}
	cpu, err := in.burst(ctx, first, bulkLarge)
	if err != nil {
		return err
	}
	in.bulkCPU = append(in.bulkCPU, 1e9*cpu/float64(bulkLarge*bulkSize))
	if err := r.gd.collect(ctx, r.scrapes); err != nil {
		return err
	}
	cpu0, err := r.gd.cpuSeconds()
	if err != nil {
		return err
	}
	t := time.Now()
	_, err = r.cli.Graphs.Seal(ctx, r.streams[k])
	in.sealTimes = append(in.sealTimes, time.Since(t).Seconds())
	r.op("seal", err)
	if err != nil {
		return err
	}
	r.sealed[k] = true
	cpu1, err := r.gd.cpuSeconds()
	if err != nil {
		return err
	}
	in.sealCPU = append(in.sealCPU, cpu1-cpu0)
	return nil
}

func (in *ingestState) finish() {
	r := in.r
	r.record["seal_s"] = append([]float64(nil), in.sealTimes...)
	r.record["seal_cpu_s"] = append([]float64(nil), in.sealCPU...)
	r.layer["client.seal_s"] = metric{median(in.sealTimes), "s"}
	r.e2e["seal_cpu_s"] = metric{median(in.sealCPU), "s"}
	r.record["append_samples"], r.record["ingest_read_samples"] = in.appendN, in.readN
	r.record["append_p99_ms"], r.record["ingest_read_p99_ms"] = in.appendP99, in.readP99
	r.record["append_cpu_us"] = append([]float64(nil), in.appendCPU...)
	r.record["append_cpu_ns_per_edge"] = append([]float64(nil), in.bulkCPU...)
	r.e2e["append_cpu_ns_per_edge"] = metric{median(in.bulkCPU), "ns"}
	r.layer["service.append_cpu_us"] = metric{mean(in.appendCPU), "us"}
	r.layer["client.append_p50_ms"] = metric{median(in.appendP50), "ms"}
	r.layer["client.append_p99_ms"] = metric{median(in.appendP99), "ms"}
	r.layer["client.ingest_read_p99_ms"] = metric{median(in.readP99), "ms"}
	r.layer["persist.wal_fsync_mean_us"] = metric{1000 * in.d.meanMs("graphd_persist_wal_fsync_seconds"), "us"}
}

// newPhases prepares the measured phases and creates the streams.
func (r *run) newPhases(ctx context.Context) (*serveState, *analyticsState, *ingestState, error) {
	wl := r.cfg.wl
	sv := &serveState{r: r, sampleRNG: r.cfg.rng(3),
		mix: &mix{seeds: newSeedSampler(r.nodes, wl.zipf, r.cfg.rng(1)), rng: r.cfg.rng(2), weights: wl.weights}}
	an := &analyticsState{r: r, sampler: newSeedSampler(r.nodes, 0, r.cfg.rng(4))}
	in := &ingestState{r: r, batchRNG: r.cfg.rng(5), sampler: newSeedSampler(r.nodes, wl.zipf, r.cfg.rng(6))}
	for i := 0; i < numStreams; i++ {
		k, err := r.addStream(ctx, fmt.Sprintf("s%d", i))
		if err != nil {
			return nil, nil, nil, err
		}
		in.open = append(in.open, k)
	}
	return sv, an, in, nil
}
