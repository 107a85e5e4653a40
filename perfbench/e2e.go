package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"anc"
	"anc/internal/graph"
	"anc/internal/serve"
)

// A workload run is runRounds rounds of three phases in a fixed order on
// one client connection: write-path ingest, the query script, and restart
// cycles. Each phase produces its own end-to-end metrics, so every
// workload reports all of them; the workloads differ in the share of the
// run each phase gets and so in which layer does most of the work.
// Spreading each phase over several rounds samples it across the whole
// run, so a slow stretch of a shared machine does not fall on one metric
// alone. A phase always completes whole units: a batch, a script round, a
// restart cycle.
type phaseShares struct{ ingest, query, restart float64 }

var workloadShares = map[string]phaseShares{
	"ingest":    {ingest: 0.70, query: 0.15, restart: 0.15},
	"query-mix": {ingest: 0.15, query: 0.70, restart: 0.15},
	"restart":   {ingest: 0.15, query: 0.15, restart: 0.70},
}

const (
	runRounds    = 3
	setupRepeats = 3
)

// Minimum units per phase and round, whatever the phase's time share: 334
// batches a round give every run at least 1,002, of which at least 60 take
// a periodic checkpoint, and the other minimums keep every median on
// several samples.
const (
	minIngestBatches = 334
	minScriptRounds  = 10
	minRestartCycles = 1
)

// A restart cycle takes cycleCheckpoints checkpoints, logs restartTail
// write-path batches past the last, then crashes and recovers the primary
// cycleRecoveries times and bootstraps cycleFollowers fresh followers.
const (
	cycleCheckpoints = 4
	restartTail      = 8
	cycleRecoveries  = 3
	cycleFollowers   = 2
)

// opStat counts one operation kind.
type opStat struct{ attempted, failed int }

// run is one invocation's state.
type run struct {
	s     shape
	seed  int64
	in    *inputs
	work  string
	p     *server
	level int // the Θ(√n) level every query asks for

	ops      map[string]*opStat
	problems []string

	setup      []float64 // seconds per set-up
	heapMB     float64
	batchMS    []float64 // write-path batches of the ingest phase
	ckBatchMS  []float64 // those of them that also took a periodic checkpoint
	batchActs  int
	pointMS    []float64
	clustersMS []float64
	tierankMS  []float64
	queryMS    []float64 // every query kind
	ckptS      []float64
	ckptMB     []float64
	recoverS   []float64
	followerS  []float64
	dirs       int
}

func newRun(s shape, seed int64) (*run, error) {
	in, err := makeInputs(s, seed)
	if err != nil {
		return nil, err
	}
	work, err := workDir()
	if err != nil {
		return nil, err
	}
	return &run{s: s, seed: seed, in: in, work: work, ops: map[string]*opStat{}}, nil
}

// op records one attempted operation of a kind and whether it failed;
// it returns true when the operation succeeded.
func (r *run) op(kind string, err error) bool {
	st := r.ops[kind]
	if st == nil {
		st = &opStat{}
		r.ops[kind] = st
	}
	st.attempted++
	if err != nil {
		st.failed++
		r.problems = append(r.problems, fmt.Sprintf("%s: %v", kind, err))
		return false
	}
	return true
}

// check records a correctness check as an operation of kind "check/<name>".
func (r *run) check(name string, err error) { r.op("check/"+name, err) }

func (r *run) newDir(prefix string) string {
	r.dirs++
	return filepath.Join(r.work, fmt.Sprintf("%s-%d", prefix, r.dirs))
}

func (r *run) close() {
	if r.p != nil {
		r.p.destroy()
		r.p = nil
	}
	os.RemoveAll(r.work)
}

// setUp builds the primary from scratch setupRepeats times — graph to
// index, durable directory, server, client, warm-up ingest and a first
// served query — and keeps the last; setup_s is the median.
func (r *run) setUp() error {
	for i := 0; i < setupRepeats; i++ {
		if r.p != nil {
			r.p.destroy()
			r.p = nil
		}
		r.in.sent = 0
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		p, err := newPrimary(r.in, r.s, r.newDir("primary"))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.p = p
		for r.in.sent < r.s.WarmActs {
			b, err := r.in.next(warmBatch)
			if err != nil {
				return err
			}
			if err := p.cli.ActivateBatch(ctx, b); err != nil {
				return fmt.Errorf("set-up ingest: %w", err)
			}
		}
		st, err := p.cli.Stats(ctx)
		if err != nil {
			return fmt.Errorf("set-up query: %w", err)
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		r.level = int(st.SqrtLevel)
		runtime.GC()
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.heapMB = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	}
	return nil
}

// sendBatch sends one batch over the wire and returns its latency.
func (r *run) sendBatch(kind string, k int) (time.Duration, int, bool) {
	b, err := r.in.next(k)
	if err != nil {
		r.op(kind, err)
		return 0, 0, false
	}
	t0 := time.Now()
	err = r.p.cli.ActivateBatch(ctx, b)
	el := time.Since(t0)
	return el, len(b), r.op(kind, err)
}

// ingestPhase replays the stream in BatchActs batches, closed loop, with
// nothing else running, then checks what the server applied. Which batches
// took a periodic checkpoint is read in-process, from the newest
// checkpoint's index, between batches and outside their timing. After
// every second periodic checkpoint the phase times one explicit
// checkpoint: it leaves the cadence as it was, and it spreads
// checkpoint_s over the whole phase, where the restart cycles' checkpoints
// come in a few bursts that one slow stretch of a shared disk can cover.
func (r *run) ingestPhase(deadline time.Time) {
	st0, err := r.p.cli.Stats(ctx)
	if !r.op("stats", err) {
		return
	}
	d := r.p.durable()
	ck, _, _, err := d.NewestCheckpoint()
	if !r.op("newest-checkpoint", err) {
		return
	}
	sent0 := r.in.sent
	var ckAt []int
	n := 0
	for ; n < minIngestBatches || time.Now().Before(deadline); n++ {
		el, k, ok := r.sendBatch("batch", r.s.BatchActs)
		if !ok {
			break
		}
		r.batchMS = append(r.batchMS, ms(el))
		r.batchActs += k
		next, _, _, err := d.NewestCheckpoint()
		if !r.op("newest-checkpoint", err) {
			break
		}
		if next != ck {
			ck = next
			ckAt = append(ckAt, n)
			r.ckBatchMS = append(r.ckBatchMS, ms(el))
			if len(ckAt)%2 == 0 && !r.timedCheckpoint(d) {
				break
			}
		}
	}
	r.check("checkpoint-cadence", checkCadence(ckAt, n, r.s.CPEvery/r.s.BatchActs))
	st1, err := r.p.cli.Stats(ctx)
	if !r.op("stats", err) {
		return
	}
	r.check("activation-count", checkCount(st1.Activations-st0.Activations, uint64(r.in.sent-sent0)))
	err = nil
	if st1.Now != r.in.lastT() {
		err = fmt.Errorf("server time %v, last activation sent at %v", st1.Now, r.in.lastT())
	}
	r.check("network-time", err)
	r.checkActiveness()
}

// checkActiveness compares sampled edges' activeness, read in-process,
// with the benchmark's own decayed sums.
func (r *run) checkActiveness() {
	d := r.p.durable()
	es := r.in.sampleEdges(16)
	t := d.Now()
	want := expectedActiveness(r.in, es, r.s.Lambda, t)
	for i, e := range es {
		u, v := r.in.g.Endpoints(e)
		got, err := d.Activeness(int(u), int(v))
		if err == nil {
			err = checkActiveness(e, got, want[i])
		}
		r.check("activeness", err)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// The query script: one light batch, then scriptBlocks blocks of full
// Clusters, TieRank and eight point queries. Node picks come from the
// seeded generator.
const (
	scriptBlocks = 4
	tierankK     = 10
)

func (r *run) queryPhase(deadline time.Time) {
	n := r.in.g.N()
	for round := 0; round < minScriptRounds || time.Now().Before(deadline); round++ {
		if _, _, ok := r.sendBatch("light-batch", r.s.LightActs); !ok {
			return
		}
		var clusters [][]int
		var tr anc.TieRankResult
		type point struct {
			kind string
			u, v int
			ans  []int
			dist float64
		}
		var points []point
		for b := 0; b < scriptBlocks; b++ {
			t0 := time.Now()
			c, err := r.p.cli.Clusters(ctx, r.level)
			el := ms(time.Since(t0))
			if r.op("clusters", err) {
				r.clustersMS = append(r.clustersMS, el)
				r.queryMS = append(r.queryMS, el)
				clusters = c
			}
			t0 = time.Now()
			t, err := r.p.cli.TieRank(ctx, r.level, tierankK)
			el = ms(time.Since(t0))
			if r.op("tierank", err) {
				r.tierankMS = append(r.tierankMS, el)
				r.queryMS = append(r.queryMS, el)
				tr = t
			}
			for i := 0; i < 8; i++ {
				pt := point{u: r.in.rng.Intn(n), v: r.in.rng.Intn(n)}
				var err error
				t0 = time.Now()
				switch i % 4 {
				case 0, 2:
					pt.kind = "smallest-cluster-of"
					pt.ans, err = r.p.cli.SmallestClusterOf(ctx, pt.u)
				case 1:
					pt.kind = "cluster-of"
					pt.ans, err = r.p.cli.ClusterOf(ctx, pt.u, r.level)
				case 3:
					pt.kind = "estimate-distance"
					pt.dist, err = r.p.cli.EstimateDistance(ctx, pt.u, pt.v)
				}
				el = ms(time.Since(t0))
				if r.op(pt.kind, err) {
					r.pointMS = append(r.pointMS, el)
					r.queryMS = append(r.queryMS, el)
					points = append(points, pt)
				}
			}
		}
		// Checks run after the timed script, at the same state: no write
		// happens between the light batch and here.
		even, err := r.p.cli.EvenClusters(ctx, r.level)
		if !r.op("even-clusters", err) || clusters == nil {
			continue
		}
		for _, pt := range points {
			switch pt.kind {
			case "smallest-cluster-of":
				r.check("smallest-contains", checkContains(pt.u, pt.ans))
			case "cluster-of":
				r.check("cluster-of", checkClusterOf(pt.u, pt.ans, even, clusters))
			case "estimate-distance":
				r.checkDistance(pt.u, pt.v, pt.dist)
			}
		}
		if round%8 == 0 {
			r.checkClusterings(clusters, even)
			r.checkTieRank(tr)
		}
	}
}

func (r *run) checkDistance(u, v int, duv float64) {
	dvu, err1 := r.p.cli.EstimateDistance(ctx, v, u)
	dvv, err2 := r.p.cli.EstimateDistance(ctx, v, v)
	if err1 == nil && err2 == nil {
		r.check("distance", checkDistance(u, v, duv, dvu, dvv))
	} else {
		r.check("distance", fmt.Errorf("reverse queries: %v, %v", err1, err2))
	}
}

func (r *run) checkClusterings(power, even [][]int) {
	n := r.in.g.N()
	err := checkPartition(n, power)
	if err == nil {
		err = checkConnected(r.in.g, power)
	}
	r.check("clusters-partition", err)
	err = checkPartition(n, even)
	if err == nil {
		err = checkConnected(r.in.g, even)
	}
	r.check("even-partition", err)
	r.check("power-in-even", checkNested(n, power, even))
}

// checkTieRank recomputes the eigenvector from the public per-edge
// similarities, read in-process at the state the answer was computed at.
func (r *run) checkTieRank(tr anc.TieRankResult) {
	d := r.p.durable()
	if tr.Now != d.Now() {
		r.check("tierank", fmt.Errorf("TieRank computed at t=%v, network at t=%v", tr.Now, d.Now()))
		return
	}
	g := r.in.g
	var simErr error
	ref := referenceRank(g, func(e graph.EdgeID) float64 {
		u, v := g.Endpoints(e)
		s, err := d.Similarity(int(u), int(v))
		if err != nil && simErr == nil {
			simErr = err
		}
		return s
	})
	if simErr != nil {
		r.check("tierank", simErr)
		return
	}
	r.check("tierank", checkTopK(tr.Global, ref, tierankK))
}

// restartPhase runs restart cycles: checkpoint, a WAL tail, crash, Recover
// until the first served query, and a fresh follower bootstrapping over
// TCP until it serves the primary's last frame. Both must Save exactly the
// bytes the primary held before the crash.
func (r *run) restartPhase(deadline time.Time) {
	for c := 0; c < minRestartCycles || time.Now().Before(deadline); c++ {
		if !r.restartCycle() {
			return
		}
	}
}

func (r *run) restartCycle() bool {
	d := r.p.durable()
	for i := 0; i < cycleCheckpoints; i++ {
		if !r.timedCheckpoint(d) {
			return false
		}
	}
	_, path, _, err := d.NewestCheckpoint()
	if err == nil {
		var fi os.FileInfo
		if fi, err = os.Stat(path); err == nil {
			r.ckptMB = append(r.ckptMB, float64(fi.Size())/(1<<20))
		}
	}
	r.check("checkpoint-file", err)

	tailActs := 0
	for i := 0; i < restartTail; i++ {
		_, k, ok := r.sendBatch("tail-batch", r.s.BatchActs)
		if !ok {
			return false
		}
		tailActs += k
	}
	want, err := saveBytes(d)
	if !r.op("save", err) {
		return false
	}
	primaryNext := d.LoggedActivations()

	// Crash, then recover until the first served query; the recovered
	// primary replays the same checkpoint and tail every time.
	for i := 0; i < cycleRecoveries; i++ {
		dir := r.p.dir
		r.p.kill()
		r.p = nil
		runtime.GC()
		t0 := time.Now()
		rd, err := anc.Recover(dir, durableConfig(r.s))
		var p *server
		if err == nil {
			p, err = serveDurable(rd, dir, "", durableConfig(r.s))
		}
		var st serve.StatsReply
		if err == nil {
			st, err = p.cli.Stats(ctx)
		}
		el := time.Since(t0).Seconds()
		if !r.op("recover", err) {
			return false
		}
		r.p = p
		r.recoverS = append(r.recoverS, el)
		r.check("recovered-count", checkCount(st.Activations, uint64(tailActs)))
		got, err := saveBytes(rd)
		if err == nil {
			err = checkSameState("recovered primary", got, want)
		}
		r.check("recovered-state", err)
	}

	// A fresh follower in an empty directory: built from the graph like a
	// freshly started replica, then bootstrapped from the primary's
	// checkpoint and WAL tail over TCP.
	for i := 0; i < cycleFollowers; i++ {
		runtime.GC()
		fdir := r.newDir("follower")
		t0 := time.Now()
		f, err := r.bootstrapFollower(fdir, primaryNext)
		el := time.Since(t0).Seconds()
		if !r.op("follower-bootstrap", err) {
			return false
		}
		r.followerS = append(r.followerS, el)
		got, err := saveBytes(f.durable())
		if err == nil {
			err = checkSameState("bootstrapped follower", got, want)
		}
		r.check("follower-state", err)
		f.destroy()
	}
	return true
}

// timedCheckpoint takes one checkpoint of the primary in-process and
// records its time.
func (r *run) timedCheckpoint(d *anc.DurableNetwork) bool {
	t0 := time.Now()
	err := d.Checkpoint()
	el := time.Since(t0).Seconds()
	if !r.op("checkpoint", err) {
		return false
	}
	r.ckptS = append(r.ckptS, el)
	return true
}

func (r *run) bootstrapFollower(dir string, primaryNext uint64) (*server, error) {
	net, err := anc.FromGraph(r.in.g, ancConfig(r.s))
	if err != nil {
		return nil, err
	}
	fd, err := anc.NewDurable(net, dir, durableConfig(r.s))
	if err != nil {
		net.Close()
		return nil, err
	}
	f, err := serveDurable(fd, dir, r.p.addr(), durableConfig(r.s))
	if err != nil {
		return nil, err
	}
	for wait := time.Now().Add(60 * time.Second); f.node.Status().Next < primaryNext; {
		if time.Now().After(wait) {
			f.destroy()
			return nil, fmt.Errorf("follower stuck at frame %d of %d", f.node.Status().Next, primaryNext)
		}
		time.Sleep(200 * time.Microsecond)
	}
	st, err := f.cli.Stats(ctx)
	if err == nil && st.Now != r.p.durable().Now() {
		err = fmt.Errorf("follower serves t=%v, primary t=%v", st.Now, r.p.durable().Now())
	}
	if err != nil {
		f.destroy()
		return nil, err
	}
	return f, nil
}

// e2eMetrics are the end-to-end figures of one run, by name.
func (r *run) e2eMetrics() []metric {
	batchS := sum(r.batchMS) / 1e3
	qS := sum(r.queryMS) / 1e3
	return []metric{
		{"setup_s", median(r.setup), "s"},
		{"heap_mb", r.heapMB, "MB"},
		{"ingest_acts_per_s", float64(r.batchActs) / batchS, "1/s"},
		{"batch_p50_ms", median(r.batchMS), "ms"},
		{"checkpoint_batch_p50_ms", median(r.ckBatchMS), "ms"},
		{"queries_per_s", float64(len(r.queryMS)) / qS, "1/s"},
		{"point_query_p50_ms", median(r.pointMS), "ms"},
		{"clusters_query_p50_ms", median(r.clustersMS), "ms"},
		{"tierank_query_p50_ms", median(r.tierankMS), "ms"},
		{"query_p99_ms", quantile(r.queryMS, 0.99), "ms"},
		{"checkpoint_s", median(r.ckptS), "s"},
		{"checkpoint_mb", median(r.ckptMB), "MB"},
		{"recover_s", median(r.recoverS), "s"},
		{"follower_bootstrap_s", median(r.followerS), "s"},
	}
}

// sampleCounts lists how many samples each timed metric rests on.
func (r *run) sampleCounts() map[string]int {
	return map[string]int{
		"setup": len(r.setup), "batch": len(r.batchMS), "ckpt-batch": len(r.ckBatchMS), "point": len(r.pointMS),
		"clusters": len(r.clustersMS), "tierank": len(r.tierankMS), "query": len(r.queryMS),
		"checkpoint": len(r.ckptS), "recover": len(r.recoverS), "follower": len(r.followerS),
	}
}

func sortedKinds(m map[string]*opStat) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
