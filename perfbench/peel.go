package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"anc"
	"anc/internal/analytics"
	"anc/internal/cluster"
	"anc/internal/core"
	"anc/internal/graph"
	"anc/internal/obs"
	"anc/internal/pyramid"
	"anc/internal/serve"
	"anc/internal/wal"
)

// The traced run peels the stack layer by layer. The write path is
// replayed batch by batch into a fresh instance of each layer's public
// entry point — serve over TCP, anc.DurableNetwork, wal.Writer,
// core.Network with and without its caches, and twin pyramid indexes — all
// starting from the same state, so the difference between two adjacent
// layers is that layer's own time. The read and restart paths time each
// layer's entry point beside the wire call it serves. Every call is a span
// of the benchmark's own recorder; the per-layer metrics are read back
// from the spans.

// peelSizes are the traced run's round counts; the workload shifts the
// weight between them the way its phase shares do.
type peelSizes struct{ batches, rounds, restores int }

func sizesFor(sh phaseShares, total time.Duration) peelSizes {
	// About 60 ms of replay work per batch over all layers, 150 ms per
	// script round with its in-process twins, 600 ms per restore cycle.
	sec := total.Seconds()
	return peelSizes{
		batches:  max(100, int(sh.ingest*sec/0.06)),
		rounds:   max(20, int(sh.query*sec/0.15)),
		restores: max(3, int(sh.restart*sec/0.6)),
	}
}

type peeler struct {
	*run
	rc   *recorder
	snap []byte // the primary's Save at the start of the write-path peel
	cfg  anc.DurableConfig
}

func (r *run) peel(workload string, sh phaseShares, total time.Duration) ([]metric, error) {
	pl := &peeler{run: r, rc: newRecorder(fmt.Sprintf("%s-seed%d-pid%d", workload, r.seed, os.Getpid())), cfg: durableConfig(r.s)}
	sz := sizesFor(sh, total)
	batches := make([][]anc.Activation, sz.batches)
	for i := range batches {
		b, err := r.in.next(r.s.BatchActs)
		if err != nil {
			return nil, err
		}
		batches[i] = b
	}
	var err error
	if pl.snap, err = saveBytes(r.p.durable()); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	if err := pl.writePath(batches, m); err != nil {
		return nil, err
	}
	if err := pl.readPath(sz.rounds, m); err != nil {
		return nil, err
	}
	if err := pl.restartPath(sz.restores, m); err != nil {
		return nil, err
	}
	path, err := pl.rc.write(filepath.Dir(r.work))
	if err != nil {
		return nil, err
	}
	fmt.Printf("# spans: %d written to %s\n", len(pl.rc.spans), path)
	return perLayer(m), nil
}

// perLayerNames is the per-layer metric set, in report order, with units.
var perLayerNames = []struct{ name, unit string }{
	{"serve.batch_self_ms", "ms"}, {"serve.point_self_ms", "ms"}, {"serve.clusters_reply_kb", "KB"},
	{"anc.durable_batch_ms", "ms"}, {"anc.point_query_ms", "ms"}, {"anc.clusters_hit_ms", "ms"}, {"anc.tierank_hit_ms", "ms"},
	{"wal.append_ms", "ms"}, {"wal.bytes_per_act", "B"}, {"wal.replay_s", "s"},
	{"core.apply_ms", "ms"}, {"core.apply_bare_ms", "ms"}, {"core.settle_ms", "ms"}, {"core.save_ms", "ms"}, {"core.load_s", "s"},
	{"pyramid.build_s", "s"}, {"pyramid.update_ms", "ms"}, {"pyramid.update_tracked_ms", "ms"}, {"pyramid.partitions_per_batch", "count"},
	{"cluster.power_ms", "ms"}, {"cluster.cache_hits", "count"}, {"cluster.cache_misses", "count"}, {"cluster.cache_invalidations", "count"},
	{"analytics.rank_compute_ms", "ms"}, {"analytics.topk_ms", "ms"}, {"analytics.rank_hits", "count"}, {"analytics.rank_misses", "count"},
	{"repl.snapshot_mb", "MB"}, {"repl.restore_s", "s"}, {"repl.catchup_acts_per_s", "1/s"},
}

func perLayer(m map[string]float64) []metric {
	out := make([]metric, len(perLayerNames))
	for i, n := range perLayerNames {
		out[i] = metric{n.name, m[n.name], n.unit}
	}
	return out
}

// pairedMedian is the median over i of a[i] - b[i].
func pairedMedian(a, b []float64) float64 {
	d := make([]float64, min(len(a), len(b)))
	for i := range d {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

// writePath replays the batches through each layer in turn.
func (pl *peeler) writePath(batches [][]anc.Activation, m map[string]float64) error {
	rc := pl.rc
	acts := 0
	for _, b := range batches {
		acts += len(b)
	}

	// serve: the wire round trip. Half the batches are sent without a
	// span, timed with the same clock reads, for the tracing overhead; the
	// halves swap every 16 batches so checkpoint batches fall in both.
	root := rc.start("peel.serve", 0)
	wireMS := make([]float64, len(batches))
	var tracedMS, untracedMS []float64
	for i, b := range batches {
		var err error
		if (i+i/16)%2 == 0 {
			wireMS[i] = ms(rc.timed("serve.batch", root, func() { err = pl.p.cli.ActivateBatch(ctx, b) }))
			tracedMS = append(tracedMS, wireMS[i])
		} else {
			t0 := time.Now()
			err = pl.p.cli.ActivateBatch(ctx, b)
			wireMS[i] = ms(time.Since(t0))
			untracedMS = append(untracedMS, wireMS[i])
		}
		if !pl.op("batch", err) {
			return err
		}
	}
	rc.end(root)
	rate := func(xs []float64) float64 { return float64(len(xs)*pl.s.BatchActs) / sum(xs) * 1e3 }
	fmt.Printf("# tracing overhead: batch p50 %.4f ms traced vs %.4f ms untraced; %.0f vs %.0f acts/s\n",
		median(tracedMS), median(untracedMS), rate(tracedMS), rate(untracedMS))

	// anc: the durable facade in-process, same batches, same start state.
	net, err := anc.Load(bytes.NewReader(pl.snap))
	if err != nil {
		return err
	}
	ddir := pl.newDir("peel-durable")
	d, err := anc.NewDurable(net, ddir, pl.cfg)
	if err != nil {
		return err
	}
	root = rc.start("peel.anc", 0)
	durableMS := make([]float64, len(batches))
	for i, b := range batches {
		var err error
		durableMS[i] = ms(rc.timed("anc.durable_batch", root, func() { err = d.ActivateBatch(b) }))
		pl.op("durable-batch", err)
	}
	rc.end(root)
	d.Close()
	os.RemoveAll(ddir)
	m["serve.batch_self_ms"] = pairedMedian(wireMS, durableMS)
	m["anc.durable_batch_ms"] = median(durableMS)

	// wal: one frame per batch, in the durable layer's record format.
	wdir := pl.newDir("peel-wal")
	w, err := wal.OpenWriter(wdir, 0, wal.Options{Sync: pl.cfg.Sync, SegmentSize: pl.cfg.SegmentSize})
	if err != nil {
		return err
	}
	root = rc.start("peel.wal", 0)
	for _, b := range batches {
		frame := encodeFrame(b)
		var err error
		rc.timed("wal.append", root, func() { _, err = w.Append(frame) })
		pl.op("wal-append", err)
	}
	rc.end(root)
	if err := w.Close(); err != nil {
		return err
	}
	m["wal.append_ms"] = median(rc.durations("wal.append"))
	m["wal.bytes_per_act"] = float64(dirBytes(wdir)) / float64(acts)
	os.RemoveAll(wdir)

	// core and pyramid.
	return pl.corePeel(batches, m)
}

// encodeFrame is the durable layer's WAL record: 16 bytes per activation.
func encodeFrame(b []anc.Activation) []byte {
	frame := make([]byte, 16*len(b))
	for i, a := range b {
		rec := frame[16*i:]
		binary.LittleEndian.PutUint32(rec[0:4], uint32(a.U))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(a.V))
		binary.LittleEndian.PutUint64(rec[8:16], math.Float64bits(a.T))
	}
	return frame
}

// decodeFrame is encodeFrame's inverse.
func decodeFrame(p []byte) ([]anc.Activation, error) {
	if len(p) == 0 || len(p)%16 != 0 {
		return nil, fmt.Errorf("frame of %d bytes", len(p))
	}
	out := make([]anc.Activation, len(p)/16)
	for i := range out {
		rec := p[16*i:]
		out[i] = anc.Activation{U: int(binary.LittleEndian.Uint32(rec[0:4])), V: int(binary.LittleEndian.Uint32(rec[4:8])),
			T: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:16]))}
	}
	return out, nil
}

func dirBytes(dir string) int64 {
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// corePeel replays the batches into core networks loaded from the same
// snapshot — as served (clustering cache and analytics on), bare, and a
// third whose weight changes feed two twin pyramid indexes.
func (pl *peeler) corePeel(batches [][]anc.Activation, m map[string]float64) error {
	rc := pl.rc
	load := func() (*core.Network, error) { return core.Load(bytes.NewReader(pl.snap)) }
	served, err := load()
	if err != nil {
		return err
	}
	served.EnableClusterCache()
	served.EnableAnalytics()
	bare, err := load()
	if err != nil {
		return err
	}
	// The twins' source runs without the periodic rescale, which would
	// fold a factor into every weight after the repair and could not be
	// replayed into the twins bit for bit.
	src, err := load()
	if err != nil {
		return err
	}
	src.Clock().SetRescaleEvery(0)
	src.EnableClusterCache()
	six := src.Index()
	var plain, tracked *pyramid.Index
	root := rc.start("peel.pyramid.build", 0)
	for _, tw := range []**pyramid.Index{&plain, &tracked} {
		var err error
		rc.timed("pyramid.build", root, func() { *tw, err = newTwin(src) })
		if err != nil {
			return err
		}
	}
	rc.end(root)
	m["pyramid.build_s"] = median(rc.durations("pyramid.build")) / 1e3
	reg := obs.NewRegistry()
	plain.Instrument(reg)
	tracked.EnableVoteTracking()
	defer func() {
		served.Close()
		bare.Close()
		src.Close()
		plain.Close()
		tracked.Close()
	}()

	g := served.Graph()
	root = rc.start("peel.core", 0)
	var repaired []float64
	for _, b := range batches {
		acts, edges := coreBatch(g, b)
		var e1, e2 error
		rc.timed("core.apply", root, func() { e1 = served.ActivateBatch(acts) })
		rc.timed("core.apply_bare", root, func() { e2 = bare.ActivateBatch(acts) })
		pl.op("core-apply", e1)
		pl.op("core-apply-bare", e2)
		if err := src.ActivateBatch(acts); !pl.op("core-apply-source", err) {
			continue
		}
		ws := make([]float64, len(edges))
		for i, e := range edges {
			ws[i] = six.Weight(e)
		}
		before := reg.Snapshot()["anc_pyramid_repaired_partitions_total"]
		rc.timed("pyramid.update", root, func() { plain.UpdateEdges(edges, ws) })
		rc.timed("pyramid.update_tracked", root, func() { tracked.UpdateEdges(edges, ws) })
		repaired = append(repaired, reg.Snapshot()["anc_pyramid_repaired_partitions_total"]-before)
		pl.check("twin-votes", sameVotes(tracked, six, g.M()))
	}
	rc.end(root)
	m["core.apply_ms"] = median(rc.durations("core.apply"))
	m["core.apply_bare_ms"] = median(rc.durations("core.apply_bare"))
	m["pyramid.update_ms"] = median(rc.durations("pyramid.update"))
	m["pyramid.update_tracked_ms"] = median(rc.durations("pyramid.update_tracked"))
	m["core.settle_ms"] = pairedMedian(rc.durations("core.apply_bare"), rc.durations("pyramid.update"))
	m["pyramid.partitions_per_batch"] = sum(repaired) / float64(len(repaired))

	// The caches must not change the state: cache-on and bare Save alike.
	var a, c bytes.Buffer
	err = served.Save(&a)
	if err == nil {
		err = bare.Save(&c)
	}
	if err == nil {
		err = checkSameState("cache-on core", a.Bytes(), c.Bytes())
	}
	pl.check("cached-uncached-state", err)

	root = rc.start("peel.core.save", 0)
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		var err error
		rc.timed("core.save", root, func() { err = served.Save(&buf) })
		pl.op("core-save", err)
	}
	rc.end(root)
	m["core.save_ms"] = median(rc.durations("core.save"))

	// Read-path layers below anc, on the cache-on replica.
	level := pl.level
	root = rc.start("peel.cluster", 0)
	for i := 0; i < 5; i++ {
		rc.timed("cluster.power", root, func() { cluster.Power(served.Index(), level) })
		rc.timed("analytics.rank_compute", root, func() {
			analytics.ComputeRank(g, served.Similarity().Anchored, served.Clock().Now(), analytics.DefaultRankConfig())
		})
	}
	r := served.TieRank()
	cl := served.Clusters(level)
	for i := 0; i < 20; i++ {
		rc.timed("analytics.topk", root, func() {
			analytics.TopK(r.Scores, tierankK)
			analytics.TopKGroups(r.Scores, cl, tierankK)
		})
	}
	rc.end(root)
	m["cluster.power_ms"] = median(rc.durations("cluster.power"))
	m["analytics.rank_compute_ms"] = median(rc.durations("analytics.rank_compute"))
	m["analytics.topk_ms"] = median(rc.durations("analytics.topk"))
	return nil
}

// sameVotes compares every edge's vote count at every level.
func sameVotes(a, b *pyramid.Index, m int) error {
	for l := 1; l <= a.Levels(); l++ {
		for e := 0; e < m; e++ {
			if va, vb := a.Votes(graph.EdgeID(e), l), b.Votes(graph.EdgeID(e), l); va != vb {
				return fmt.Errorf("edge %d level %d: twin index votes %d, core index %d", e, l, va, vb)
			}
		}
	}
	return nil
}

// readPath runs query-script rounds on the primary, timing each wire call
// and, right after it, the same call in-process.
func (pl *peeler) readPath(rounds int, m map[string]float64) error {
	rc := pl.rc
	d := pl.p.durable()
	n := pl.in.g.N()
	var hits, misses, inval, rhits, rmiss uint64
	// count adds the cache counter deltas of one wire call.
	count := func(f func()) {
		h0, m0, i0 := d.CacheStats()
		rh0, rm0, _ := d.RankStats()
		f()
		h1, m1, i1 := d.CacheStats()
		rh1, rm1, _ := d.RankStats()
		hits, misses, inval = hits+h1-h0, misses+m1-m0, inval+i1-i0
		rhits, rmiss = rhits+rh1-rh0, rmiss+rm1-rm0
	}
	var wirePoint, localPoint, replyKB []float64
	root := rc.start("peel.read", 0)
	for round := 0; round < rounds; round++ {
		var err error
		count(func() {
			b, e := pl.in.next(pl.s.LightActs)
			if err = e; err == nil {
				err = pl.p.cli.ActivateBatch(ctx, b)
			}
		})
		if !pl.op("light-batch", err) {
			return err
		}
		for blk := 0; blk < scriptBlocks; blk++ {
			var c [][]int
			count(func() { rc.timed("serve.clusters", root, func() { c, err = pl.p.cli.Clusters(ctx, pl.level) }) })
			if pl.op("clusters", err) {
				replyKB = append(replyKB, float64(len(serve.EncodeResponse(serve.OpClusters, &serve.Response{Clusters: c})))/1024)
			}
			h0, _, _ := d.CacheStats()
			rc.timed("anc.clusters_hit", root, func() { d.Clusters(pl.level) })
			if h1, _, _ := d.CacheStats(); h1 != h0+1 {
				pl.check("in-process-cache-hit", fmt.Errorf("Clusters right after the wire call missed the cache"))
			} else {
				pl.check("in-process-cache-hit", nil)
			}
			count(func() { rc.timed("serve.tierank", root, func() { _, err = pl.p.cli.TieRank(ctx, pl.level, tierankK) }) })
			pl.op("tierank", err)
			rc.timed("anc.tierank_hit", root, func() { d.TieRank(pl.level, tierankK) })
			for i := 0; i < 8; i++ {
				u, v := pl.in.rng.Intn(n), pl.in.rng.Intn(n)
				var wire, local time.Duration
				count(func() {
					switch i % 4 {
					case 0, 2:
						wire = rc.timed("serve.point", root, func() { _, err = pl.p.cli.SmallestClusterOf(ctx, u) })
						local = rc.timed("anc.point_query", root, func() { d.SmallestClusterOf(u) })
					case 1:
						wire = rc.timed("serve.point", root, func() { _, err = pl.p.cli.ClusterOf(ctx, u, pl.level) })
						local = rc.timed("anc.point_query", root, func() { d.ClusterOf(u, pl.level) })
					case 3:
						wire = rc.timed("serve.point", root, func() { _, err = pl.p.cli.EstimateDistance(ctx, u, v) })
						local = rc.timed("anc.point_query", root, func() { d.EstimateDistance(u, v) })
					}
				})
				if pl.op("point", err) {
					wirePoint = append(wirePoint, ms(wire))
					localPoint = append(localPoint, ms(local))
				}
			}
		}
	}
	rc.end(root)
	m["serve.point_self_ms"] = pairedMedian(wirePoint, localPoint)
	m["serve.clusters_reply_kb"] = median(replyKB)
	m["anc.point_query_ms"] = median(localPoint)
	m["anc.clusters_hit_ms"] = median(rc.durations("anc.clusters_hit"))
	m["anc.tierank_hit_ms"] = median(rc.durations("anc.tierank_hit"))
	m["cluster.cache_hits"] = float64(hits)
	m["cluster.cache_misses"] = float64(misses)
	m["cluster.cache_invalidations"] = float64(inval)
	m["analytics.rank_hits"] = float64(rhits)
	m["analytics.rank_misses"] = float64(rmiss)
	return nil
}

// restartPath checkpoints the primary, logs a WAL tail over the wire, and
// times the pieces of recovery and replication bootstrap against them.
func (pl *peeler) restartPath(restores int, m map[string]float64) error {
	rc := pl.rc
	d := pl.p.durable()
	if err := d.Checkpoint(); !pl.op("checkpoint", err) {
		return err
	}
	tailActs := 0
	for i := 0; i < restartTail; i++ {
		_, k, ok := pl.sendBatch("tail-batch", pl.s.BatchActs)
		if !ok {
			return fmt.Errorf("tail batch failed")
		}
		tailActs += k
	}
	idx, path, _, err := d.NewestCheckpoint()
	if err != nil {
		return err
	}
	snap, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	want, err := saveBytes(d)
	if err != nil {
		return err
	}
	m["repl.snapshot_mb"] = float64(len(snap)) / (1 << 20)

	// The tail as a follower receives it, and its decode-only replay.
	var frames [][]byte
	root := rc.start("peel.restart", 0)
	for i := 0; i < 5; i++ {
		frames = frames[:0]
		var err error
		rc.timed("wal.replay", root, func() {
			_, err = wal.Replay(pl.p.dir, idx, func(_ uint64, p []byte) error {
				if _, err := decodeFrame(p); err != nil {
					return err
				}
				frames = append(frames, append([]byte(nil), p...))
				return nil
			})
		})
		pl.op("wal-replay", err)
	}
	if len(frames) != restartTail {
		pl.check("wal-tail", fmt.Errorf("replayed %d tail frames, logged %d", len(frames), restartTail))
	}
	m["wal.replay_s"] = median(rc.durations("wal.replay")) / 1e3

	for i := 0; i < restores; i++ {
		runtime.GC()
		var err error
		rc.timed("core.load", root, func() { _, err = anc.Load(bytes.NewReader(snap)) })
		pl.op("load", err)
	}
	m["core.load_s"] = median(rc.durations("core.load")) / 1e3

	// Follower bootstrap pieces: restore from the shipped snapshot, then
	// apply the tail frames.
	var catchup []float64
	for i := 0; i < restores; i++ {
		fdir := pl.newDir("peel-restore")
		runtime.GC()
		var fd *anc.DurableNetwork
		var err error
		rc.timed("repl.restore", root, func() { fd, err = anc.RestoreDurable(snap, idx, fdir, pl.cfg) })
		if !pl.op("restore", err) {
			continue
		}
		el := rc.timed("repl.catchup", root, func() {
			for j, f := range frames {
				if err = fd.ApplyFrame(idx+uint64(j), f); err != nil {
					return
				}
			}
		})
		if pl.op("apply-frames", err) {
			catchup = append(catchup, float64(tailActs)/el.Seconds())
			got, err := saveBytes(fd)
			if err == nil {
				err = checkSameState("restored follower", got, want)
			}
			pl.check("restored-state", err)
		}
		fd.Close()
		os.RemoveAll(fdir)
	}
	rc.end(root)
	m["repl.restore_s"] = median(rc.durations("repl.restore")) / 1e3
	m["repl.catchup_acts_per_s"] = median(catchup)
	return nil
}
