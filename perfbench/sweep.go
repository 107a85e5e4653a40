package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"anc"
	"anc/internal/cluster"
	"anc/internal/core"
	"anc/internal/graph"
	"anc/internal/pyramid"
)

// The reference scaling sweep is not one of the benchmark's workloads: it
// repeats set-up, a short ingest and a restart (Save, Load) at n ≈ 4k, 16k
// and 65k in-process, and fits the growth exponent of each per-layer cost
// in n. Lemma 7 of the paper predicts the index build to grow about 5.4×
// from 4k to 16k nodes.

var sweepSizes = []int{4096, 16384, 65536}

const sweepBatches = 100

type sweepRow struct {
	n, m                               int
	setupS, buildS, saveMS, loadS      float64
	powerMS, updateMS, updateTrackedMS float64
}

func runSweep(seed int64) error {
	var rows []sweepRow
	for _, n := range sweepSizes {
		row, err := sweepAt(n, seed)
		if err != nil {
			return fmt.Errorf("n=%d: %w", n, err)
		}
		rows = append(rows, row)
		fmt.Printf("# n=%d m=%d setup %.3fs build %.3fs save %.1fms load %.3fs power %.2fms update %.3fms (tracked %.3fms)\n",
			row.n, row.m, row.setupS, row.buildS, row.saveMS, row.loadS, row.powerMS, row.updateMS, row.updateTrackedMS)
	}
	fmt.Printf("# %-26s %10s %10s %10s %9s %9s\n", "metric", "n=4k", "n=16k", "n=65k", "exponent", "16k/4k")
	for _, c := range []struct {
		name string
		get  func(sweepRow) float64
	}{
		{"pyramid.build_s", func(r sweepRow) float64 { return r.buildS }},
		{"core.load_s", func(r sweepRow) float64 { return r.loadS }},
		{"core.save_ms", func(r sweepRow) float64 { return r.saveMS }},
		{"cluster.power_ms", func(r sweepRow) float64 { return r.powerMS }},
		{"pyramid.update_ms", func(r sweepRow) float64 { return r.updateMS }},
		{"pyramid.update_tracked_ms", func(r sweepRow) float64 { return r.updateTrackedMS }},
	} {
		xs, ys := make([]float64, len(rows)), make([]float64, len(rows))
		for i, r := range rows {
			xs[i], ys[i] = float64(r.n), c.get(r)
		}
		fmt.Printf("  %-26s %10.4g %10.4g %10.4g %9.2f %9.2f\n", c.name, ys[0], ys[1], ys[2], logSlope(xs, ys), ys[1]/ys[0])
	}
	fmt.Println("# Lemma 7 predicts pyramid.build_s to grow about 5.4x from n=4k to n=16k")
	return nil
}

// logSlope is the least-squares slope of log y against log x: the growth
// exponent b of y ∝ x^b.
func logSlope(xs, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i := range xs {
		x, y := math.Log(xs[i]), math.Log(ys[i])
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	k := float64(len(xs))
	return (k*sxy - sx*sy) / (k*sxx - sx*sx)
}

func sweepAt(n int, seed int64) (sweepRow, error) {
	s := defaultShape()
	s.N = n
	s.StreamActs = s.WarmActs + sweepBatches*s.BatchActs
	in, err := makeInputs(s, seed)
	if err != nil {
		return sweepRow{}, err
	}
	row := sweepRow{n: in.g.N(), m: in.g.M()}
	runtime.GC()
	t0 := time.Now()
	net, err := anc.FromGraph(in.g, ancConfig(s))
	if err != nil {
		return row, err
	}
	row.setupS = time.Since(t0).Seconds()
	warm, err := in.next(s.WarmActs)
	if err != nil {
		return row, err
	}
	if err := net.ActivateBatch(warm); err != nil {
		return row, err
	}
	var snap bytes.Buffer
	var saves []float64
	for i := 0; i < 3; i++ {
		snap.Reset()
		t0 = time.Now()
		if err := net.Save(&snap); err != nil {
			return row, err
		}
		saves = append(saves, ms(time.Since(t0)))
	}
	net.Close()
	row.saveMS = median(saves)

	var loads []float64
	var src *core.Network
	for i := 0; i < 3; i++ {
		runtime.GC()
		t0 = time.Now()
		if _, err := anc.Load(bytes.NewReader(snap.Bytes())); err != nil {
			return row, err
		}
		loads = append(loads, time.Since(t0).Seconds())
	}
	row.loadS = median(loads)
	if src, err = core.Load(bytes.NewReader(snap.Bytes())); err != nil {
		return row, err
	}
	defer src.Close()
	src.Clock().SetRescaleEvery(0)

	var builds []float64
	var plain, tracked *pyramid.Index
	for _, tw := range []**pyramid.Index{&plain, &tracked} {
		runtime.GC()
		t0 = time.Now()
		if *tw, err = newTwin(src); err != nil {
			return row, err
		}
		builds = append(builds, time.Since(t0).Seconds())
	}
	defer plain.Close()
	defer tracked.Close()
	tracked.EnableVoteTracking()
	row.buildS = median(builds)

	level := pyramid.SqrtLevel(in.g.N())
	var powers []float64
	for i := 0; i < 5; i++ {
		t0 = time.Now()
		cluster.Power(src.Index(), level)
		powers = append(powers, ms(time.Since(t0)))
	}
	row.powerMS = median(powers)

	var upd, updT []float64
	for i := 0; i < sweepBatches; i++ {
		b, err := in.next(s.BatchActs)
		if err != nil {
			return row, err
		}
		acts, edges := coreBatch(in.g, b)
		if err := src.ActivateBatch(acts); err != nil {
			return row, err
		}
		ws := make([]float64, len(edges))
		for i, e := range edges {
			ws[i] = src.Index().Weight(e)
		}
		t0 = time.Now()
		plain.UpdateEdges(edges, ws)
		upd = append(upd, ms(time.Since(t0)))
		t0 = time.Now()
		tracked.UpdateEdges(edges, ws)
		updT = append(updT, ms(time.Since(t0)))
	}
	if err := sameVotes(tracked, src.Index(), in.g.M()); err != nil {
		return row, err
	}
	row.updateMS, row.updateTrackedMS = median(upd), median(updT)
	return row, nil
}

// newTwin builds a fresh index over src's graph from src's current
// weights and seed sets: the same index src holds, independent of it.
func newTwin(src *core.Network) (*pyramid.Index, error) {
	ix := src.Index()
	return pyramid.BuildWithSeeds(src.Graph(), ix.Weight, ix.Config(), ix.SeedSets())
}

// coreBatch converts a wire batch to core activations and lists its
// distinct edges in first-occurrence order — the order the core hands
// its index in UpdateEdges.
func coreBatch(g *graph.Graph, b []anc.Activation) ([]core.Activation, []graph.EdgeID) {
	acts := make([]core.Activation, len(b))
	var edges []graph.EdgeID
	seen := make(map[graph.EdgeID]bool, len(b))
	for i, a := range b {
		e := g.FindEdge(graph.NodeID(a.U), graph.NodeID(a.V))
		acts[i] = core.Activation{Edge: e, T: a.T}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	return acts, edges
}
