package main

import (
	"math"
	"math/rand"
	"testing"

	"anc"
	"anc/internal/graph"
	"anc/internal/pyramid"
)

// Each check must pass on a correct answer and fail on a corrupted one.

// pathGraph is 0-1-2-3-4-5 plus the chord 0-2, with edge IDs in
// insertion order after merging.
func pathGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func mustPass(t *testing.T, name string, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s rejected a correct answer: %v", name, err)
	}
}

func mustFail(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s accepted a corrupted answer", name)
	}
}

func TestCheckCount(t *testing.T) {
	mustPass(t, "count", checkCount(640, 640))
	mustFail(t, "count", checkCount(639, 640))
}

func TestCheckCadence(t *testing.T) {
	mustPass(t, "cadence", checkCadence([]int{3, 19, 35}, 40, 16))
	mustPass(t, "cadence", checkCadence(nil, 10, 16))
	mustFail(t, "cadence", checkCadence([]int{3, 20, 36}, 40, 16)) // a gap of 17
	mustFail(t, "cadence", checkCadence([]int{3, 35}, 40, 16))     // a missed checkpoint
	mustFail(t, "cadence", checkCadence([]int{19, 35}, 40, 16))    // none in the first interval
	mustFail(t, "cadence", checkCadence([]int{3, 19}, 40, 16))     // none in the last
	mustFail(t, "cadence", checkCadence(nil, 40, 16))
}

func TestCheckActiveness(t *testing.T) {
	in := &inputs{
		stream: []anc.Activation{{U: 0, V: 1, T: 1}, {U: 1, V: 2, T: 2}, {U: 0, V: 1, T: 3}},
		edgeOf: []graph.EdgeID{0, 1, 0},
		sent:   3,
	}
	const lambda, now = 0.1, 5.0
	want := expectedActiveness(in, []graph.EdgeID{0, 1, 2}, lambda, now)
	exact := []float64{
		math.Exp(-lambda*now) + math.Exp(-lambda*(now-1)) + math.Exp(-lambda*(now-3)),
		math.Exp(-lambda*now) + math.Exp(-lambda*(now-2)),
		math.Exp(-lambda * now),
	}
	for i := range exact {
		mustPass(t, "activeness", checkActiveness(graph.EdgeID(i), want[i], exact[i]))
	}
	mustFail(t, "activeness", checkActiveness(0, want[0]*(1+1e-6), exact[0]))
	mustFail(t, "activeness", checkActiveness(0, math.NaN(), exact[0]))
}

func TestCheckPartition(t *testing.T) {
	mustPass(t, "partition", checkPartition(6, [][]int{{0, 1, 2}, {3}, {4, 5}}))
	mustFail(t, "partition", checkPartition(6, [][]int{{0, 1, 2}, {3}, {4}}))       // node 5 missing
	mustFail(t, "partition", checkPartition(6, [][]int{{0, 1, 2}, {2, 3}, {4, 5}})) // node 2 twice
	mustFail(t, "partition", checkPartition(6, [][]int{{0, 1, 2, 6}, {3}, {4, 5}})) // out of range
	mustFail(t, "partition", checkPartition(6, [][]int{{0, 1, 2, 3, 4, 5}, {}}))    // empty cluster
}

func TestCheckConnected(t *testing.T) {
	g := pathGraph(t)
	mustPass(t, "connected", checkConnected(g, [][]int{{0, 1, 2}, {3, 4, 5}}))
	mustFail(t, "connected", checkConnected(g, [][]int{{0, 3}, {1, 2, 4, 5}}))
}

func TestCheckNested(t *testing.T) {
	even := [][]int{{0, 1, 2}, {3, 4, 5}}
	mustPass(t, "nested", checkNested(6, [][]int{{0, 1}, {2}, {3, 4, 5}}, even))
	mustFail(t, "nested", checkNested(6, [][]int{{0, 1}, {2, 3}, {4, 5}}, even))
}

func TestCheckClusterOf(t *testing.T) {
	even := [][]int{{0, 1, 2}, {3, 4, 5}}
	power := [][]int{{0, 1}, {2}, {3, 4, 5}}
	mustPass(t, "cluster-of", checkClusterOf(1, []int{2, 0, 1}, even, power))
	mustFail(t, "cluster-of", checkClusterOf(1, []int{0, 1}, even, power))
	mustFail(t, "cluster-of", checkClusterOf(1, []int{0, 1, 3}, even, power))
	// A ClusterOf answer that matches a corrupted even clustering still
	// fails when it misses part of v's power cluster.
	mustFail(t, "cluster-of", checkClusterOf(1, []int{1, 2}, [][]int{{1, 2}, {0, 3, 4, 5}}, power))
}

func TestCheckContains(t *testing.T) {
	mustPass(t, "contains", checkContains(3, []int{2, 3}))
	mustFail(t, "contains", checkContains(3, []int{2, 4}))
	mustFail(t, "contains", checkContains(3, nil))
}

func TestCheckDistance(t *testing.T) {
	mustPass(t, "distance", checkDistance(1, 2, 0.5, 0.5, 0))
	mustPass(t, "distance", checkDistance(1, 2, math.Inf(1), math.Inf(1), 0))
	mustFail(t, "distance", checkDistance(1, 2, 0.5, 0.6, 0))
	mustFail(t, "distance", checkDistance(1, 2, -0.5, -0.5, 0))
	mustFail(t, "distance", checkDistance(1, 2, 0.5, 0.5, 1e-3))
	mustFail(t, "distance", checkDistance(1, 2, math.NaN(), math.NaN(), 0))
}

// TestReferenceRankStar checks the reference iteration against the
// closed form on a star with unit weights: the dominant eigenvector puts
// 1/√2 on the hub and 1/√(2(n-1)) on each leaf.
func TestReferenceRankStar(t *testing.T) {
	const n = 9
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		if err := b.AddEdge(0, graph.NodeID(v)); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	ref := referenceRank(g, func(graph.EdgeID) float64 { return 1 })
	if math.Abs(ref[0]-1/math.Sqrt2) > 1e-10 {
		t.Fatalf("hub score %v, want %v", ref[0], 1/math.Sqrt2)
	}
	for v := 1; v < n; v++ {
		if want := 1 / math.Sqrt(2*(n-1)); math.Abs(ref[v]-want) > 1e-10 {
			t.Fatalf("leaf %d score %v, want %v", v, ref[v], want)
		}
	}
}

func TestCheckTopK(t *testing.T) {
	ref := []float64{0.1, 0.5, 0.3, 0.7, 0.3 + 1e-9}
	good := []anc.RankEntry{{Node: 3, Score: 0.7}, {Node: 1, Score: 0.5}, {Node: 4, Score: 0.3 + 1e-9}}
	mustPass(t, "topk", checkTopK(good, ref, 3))
	// Node 2 ties node 4 within the tolerance, so either may be listed.
	mustPass(t, "topk", checkTopK([]anc.RankEntry{{Node: 3, Score: 0.7}, {Node: 1, Score: 0.5}, {Node: 2, Score: 0.3}}, ref, 3))
	mustFail(t, "topk", checkTopK(good[:2], ref, 3))                                                                              // too short
	mustFail(t, "topk", checkTopK([]anc.RankEntry{{Node: 1, Score: 0.5}, {Node: 3, Score: 0.7}, {Node: 2, Score: 0.3}}, ref, 3))  // misordered
	mustFail(t, "topk", checkTopK([]anc.RankEntry{{Node: 3, Score: 0.7}, {Node: 1, Score: 0.5}, {Node: 0, Score: 0.1}}, ref, 3))  // omits a higher node
	mustFail(t, "topk", checkTopK([]anc.RankEntry{{Node: 3, Score: 0.7}, {Node: 1, Score: 0.51}, {Node: 2, Score: 0.3}}, ref, 3)) // wrong score
	mustFail(t, "topk", checkTopK([]anc.RankEntry{{Node: 3, Score: 0.7}, {Node: 1, Score: 0.5}, {Node: 9, Score: 0.3}}, ref, 3))  // unknown node
}

func TestCheckSameState(t *testing.T) {
	mustPass(t, "same-state", checkSameState("x", []byte("abc"), []byte("abc")))
	mustFail(t, "same-state", checkSameState("x", []byte("abd"), []byte("abc")))
	mustFail(t, "same-state", checkSameState("x", []byte("ab"), []byte("abc")))
}

// TestTwinVotesCatchDivergence shows the twin-index vote comparison fails
// when one index has seen a weight change the other has not.
func TestTwinVotesCatchDivergence(t *testing.T) {
	g := pathGraph(t)
	w := []float64{1, 1, 1, 1, 1, 1}
	weight := func(e graph.EdgeID) float64 { return w[e] }
	cfg := pyramid.Config{K: 4, Theta: 0.7}
	a, err := pyramid.Build(g, weight, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := pyramid.BuildWithSeeds(g, weight, cfg, a.SeedSets())
	if err != nil {
		t.Fatal(err)
	}
	b.EnableVoteTracking()
	mustPass(t, "twin-votes", sameVotes(a, b, g.M()))
	changed := false
	for _, nw := range []float64{1e-6, 1e6} {
		for e := 0; e < g.M() && !changed; e++ {
			a.UpdateEdges([]graph.EdgeID{graph.EdgeID(e)}, []float64{nw})
			changed = sameVotes(a, b, g.M()) != nil
		}
	}
	if !changed {
		t.Fatal("no single weight change moved a vote; the test graph is too symmetric")
	}
	mustFail(t, "twin-votes", sameVotes(a, b, g.M()))
}
