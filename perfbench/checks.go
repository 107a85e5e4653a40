package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"anc"
	"anc/internal/graph"
)

// The checks below judge the program's answers against computations made
// here, from the inputs the benchmark sent, or against properties the
// method guarantees. None compares with a stored copy of earlier output.
// checks_test.go feeds each one a corrupted answer.

// checkCount: the server applied exactly the activations the client sent.
func checkCount(got, want uint64) error {
	if got != want {
		return fmt.Errorf("server counted %d activations, client sent %d", got, want)
	}
	return nil
}

// checkCadence: in a run of n equal batches, every batches apart make one
// checkpoint interval, so the batches that took a periodic checkpoint
// (their indexes in at, ascending) are exactly every apart, the first
// within the first interval and the last within the last.
func checkCadence(at []int, n, every int) error {
	if n >= every && len(at) == 0 {
		return fmt.Errorf("no periodic checkpoint in %d batches, want one every %d", n, every)
	}
	for i, b := range at {
		switch {
		case i == 0 && b >= every:
			return fmt.Errorf("first periodic checkpoint at batch %d, want one within the first %d", b, every)
		case i > 0 && b-at[i-1] != every:
			return fmt.Errorf("periodic checkpoints at batches %d and %d, want %d apart", at[i-1], b, every)
		case i == len(at)-1 && n-1-b >= every:
			return fmt.Errorf("last periodic checkpoint at batch %d of %d, want one every %d", b, n, every)
		}
	}
	return nil
}

// checkActiveness compares the program's decayed activeness of one edge
// with the benchmark's own sum over the activations it sent.
func checkActiveness(e graph.EdgeID, got, want float64) error {
	if !(math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))) {
		return fmt.Errorf("activeness of edge %d: program %.17g, expected %.17g", e, got, want)
	}
	return nil
}

// expectedActiveness computes a_t(e) = e^{-λt}·1 + Σ_i e^{-λ(t-t_i)} for
// each edge in es over the first sent activations: the unit activeness
// every edge starts with at t = 0, plus one unit per activation, all
// decayed to t.
func expectedActiveness(in *inputs, es []graph.EdgeID, lambda, t float64) []float64 {
	idx := make(map[graph.EdgeID][]int, len(es))
	want := make([]float64, len(es))
	for i, e := range es {
		idx[e] = append(idx[e], i)
		//anclint:ignore nakedexp the check's reference sum is computed apart from the program's decay.Clock on purpose
		want[i] = math.Exp(-lambda * t)
	}
	for i := 0; i < in.sent; i++ {
		for _, j := range idx[in.edgeOf[i]] {
			//anclint:ignore nakedexp the check's reference sum is computed apart from the program's decay.Clock on purpose
			want[j] += math.Exp(-lambda * (t - in.stream[i].T))
		}
	}
	return want
}

// checkPartition: the clusters cover every node of 0..n-1 exactly once.
func checkPartition(n int, clusters [][]int) error {
	seen := make([]bool, n)
	count := 0
	for ci, c := range clusters {
		if len(c) == 0 {
			return fmt.Errorf("cluster %d is empty", ci)
		}
		for _, v := range c {
			if v < 0 || v >= n {
				return fmt.Errorf("cluster %d holds node %d outside [0, %d)", ci, v, n)
			}
			if seen[v] {
				return fmt.Errorf("node %d appears in more than one cluster", v)
			}
			seen[v] = true
			count++
		}
	}
	if count != n {
		return fmt.Errorf("clusters cover %d of %d nodes", count, n)
	}
	return nil
}

// checkConnected: every cluster induces a connected subgraph of the
// relation graph. Run after checkPartition.
func checkConnected(g *graph.Graph, clusters [][]int) error {
	label := make([]int32, g.N())
	for ci, c := range clusters {
		for _, v := range c {
			label[v] = int32(ci)
		}
	}
	seen := make([]bool, g.N())
	var stack []graph.NodeID
	for ci, c := range clusters {
		stack = append(stack[:0], graph.NodeID(c[0]))
		seen[c[0]] = true
		reached := 0
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			reached++
			for _, h := range g.Neighbors(x) {
				if label[h.To] == int32(ci) && !seen[h.To] {
					seen[h.To] = true
					stack = append(stack, h.To)
				}
			}
		}
		if reached != len(c) {
			return fmt.Errorf("cluster %d (%d nodes) is not connected: %d reachable from node %d", ci, len(c), reached, c[0])
		}
	}
	return nil
}

// checkNested: every power cluster lies inside one even cluster. Both
// must be partitions of the same n nodes.
func checkNested(n int, power, even [][]int) error {
	evenOf := make([]int, n)
	for ci, c := range even {
		for _, v := range c {
			evenOf[v] = ci
		}
	}
	for ci, c := range power {
		for _, v := range c[1:] {
			if evenOf[v] != evenOf[c[0]] {
				return fmt.Errorf("power cluster %d spans even clusters %d and %d", ci, evenOf[c[0]], evenOf[v])
			}
		}
	}
	return nil
}

// clusterOfNode returns the member set of the cluster holding v.
func clusterOfNode(clusters [][]int, v int) []int {
	for _, c := range clusters {
		for _, x := range c {
			if x == v {
				return c
			}
		}
	}
	return nil
}

// sameSet reports whether a and b hold the same nodes.
func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	x := append([]int(nil), a...)
	y := append([]int(nil), b...)
	sort.Ints(x)
	sort.Ints(y)
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// checkClusterOf: the local query ClusterOf(v, l) answers v's cluster of
// the even clustering at l (the local search of Lemma 9 explores the same
// surviving edges), and v's power cluster at l lies inside it.
func checkClusterOf(v int, got []int, even, power [][]int) error {
	if want := clusterOfNode(even, v); !sameSet(got, want) {
		return fmt.Errorf("ClusterOf(%d) has %d members, its even cluster %d", v, len(got), len(want))
	}
	in := make(map[int]bool, len(got))
	for _, x := range got {
		in[x] = true
	}
	for _, x := range clusterOfNode(power, v) {
		if !in[x] {
			return fmt.Errorf("power cluster of %d holds %d, outside ClusterOf(%d)", v, x, v)
		}
	}
	return nil
}

// checkContains: SmallestClusterOf(v) contains v.
func checkContains(v int, got []int) error {
	for _, x := range got {
		if x == v {
			return nil
		}
	}
	return fmt.Errorf("SmallestClusterOf(%d) does not contain %d (%d members)", v, v, len(got))
}

// checkDistance: the distance estimate is symmetric, non-negative and 0
// from a node to itself.
func checkDistance(u, v int, duv, dvu, dvv float64) error {
	switch {
	case math.IsNaN(duv) || duv < 0:
		return fmt.Errorf("EstimateDistance(%d, %d) = %v, want a non-negative value", u, v, duv)
	case duv != dvu && !(math.Abs(duv-dvu) <= 1e-12*math.Abs(duv)):
		return fmt.Errorf("EstimateDistance not symmetric: (%d, %d) = %v, (%d, %d) = %v", u, v, duv, v, u, dvu)
	case dvv != 0:
		return fmt.Errorf("EstimateDistance(%d, %d) = %v, want 0", v, v, dvv)
	}
	return nil
}

// referenceRank is the benchmark's own TieRank: the dominant eigenvector,
// L2-normalized, of the similarity matrix W (W[u][v] = Similarity(u, v) on
// every edge), by power iteration on W + cI with c half the largest
// weighted degree, run until the vector moves less than 1e-14.
func referenceRank(g *graph.Graph, sim func(e graph.EdgeID) float64) []float64 {
	n := g.N()
	w := make([]float64, g.M())
	shift := 0.0
	for e := range w {
		w[e] = sim(graph.EdgeID(e))
	}
	for v := 0; v < n; v++ {
		row := 0.0
		for _, h := range g.Neighbors(graph.NodeID(v)) {
			row += w[h.Edge]
		}
		shift = math.Max(shift, row)
	}
	shift /= 2
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	norm := func(v []float64) {
		ss := 0.0
		for _, a := range v {
			ss += a * a
		}
		inv := 1 / math.Sqrt(ss)
		for i := range v {
			v[i] *= inv
		}
	}
	norm(x)
	for iter := 0; iter < 20000; iter++ {
		for v := 0; v < n; v++ {
			acc := shift * x[v]
			for _, h := range g.Neighbors(graph.NodeID(v)) {
				acc += w[h.Edge] * x[h.To]
			}
			y[v] = acc
		}
		norm(y)
		delta := 0.0
		for i := range x {
			delta = math.Max(delta, math.Abs(y[i]-x[i]))
		}
		x, y = y, x
		if delta < 1e-14 {
			break
		}
	}
	return x
}

// rankTol is how far the program's scores may sit from the reference
// eigenvector: the program stops on a max-norm step of 1e-12, and the
// distance to the fixed point can exceed the last step by the inverse of
// the spectral gap.
const rankTol = 1e-7

// checkTopK: the program's global top-k agrees with the reference
// eigenvector wherever the reference scores are more than rankTol apart:
// each listed score matches its node's reference score, the list is in
// descending reference order, and no unlisted node beats a listed one.
func checkTopK(global []anc.RankEntry, ref []float64, k int) error {
	if want := min(k, len(ref)); len(global) != want {
		return fmt.Errorf("TieRank listed %d nodes, want %d", len(global), want)
	}
	listed := make(map[int]bool, len(global))
	for i, r := range global {
		if r.Node < 0 || r.Node >= len(ref) {
			return fmt.Errorf("TieRank entry %d names node %d outside the graph", i, r.Node)
		}
		if math.Abs(r.Score-ref[r.Node]) > rankTol {
			return fmt.Errorf("TieRank score of node %d: program %.12g, reference %.12g", r.Node, r.Score, ref[r.Node])
		}
		if i > 0 && ref[r.Node] > ref[global[i-1].Node]+rankTol {
			return fmt.Errorf("TieRank ranks node %d above node %d, reference scores %.12g < %.12g",
				global[i-1].Node, r.Node, ref[global[i-1].Node], ref[r.Node])
		}
		listed[r.Node] = true
	}
	if len(global) == 0 {
		return nil
	}
	last := ref[global[len(global)-1].Node]
	for v, s := range ref {
		if !listed[v] && s > last+rankTol {
			return fmt.Errorf("TieRank omits node %d (reference %.12g) but lists node %d (%.12g)",
				v, s, global[len(global)-1].Node, last)
		}
	}
	return nil
}

// checkSameState: a recovered or replicated network Saves byte-identically
// to the network it reproduces.
func checkSameState(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		return fmt.Errorf("%s Save differs from the primary's: %d vs %d bytes, first difference at byte %d", what, len(got), len(want), i)
	}
	return nil
}
