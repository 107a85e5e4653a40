package main

import (
	"fmt"
	"math"
	"math/rand"

	"anc"
	"anc/internal/dataset"
	"anc/internal/graph"
)

// shape fixes the network and stream make-up shared by every workload;
// README.md lists the values and why they were chosen.
type shape struct {
	N          int     // target node count of the TW2 counterpart graph
	Lambda     float64 // decay factor λ per time unit (one unit = one minute)
	BatchActs  int     // activations per write-path batch (ingest phase, restart tails)
	LightActs  int     // activations per query-mix batch
	WarmActs   int     // activations ingested during set-up
	StreamActs int     // activations generated per run (upper bound on what a run can send)
	CPEvery    int     // DurableConfig.CheckpointEvery of the primary
	SegBytes   int64   // DurableConfig.SegmentSize of the primary
}

// warmBatch is the batch size of the set-up ingest.
const warmBatch = 256

func defaultShape() shape {
	return shape{
		N:          8192,
		Lambda:     0.01,
		BatchActs:  64,
		LightActs:  16,
		WarmActs:   4096,
		StreamActs: 1 << 19,
		CPEvery:    16 * 64,
		SegBytes:   64 << 10,
	}
}

// ancConfig is the served configuration: the paper's defaults with the
// TW2-scale decay and similarity thresholds, parallel pyramid repair.
func ancConfig(s shape) anc.Config {
	c := anc.DefaultConfig()
	c.Lambda = s.Lambda
	c.Epsilon = 0.3
	c.Mu = 3
	c.K = 4
	c.Seed = graphSeed
	c.Parallel = true
	return c
}

// inputs is everything a run sends, generated from the seed before any
// timing starts.
type inputs struct {
	g      *graph.Graph
	stream []anc.Activation // the whole activation stream, in send order
	edgeOf []graph.EdgeID   // edge ID of stream[i]
	sent   int              // prefix of stream handed to the program so far
	rng    *rand.Rand       // query-script and sampling draws
}

// graphSeed fixes the relation graph and the index's seed selection: the
// graph is the benchmark's dataset, the same in every run, and --seed
// varies the traffic over it — the activation stream and the query picks.
const graphSeed = 1

// makeInputs generates the TW2 counterpart graph and, from seed, the
// activation stream over it.
func makeInputs(s shape, seed int64) (*inputs, error) {
	spec, err := dataset.ByName("TW2")
	if err != nil {
		return nil, err
	}
	g := spec.Generate(float64(s.N)/float64(spec.N), rand.New(rand.NewSource(graphSeed))).Graph
	in := &inputs{g: g, rng: rand.New(rand.NewSource(seed + 11))}
	in.stream, in.edgeOf = diurnalStream(g, s.StreamActs, rand.New(rand.NewSource(seed)))
	return in, nil
}

// Stream make-up: a day-long diurnal rate (0.1× to 1× of the peak) with
// Pareto(1.5) bursts of up to 10× in 2% of minutes, edges drawn from a
// Zipf(1.5) popularity over a fixed random edge order. Which edges are
// popular is a property of the dataset, like the graph, so it comes from
// graphSeed; the seed draws the traffic from it.
const (
	burstProb  = 0.02
	burstScale = 10
	hotSkew    = 1.5
)

// diurnalStream generates acts activations; timestamps are in minutes
// and spread evenly within each minute.
func diurnalStream(g *graph.Graph, acts int, rng *rand.Rand) ([]anc.Activation, []graph.EdgeID) {
	m := g.M()
	popular := rand.New(rand.NewSource(graphSeed)).Perm(m)
	peak := float64(acts) / (0.55 * 1440) // the diurnal mean is 0.55 × peak
	stream := make([]anc.Activation, 0, acts)
	edges := make([]graph.EdgeID, 0, acts)
	zipf := rand.NewZipf(rng, hotSkew, 1, uint64(m-1))
	for min := 0; len(stream) < acts; min++ {
		rate := peak * (0.55 + 0.45*math.Sin(2*math.Pi*float64(min)/1440-math.Pi/2))
		if rng.Float64() < burstProb {
			rate *= math.Min(math.Pow(1-rng.Float64(), -1/1.5), burstScale)
		}
		count := max(1, int(rate))
		for i := 0; i < count && len(stream) < acts; i++ {
			e := graph.EdgeID(popular[zipf.Uint64()])
			u, v := g.Endpoints(e)
			stream = append(stream, anc.Activation{U: int(u), V: int(v), T: float64(min) + float64(i)/float64(count+1)})
			edges = append(edges, e)
		}
	}
	return stream, edges
}

// next hands out the next k activations of the stream.
func (in *inputs) next(k int) ([]anc.Activation, error) {
	if in.sent+k > len(in.stream) {
		return nil, fmt.Errorf("activation stream exhausted after %d activations", in.sent)
	}
	b := in.stream[in.sent : in.sent+k : in.sent+k]
	in.sent += k
	return b, nil
}

// lastT is the timestamp of the newest activation handed out, 0 before any.
func (in *inputs) lastT() float64 {
	if in.sent == 0 {
		return 0
	}
	return in.stream[in.sent-1].T
}

// sampleEdges picks the k hottest edges of the sent prefix plus k edges
// drawn uniformly, for the activeness check.
func (in *inputs) sampleEdges(k int) []graph.EdgeID {
	count := map[graph.EdgeID]int{}
	for _, e := range in.edgeOf[:in.sent] {
		count[e]++
	}
	hot := make([]graph.EdgeID, 0, k)
	for len(hot) < k && len(count) > 0 {
		best, bestC := graph.EdgeID(-1), -1
		for e, c := range count {
			if c > bestC || (c == bestC && e < best) {
				best, bestC = e, c
			}
		}
		hot = append(hot, best)
		delete(count, best)
	}
	for i := 0; i < k; i++ {
		hot = append(hot, graph.EdgeID(in.rng.Intn(in.g.M())))
	}
	return hot
}
