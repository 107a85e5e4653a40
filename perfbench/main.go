// Command perfbench is the repository's benchmark: closed-loop workloads
// against the real serve → anc durable facade → wal → core → pyramid
// stack over loopback TCP, with correctness checks made apart from the
// program. See README.md for the workloads, metrics and their steadiness.
//
//	perfbench --workload ingest|query-mix|restart --seed N --seconds S --trace 0|1
//	perfbench --repeat 10 --workload ingest --seconds S   (spread of each metric)
//	perfbench --sweep                                     (scaling reference)
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload: ingest, query-mix or restart")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	traced := flag.Int("trace", 0, "1: traced layer-peel run printing the per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print each metric's spread")
	sweep := flag.Bool("sweep", false, "run the reference scaling sweep over n ≈ 4k, 16k, 65k")
	flag.Parse()

	fmt.Printf("# GOMAXPROCS=%d NumCPU=%d cpu=%q go=%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version())
	var err error
	switch {
	case *sweep:
		err = runSweep(*seed)
	case *repeat > 0:
		err = runRepeat(*workload, *seed, *seconds, *traced, *repeat)
	default:
		err = runOnce(*workload, *seed, *seconds, *traced == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runOnce(workload string, seed int64, seconds int, traced bool) error {
	shares, ok := workloadShares[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want ingest, query-mix or restart)", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	r, err := newRun(defaultShape(), seed)
	if err != nil {
		return err
	}
	defer r.close()
	if err := r.setUp(); err != nil {
		return err
	}
	var ms []metric
	if traced {
		ms, err = r.peel(workload, shares, time.Duration(seconds)*time.Second)
		if err != nil {
			return err
		}
	} else {
		round := time.Duration(seconds) * time.Second / runRounds
		share := func(f float64) time.Duration { return time.Duration(f * float64(round)) }
		var spent [3]time.Duration
		for k := 0; k < runRounds; k++ {
			t0 := time.Now()
			r.ingestPhase(t0.Add(share(shares.ingest)))
			t1 := time.Now()
			r.queryPhase(t0.Add(share(shares.ingest + shares.query)))
			t2 := time.Now()
			r.restartPhase(t0.Add(round))
			spent[0], spent[1], spent[2] = spent[0]+t1.Sub(t0), spent[1]+t2.Sub(t1), spent[2]+time.Since(t2)
		}
		fmt.Printf("# phases ingest %.1fs query %.1fs restart %.1fs (setups %.2fs each)\n",
			spent[0].Seconds(), spent[1].Seconds(), spent[2].Seconds(), median(r.setup))
		ms = r.e2eMetrics()
	}
	return r.report(workload, ms)
}

// report prints the per-kind operation counts and the metric table, then
// the JSON result line.
func (r *run) report(workload string, ms []metric) error {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	fmt.Printf("# workload %s seed %d\n", workload, r.seed)
	for _, k := range sortedKinds(r.ops) {
		st := r.ops[k]
		fmt.Printf("# ops %-24s attempted %7d failed %d\n", k, st.attempted, st.failed)
		res.Attempted += st.attempted
		res.Failed += st.failed
		if st.failed > 0 {
			res.Correct = false
		}
	}
	for _, p := range r.problems {
		fmt.Printf("# FAILED %s\n", p)
	}
	counts := r.sampleCounts()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		if counts[k] > 0 {
			fmt.Printf("# samples %-12s %d\n", k, counts[k])
		}
	}
	for _, m := range ms {
		fmt.Printf("# %-32s %14.6f %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runRepeat runs the workload n times in child processes, one seed each,
// and prints every metric's median, quartiles and relative interquartile
// spread — the figures the benchmark's bounds are set from.
func runRepeat(workload string, seed int64, seconds, traced, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var names []string
	failedShare := map[string]bool{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(s),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, s, err)
		}
		var res result
		var last string
		sc := bufio.NewScanner(strings.NewReader(string(out)))
		for sc.Scan() {
			last = sc.Text()
		}
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return fmt.Errorf("run %d (seed %d): result line: %w", i, s, err)
		}
		fmt.Printf("# run %d seed %d correct=%v attempted=%d failed=%d\n", i, s, res.Correct, res.Attempted, res.Failed)
		failedShare[fmt.Sprintf("%.6f", float64(res.Failed)/float64(max(1, res.Attempted)))] = true
		for name, m := range res.Metrics {
			if _, ok := units[name]; !ok {
				names = append(names, name)
				units[name] = m.Unit
			}
			values[name] = append(values[name], m.Value)
		}
	}
	sort.Strings(names)
	shares := make([]string, 0, len(failedShare))
	for k := range failedShare {
		shares = append(shares, k)
	}
	sort.Strings(shares)
	fmt.Printf("# distinct failed shares over the runs: %s\n", strings.Join(shares, ", "))
	fmt.Printf("# %-32s %12s %12s %12s %8s  unit\n", "metric", "q1", "median", "q3", "iqr/med")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Printf("  %-32s %12.6g %12.6g %12.6g %8.4f  %s  %s\n", name, q1, q2, q3, spread, units[name], compact(values[name]))
	}
	return nil
}

func compact(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// cpuModel reads the CPU model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}
