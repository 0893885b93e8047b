// Command banksbench is the BANKS benchmark: it runs one workload in its
// own process, checks every output against independent oracles, and
// prints the metrics as one JSON object on its last line of output. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

var workloads = map[string]func(r *run) error{
	"deep-pairs":      func(r *run) error { return runSystem(r, 1, true) },
	"broad-terms":     func(r *run) error { return runSystem(r, broadScale, false) },
	"write-churn":     runChurn,
	"cluster-scatter": runCluster,
}

// broadScale sizes the broad-terms database. At 0.35 of the §5.2 scale the
// per-query iterator arenas (|S|·|V|·24 B) keep peak RSS near 1 GB; the
// --scale flag changes it for the iterator-memory probe.
var broadScale = 0.35

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: deep-pairs, broad-terms, write-churn or cluster-scatter")
	seed := flag.Int64("seed", 1, "workload seed: picks the queries and mutations")
	seconds := flag.Int("seconds", 10, "measured time of one run, in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	steady := flag.Int("steady", 0, "steadiness mode: run each workload (or only --workload) this many times, seeds seed..seed+n-1, and print each metric's spread")
	flag.Float64Var(&broadScale, "scale", broadScale, "broad-terms database size as a share of the §5.2 scale (iterator-memory probe)")
	flag.Parse()

	if *steady > 0 {
		if err := steadiness(*workload, *steady, *seed, *seconds, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "banksbench:", err)
			os.Exit(1)
		}
		return
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "banksbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "banksbench: --seconds must be at least 1")
		os.Exit(2)
	}
	out, err := runOne(*workload, fn, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "banksbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "banksbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runOne runs one workload and assembles its result, printing the
// human-readable summary first.
func runOne(name string, fn func(*run) error, seed int64, seconds int, trace bool) (*output, error) {
	r, err := newRun(seed, seconds, trace)
	if err != nil {
		return nil, err
	}
	defer r.cleanup()
	if err := fn(r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	out := &output{Correct: len(r.problems) == 0, Metrics: map[string]metric{}}
	fmt.Printf("workload %s seed %d: %d rounds in %.2fs, 1 client, GOMAXPROCS %d, %s\n",
		name, seed, r.rounds, r.elapsed.Seconds(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, k := range r.kinds() {
		fmt.Printf("ops %-9s attempted %6d failed %6d\n", k, r.tries[k], r.fails[k])
		out.Attempted += r.tries[k]
		out.Failed += r.fails[k]
	}
	list, vals := endToEnd, r.e2e
	if trace {
		list, vals = perLayer, r.layer
		path, err := r.tr.write(".bench_build/traces", fmt.Sprintf("%s-%d.jsonl", name, seed))
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	for _, m := range list {
		out.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		fmt.Printf("metric %-28s %14.4f %s\n", m.name, vals[m.name], m.unit)
	}
	if !trace {
		fmt.Printf("unbounded search_p99_ms %13.4f ms\n", r.e2e["search_p99_ms"])
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "oracle:", p)
	}
	if !out.Correct {
		fmt.Printf("INCORRECT: %s\n", strings.Join(r.problems, "; "))
	}
	return out, nil
}
