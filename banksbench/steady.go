package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs each workload n times, each in its own process with its
// own seed, and prints every metric's median, quartiles, spread (IQR over
// median) and largest deviation from the median next to its bound.
func steadiness(only string, n int, seed int64, seconds int, trace bool) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("steadiness mode reads BENCHMARK.json from the checkout root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	for _, w := range bf.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := map[string][]float64{}
		var failShares []float64
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", traceArg)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, s, err)
			}
			res, err := lastJSON(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: outputs incorrect", w.Name, s)
			}
			failShares = append(failShares, float64(res.Failed)/float64(res.Attempted))
			keys := make([]string, 0, len(res.Metrics))
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Printf("%s seed %d: attempted %d failed %d", w.Name, s, res.Attempted, res.Failed)
			for _, k := range keys {
				fmt.Printf(" %s=%.4g", k, res.Metrics[k].Value)
			}
			fmt.Println()
		}
		names := make([]string, 0, len(values))
		for k := range values {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Printf("\n%s: %d runs, failed share %v\n", w.Name, n, uniqueFloats(failShares))
		fmt.Printf("  %-28s %12s %12s %12s %8s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "maxdev", "bound")
		for _, k := range names {
			v := values[k]
			med := median(v)
			q1, q3 := pyQuartiles(v)
			spread, maxdev := math.NaN(), 0.0
			if med != 0 {
				spread = (q3 - q1) / math.Abs(med)
				for _, x := range v {
					maxdev = math.Max(maxdev, math.Abs(x-med)/math.Abs(med))
				}
			}
			bound := "-"
			if b, ok := bounds[k]; ok {
				bound = strconv.FormatFloat(b, 'f', 3, 64)
			}
			fmt.Printf("  %-28s %12.4f %12.4f %12.4f %8.4f %8.4f %8s\n", k, med, q1, q3, spread, maxdev, bound)
		}
		fmt.Println()
	}
	return nil
}

// pyQuartiles matches Python's statistics.quantiles(values, n=4) with its
// default "exclusive" method, which is how the spreads are judged.
func pyQuartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func lastJSON(out []byte) (*output, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res output
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last line is not the result object: %w", err)
	}
	return &res, nil
}

func uniqueFloats(xs []float64) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
