package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	banks "github.com/banksdb/banks"
	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/eval"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/serve"
	"github.com/banksdb/banks/internal/sqldb"
)

// setupRepeats is how many times a run sets its front door up; setup_s
// is their median. With 5 the spread of setup_s between runs reached a
// quarter of its median.
const setupRepeats = 9

// endToEnd and perLayer list every metric the command reports, with its
// unit; BENCHMARK.json names the same metrics. search_p99_ms is printed
// for the reader but not reported: between runs of one commit it spread
// by 12–71% (IQR over median), more than the widest bound.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"search_p50_ms", "ms"},
	{"search_rps", "1/s"},
	{"peak_rss_mb", "MB"},
	{"recall_at_10", "ratio"},
}

var perLayer = []struct{ name, unit string }{
	{"core.pops", "count"},
	{"core.arcs_scanned", "count"},
	{"core.generated", "count"},
	{"core.emitted_per_generated", "ratio"},
	{"core.query_ms", "ms"},
	{"core.alloc_mb", "MB"},
	{"index.match_nodes", "count"},
	{"index.tokenize_us", "us"},
	{"index.lookup_us", "us"},
	{"index.cache_hit_rate", "ratio"},
	{"web.handler_ms", "ms"},
	{"web.self_ms", "ms"},
	{"serve.admitted", "count"},
	{"serve.shed", "count"},
	{"graph.build_s", "s"},
	{"index.build_s", "s"},
	{"store.write_s", "s"},
	{"store.open_s", "s"},
	{"cluster.split_s", "s"},
	{"graph.footprint_mb", "MB"},
	{"store.file_mb", "MB"},
	{"store.faulted_mb", "MB"},
	{"wal.bytes_per_apply", "B"},
	{"mutate.pending", "count"},
	{"mutate.compact_s", "s"},
	{"mutate.apply_ms", "ms"},
	{"cluster.route_us", "us"},
	{"cluster.legs_routed", "count"},
	{"cluster.legs_pruned", "count"},
	{"cluster.leg_ms", "ms"},
	{"cluster.slowest_leg_ms", "ms"},
	{"cluster.merge_us", "us"},
	{"trace.overhead_pct", "%"},
}

// run is one benchmark process: one workload, one seed.
type run struct {
	seed    int64
	budget  time.Duration
	tr      *tracer // non-nil for a traced run
	tracing bool    // a traced round of a traced run is under way
	tmp     string  // scratch directory inside the checkout
	start   time.Time

	sdb   *sqldb.Database
	db    *banks.Database
	m     *model
	pools *idPools
	anec  []idealQuery

	// The data graph and index, built by the benchmark itself from the
	// generated database, for the oracles and the per-layer build times.
	g  *graph.Graph
	ix *index.Index
	// Replay engine for the traced run's direct index and core calls:
	// the same layers over the same data as the front door (write-churn
	// points it at its store file).
	rix   index.View
	cache *index.MatchCache
	srch  *core.Searcher
	copts *core.Options

	setups   []float64
	recs     []record
	elapsed  time.Duration
	rounds   int
	peakRSS  float64 // bytes
	recall   [2]int  // matched, reference trees
	e2e      map[string]float64
	layer    map[string]float64
	fails    map[string]int
	tries    map[string]int
	problems []string
}

func newRun(seed int64, seconds int, trace bool) (*run, error) {
	r := &run{
		seed:   seed,
		start:  time.Now(),
		budget: time.Duration(seconds) * time.Second,
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		fails:  map[string]int{},
		tries:  map[string]int{},
	}
	if trace {
		r.tr = newTracer()
	}
	for _, lm := range perLayer {
		r.layer[lm.name] = 0
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	r.tmp = dir
	return r, nil
}

func (r *run) cleanup() { os.RemoveAll(r.tmp) }

// logf prints a progress line to standard error with the run's clock and
// memory high-water mark.
func (r *run) logf(format string, args ...any) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(os.Stderr, "[%6.2fs rss-peak %4dMB heap %4dMB] %s\n", time.Since(r.start).Seconds(),
		serve.PeakRSSBytes()>>20, ms.HeapInuse>>20, fmt.Sprintf(format, args...))
}

// problem records an oracle failure on an operation that should succeed.
func (r *run) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// searchOptions is the front door's search configuration: the paper's
// DBLP setting (link relations are not information nodes) under a pop
// budget. Without it a pair with fewer than ten reachable trees expands
// the whole graph once per origin (up to ~900K pops, ~1s) before it can
// stop; the budget cuts those off at the top of the deep-pairs range and
// flags them, as a production front door is configured.
func searchOptions() *banks.SearchOptions {
	return &banks.SearchOptions{
		ExcludedRootTables: []string{"Writes", "Cites"},
		Budget:             banks.Budget{MaxPops: 100000},
	}
}

// coreOptions mirrors searchOptions for direct core calls.
func coreOptions() *core.Options {
	o := eval.DefaultDBLPOptions()
	o.Budget.MaxPops = searchOptions().Budget.MaxPops
	return o
}

// prepare generates the workload database and everything the oracles
// need. None of it counts toward setup_s.
func (r *run) prepare(scale float64) error {
	sdb, err := datagen.BuildDBLP(dblpConfig(scale))
	if err != nil {
		return err
	}
	r.sdb = sdb
	r.db = banks.WrapDatabase(sdb)
	r.m = newModel(sdb)
	r.pools = newIDPools(r.m)
	var g *graph.Graph
	r.spanned("graph.build_s", func() { g, err = graph.Build(sdb, nil) })
	if err != nil {
		return err
	}
	var ix *index.Index
	r.spanned("index.build_s", func() { ix, err = index.Build(sdb, g) })
	if err != nil {
		return err
	}
	r.g, r.ix = g, ix
	r.layer["graph.footprint_mb"] = float64(g.MemoryFootprint()) / (1 << 20)
	r.replayOn(g, ix)
	r.copts = coreOptions()
	r.anec, err = anecdotes(sdb, g)
	r.logf("prepared %d rows", len(r.m.rows))
	return err
}

// replayOn points the replay engine at g and ix, with a match cache of
// the front door's default size.
func (r *run) replayOn(g *graph.Graph, ix *index.Index) {
	r.rix = ix
	r.cache = index.NewMatchCache(banks.DefaultMatchCacheBytes)
	r.srch = core.NewSearcher(g, ix).WithMatchCache(r.cache)
}

// spanned times a set-up step as a per-layer metric (seconds) and span.
func (r *run) spanned(name string, fn func()) {
	d := r.tr.call(name, 0, 0, fn)
	if r.tr != nil {
		r.layer[name] = d.Seconds()
	}
}

// measureSetup runs setup setupRepeats times from a collected heap and
// keeps the last front door; earlier ones are torn down. setup returns
// the front door's teardown.
func (r *run) measureSetup(setup func(i int) (func(), error)) error {
	var prev func()
	for i := 0; i < setupRepeats; i++ {
		if prev != nil {
			prev()
		}
		runtime.GC()
		start := time.Now()
		closeFn, err := setup(i)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		prev = closeFn
	}
	r.logf("set up %d times", setupRepeats)
	return nil
}

// warmReference runs every distinct text once through query, from one
// goroutine per CPU, returning the answers by text. It is the reference the
// entry-point agreement check compares with, and it warms the caches and
// the per-CPU arena pools before timing starts (warming them from a single
// goroutine left broad-terms' resident set at one of two levels, 1.06 or
// 1.5 GB, from run to run).
func warmReference(texts []string, query func(string) (*banks.Results, error)) (map[string]*banks.Results, error) {
	uniq := map[string]bool{}
	var list []string
	for _, t := range texts {
		if !uniq[t] {
			uniq[t] = true
			list = append(list, t)
		}
	}
	out := make(map[string]*banks.Results, len(list))
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr error
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) {
					return
				}
				res, err := query(list[i])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference query %q: %w", list[i], err)
				}
				out[list[i]] = res
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

// timedPhase runs the workload's rounds for the whole budget. A traced
// run alternates untraced and traced rounds, so the two halves see the
// same host and process state, and reports the difference of their
// front-door medians as the tracing overhead.
func (r *run) timedPhase(ops func(round int) []op, exec func(o *op) record) {
	r.logf("timed phase starts")
	if r.tr == nil {
		rss := startRSS()
		r.recs, r.elapsed, r.rounds = runRounds(r.budget, 1, ops, exec)
		r.peakRSS = rss.finish()
		if r.peakRSS == 0 {
			r.peakRSS = float64(serve.PeakRSSBytes())
		}
		r.logf("timed phase done")
		return
	}
	alternate := func(round int) []op {
		r.tracing = round%2 == 1
		return ops(round)
	}
	r.recs, r.elapsed, r.rounds = runRounds(r.budget, 2, alternate, exec)
	r.tracing = false
	var plain, traced []record
	for _, rec := range r.recs {
		if rec.round%2 == 1 {
			traced = append(traced, rec)
		} else {
			plain = append(plain, rec)
		}
	}
	base, with := searchLatencies(plain), searchLatencies(traced)
	if len(base) > 0 && len(with) > 0 {
		r.layer["trace.overhead_pct"] = 100 * (median(with)/median(base) - 1)
	}
	r.logf("timed phase done")
}

func searchLatencies(recs []record) []float64 {
	var out []float64
	for _, rec := range recs {
		if rec.op.kind == opSearch && rec.err == nil {
			out = append(out, ms(rec.lat))
		}
	}
	return out
}

// traced reports whether the current operation should record spans.
func (r *run) traced() bool { return r.tr != nil && r.tracing }

// tokenize times index.Tokenize on one query text (the mean of 100
// calls, each a fraction of a microsecond) under the operation's span.
func (r *run) tokenize(req, parent int64, text string) []string {
	var terms []string
	tok := r.tr.call("index.tokenize", req, parent, func() {
		for i := 0; i < 100; i++ {
			terms = index.Tokenize(text)
		}
	})
	r.tr.count("index.tokenize_us", us(tok)/100)
	return terms
}

// replayCore makes the traced run's direct calls into the index and core
// layers of the replay engine for one query text, under the operation's
// span, and returns the time in Searcher.Query.
func (r *run) replayCore(req, parent int64, text string) (time.Duration, *core.Stats, int) {
	terms := r.tokenize(req, parent, text)
	for _, t := range terms {
		d := r.tr.call("index.lookup", req, parent, func() { r.cache.Lookup(r.rix, 0, t) })
		r.tr.count("index.lookup_us", us(d))
	}
	var answers []*core.Answer
	var st *core.Stats
	d := r.tr.call("core.query", req, parent, func() {
		answers, st, _ = r.srch.Query(context.Background(), core.Request{Terms: terms}, r.copts, nil)
	})
	r.tr.count("core.query_ms", ms(d))
	return d, st, len(answers)
}

// coreCounts records the work counts of one search.
func (r *run) coreCounts(matched []int, pops, arcs, generated, emitted int) {
	sum := 0
	for _, n := range matched {
		sum += n
	}
	r.tr.count("index.match_nodes", float64(sum))
	r.tr.count("core.pops", float64(pops))
	r.tr.count("core.arcs_scanned", float64(arcs))
	r.tr.count("core.generated", float64(generated))
	r.tr.count("core.emitted", float64(emitted))
}

// coreLayer fills the core and index per-layer metrics from the traced
// replays, and measures allocation per query on a quiet process, calling
// query (nil: the replay engine's Searcher.Query) on the first 20 texts.
func (r *run) coreLayer(texts []string, query func(text string)) {
	if r.tr == nil {
		return
	}
	r.layer["core.pops"] = mean(r.tr.values("core.pops"))
	r.layer["core.arcs_scanned"] = mean(r.tr.values("core.arcs_scanned"))
	r.layer["core.generated"] = mean(r.tr.values("core.generated"))
	if g := mean(r.tr.values("core.generated")); g > 0 {
		r.layer["core.emitted_per_generated"] = mean(r.tr.values("core.emitted")) / g
	}
	r.layer["core.query_ms"] = median(r.tr.values("core.query_ms"))
	r.layer["index.match_nodes"] = mean(r.tr.values("index.match_nodes"))
	r.layer["index.tokenize_us"] = median(r.tr.values("index.tokenize_us"))
	r.layer["index.lookup_us"] = median(r.tr.values("index.lookup_us"))
	if query == nil {
		query = func(t string) {
			_, _, _ = r.srch.Query(context.Background(), core.Request{Terms: index.Tokenize(t)}, r.copts, nil)
		}
	}
	var allocs []float64
	var before, after runtime.MemStats
	for i, t := range texts {
		if i == 20 {
			break
		}
		runtime.ReadMemStats(&before)
		query(t)
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	}
	r.layer["core.alloc_mb"] = median(allocs)
}

// tally counts attempts and failures by kind. verdict returns the oracle
// outcome of one record; expected marks failures of the named, known
// front-door fault, which count as failed but leave the run correct.
func (r *run) tally(verdict func(rec *record) (expected bool, err error)) {
	for i := range r.recs {
		rec := &r.recs[i]
		r.tries[rec.op.kind]++
		err := rec.err
		expected := false
		if err == nil {
			expected, err = verdict(rec)
		}
		if err != nil {
			rec.err = err
			r.fails[rec.op.kind]++
			if !expected {
				r.problem("%s %q: %v", rec.op.kind, rec.op.text, err)
			}
		}
	}
}

// searchMetrics fills the search end-to-end metrics from the records.
func (r *run) searchMetrics() {
	lat := searchLatencies(r.recs)
	r.e2e["search_p50_ms"] = quantile(lat, 0.5)
	r.e2e["search_p99_ms"] = quantile(lat, 0.99)
	r.e2e["search_rps"] = float64(len(lat)) / r.elapsed.Seconds()
	r.e2e["setup_s"] = median(r.setups)
	r.e2e["peak_rss_mb"] = r.peakRSS / (1 << 20)
	if r.recall[1] > 0 {
		r.e2e["recall_at_10"] = float64(r.recall[0]) / float64(r.recall[1])
	}
}

// addRecall compares the top 10 of got with the reference top 10 by node
// set (§5.3: tree identity ignores the root).
func (r *run) addRecall(got, want []tree) {
	have := map[string]bool{}
	for i := range got {
		if i == 10 {
			break
		}
		have[got[i].signature(r.m)] = true
	}
	for i := range want {
		if i == 10 {
			break
		}
		r.recall[1]++
		if have[want[i].signature(r.m)] {
			r.recall[0]++
		}
	}
}

// kinds returns the op kinds seen, sorted.
func (r *run) kinds() []string {
	var ks []string
	for k := range r.tries {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
