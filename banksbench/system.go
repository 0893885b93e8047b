package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	banks "github.com/banksdb/banks"
)

// errFieldsSplit is the known front-door fault the noisy deep-pairs
// requests hit: internal/web's handleSearch splits the query with
// strings.Fields where System.Query uses index.Tokenize, so a term with
// punctuation glued to it matches nothing on the HTML path.
var errFieldsSplit = errors.New("front door disagrees with System.Query (handleSearch splits with strings.Fields, not index.Tokenize)")

// serveOptions configures the front doors: admission control with one
// worker slot per CPU and a short queue, so the closed loop sheds nothing.
func serveOptions() *banks.ServeOptions {
	return &banks.ServeOptions{
		Search:      searchOptions(),
		MaxInFlight: runtime.NumCPU(),
		MaxQueue:    4 * runtime.NumCPU(),
	}
}

// runSystem runs deep-pairs and broad-terms: one System built from the
// database, served by ServeHandler over loopback HTTP.
func runSystem(r *run, scale float64, deep bool) error {
	if err := r.prepare(scale); err != nil {
		return err
	}
	var round []op
	var seeded []string
	if deep {
		seeded = deepQueries(r.pools, r.seed)
		for _, q := range seeded {
			round = append(round, op{kind: opSearch, text: q, ideal: -1})
		}
		noisy := noisyVariants(r.anec)
		for i, a := range r.anec {
			if a.names {
				round = append(round,
					op{kind: opSearch, text: a.text, ideal: i},
					op{kind: opNoisy, text: noisy[i], ideal: i})
			}
		}
	} else {
		seeded = broadQueryTexts(r.seed)
		for _, q := range seeded {
			round = append(round, op{kind: opSearch, text: q, ideal: -1})
		}
	}

	var sys *banks.System
	var front *httpFront
	err := r.measureSetup(func(int) (func(), error) {
		s, err := banks.NewSystem(r.db, nil)
		if err != nil {
			return nil, err
		}
		f, err := listen(s.ServeHandler(serveOptions()))
		if err != nil {
			s.Close()
			return nil, err
		}
		sys, front = s, f
		return func() { f.close(); s.Close() }, nil
	})
	if err != nil {
		return err
	}
	defer sys.Close()
	defer front.close()

	texts := make([]string, len(round))
	for i, o := range round {
		texts[i] = o.text
	}
	refs, err := warmReference(texts, func(t string) (*banks.Results, error) {
		return sys.Query(context.Background(), banks.Query{Text: t, Options: searchOptions()})
	})
	if err != nil {
		return err
	}

	exec := func(o *op) record {
		req := r.tr.newReq()
		start := time.Now()
		body, lat, err := front.search(o.text)
		rec := record{op: o, lat: lat, err: err, out: string(body)}
		if r.traced() {
			h := r.tr.add("web.handler", req, 0, start, start.Add(lat))
			q, st, n := r.replayCore(req, h, o.text)
			r.tr.count("web.self_ms", ms(lat-q))
			if st != nil {
				r.coreCounts(st.MatchedNodes, st.Pops, st.ArcsScanned, st.Generated, n)
			}
		}
		return rec
	}
	r.timedPhase(func(int) []op { return round }, exec)

	// Oracles. Identical replies to one text are checked once.
	type key struct{ text, body string }
	type verdict struct {
		expected bool
		err      error
		trees    []tree
	}
	seen := map[key]verdict{}
	r.tally(func(rec *record) (bool, error) {
		k := key{rec.op.text, rec.out.(string)}
		v, ok := seen[k]
		if !ok {
			v.trees, v.expected, v.err = r.checkPage(rec.op, k.body, refs[rec.op.text])
			seen[k] = v
		}
		return v.expected, v.err
	})
	for _, rec := range r.recs {
		if rec.op.kind == opSearch && rec.err == nil {
			r.addRecall(seen[key{rec.op.text, rec.out.(string)}].trees, fromResults(refs[rec.op.text]))
		}
	}
	if deep {
		r.checkTitleAnecdotes(front, sys)
	}
	for _, t := range seeded[:3] {
		res := refs[t]
		st := res.Stats
		if err := checkSteiner(r.g, r.m, tokens(t), fromResults(res),
			st.BudgetExhausted || st.CombosTruncated || st.MetadataTruncated); err != nil {
			r.problem("steiner %q: %v", t, err)
		}
	}
	r.searchMetrics()

	if r.tr != nil {
		r.coreLayer(seeded, nil)
		r.layer["web.handler_ms"] = median(r.tr.durations("web.handler"))
		r.layer["web.self_ms"] = median(r.tr.values("web.self_ms"))
		r.layer["index.cache_hit_rate"] = sys.CacheStats().HitRate()
		if err := r.gateLayer(front); err != nil {
			return err
		}
	}
	return nil
}

// checkPage runs the oracles on one /search page: agreement with
// System.Query on the same text, then the per-answer oracles, and the §5.1
// ideals for the anecdote queries. It returns the page's trees; expected
// marks a failure of the known front-door fault.
func (r *run) checkPage(o *op, body string, ref *banks.Results) (trees []tree, expected bool, err error) {
	page, err := parseSearchPage(r.m, body)
	if err != nil {
		return nil, false, err
	}
	if err := checkAgreement(page.trees, fromResults(ref), tolHTML); err != nil {
		if o.kind == opNoisy {
			return page.trees, true, fmt.Errorf("%w: %v", errFieldsSplit, err)
		}
		return page.trees, false, fmt.Errorf("entry points disagree: %w", err)
	}
	terms := tokens(o.text)
	for i := range page.trees {
		if err := r.m.checkAnswer(&page.trees[i], terms, tolHTML); err != nil {
			return page.trees, false, fmt.Errorf("answer %d: %w", i+1, err)
		}
	}
	if o.ideal >= 0 {
		if err := checkIdeals(r.anec[o.ideal], page.trees, r.g); err != nil {
			return page.trees, false, err
		}
	}
	return page.trees, false, nil
}

// checkTitleAnecdotes sends the title-word §5.1 queries once, after
// timing, through both entry points and checks their ideals.
func (r *run) checkTitleAnecdotes(front *httpFront, sys *banks.System) {
	for i, a := range r.anec {
		if a.names {
			continue
		}
		res, err := sys.Query(context.Background(), banks.Query{Text: a.text, Options: searchOptions()})
		if err != nil {
			r.problem("anecdote %q: %v", a.text, err)
			continue
		}
		body, _, err := front.search(a.text)
		if err == nil {
			_, _, err = r.checkPage(&op{kind: opSearch, text: a.text, ideal: i}, string(body), res)
		}
		if err != nil {
			r.problem("anecdote %q: %v", a.text, err)
		}
	}
}

// gateLayer reads the admission counters from /debug/vars.
func (r *run) gateLayer(front *httpFront) error {
	adm, err := front.debugGauge("gate_admitted_total")
	if err != nil {
		return err
	}
	shed, err := front.debugGauge("gate_shed_total")
	if err != nil {
		return err
	}
	r.layer["serve.admitted"] = float64(adm)
	r.layer["serve.shed"] = float64(shed)
	return nil
}
