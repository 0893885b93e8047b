package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	banks "github.com/banksdb/banks"
	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/store"
)

// partitions is the cluster-scatter partition count.
const partitions = 2

// clusterReply is the cluster front door's /search JSON.
type clusterReply struct {
	Answers []cluster.Answer `json:"answers"`
	Stats   cluster.Stats    `json:"stats"`
	Error   string           `json:"error"`
}

// runCluster runs cluster-scatter: the deep-pairs store split into two
// in-process partitions, opened with OpenCluster and served by the
// cluster's ServeHandler over loopback HTTP.
func runCluster(r *run) error {
	if err := r.prepare(1); err != nil {
		return err
	}
	var round []op
	seeded := clusterQueries(r.pools, r.seed)
	for _, q := range seeded {
		round = append(round, op{kind: opSearch, text: q, ideal: -1})
	}
	for i, a := range r.anec {
		if a.names {
			round = append(round, op{kind: opSearch, text: a.text, ideal: i})
		}
	}
	// The single engine is the recall reference; it is not part of setup.
	single, err := banks.NewSystem(r.db, nil)
	if err != nil {
		return err
	}
	defer single.Close()

	var c *banks.Cluster
	var front *httpFront
	var storePath string
	var parts []string
	err = r.measureSetup(func(i int) (func(), error) {
		sp := filepath.Join(r.tmp, fmt.Sprintf("cluster%d.bstore", i))
		built, err := banks.NewSystem(r.db, nil)
		if err != nil {
			return nil, err
		}
		err = built.Save(sp)
		built.Close()
		if err != nil {
			return nil, err
		}
		ps := banks.ClusterPartitionPaths(sp, partitions)
		if err := cluster.SplitStore(sp, ps); err != nil {
			return nil, err
		}
		cl, err := banks.OpenCluster(r.db, ps, nil)
		if err != nil {
			return nil, err
		}
		f, err := listen(cl.ServeHandler(serveOptions()))
		if err != nil {
			cl.Close()
			return nil, err
		}
		c, front, storePath, parts = cl, f, sp, ps
		return func() {
			f.close()
			cl.Close()
			for _, p := range append([]string{sp}, ps...) {
				os.Remove(p)
			}
		}, nil
	})
	if err != nil {
		return err
	}
	defer c.Close()
	defer front.close()

	texts := make([]string, len(round))
	for i, o := range round {
		texts[i] = o.text
	}
	refs, err := warmReference(texts, func(t string) (*banks.Results, error) {
		return c.Query(context.Background(), banks.Query{Text: t, Options: searchOptions()})
	})
	if err != nil {
		return err
	}
	singles, err := warmReference(texts, func(t string) (*banks.Results, error) {
		return single.Query(context.Background(), banks.Query{Text: t, Options: searchOptions()})
	})
	if err != nil {
		return err
	}

	var rp *clusterReplay
	if r.tr != nil {
		if rp, err = r.openReplay(parts); err != nil {
			return err
		}
		defer rp.close()
	}
	exec := func(o *op) record {
		req := r.tr.newReq()
		start := time.Now()
		body, lat, err := front.search(o.text)
		rec := record{op: o, lat: lat, err: err, out: string(body)}
		if r.traced() && err == nil {
			h := r.tr.add("web.handler", req, 0, start, start.Add(lat))
			// The work counts are the cluster's own, summed over its legs
			// in the reply; the times come from the same calls made
			// directly on engines over the same partition stores.
			var reply clusterReply
			if json.Unmarshal(body, &reply) == nil {
				st := reply.Stats
				r.coreCounts(st.MatchedNodes, st.Pops, st.ArcsScanned, st.Generated, len(reply.Answers))
			}
			slowest := rp.scatter(r, req, h, o.text)
			r.tr.count("web.self_ms", ms(lat-slowest))
		}
		return rec
	}
	r.timedPhase(func(int) []op { return round }, exec)

	type key struct{ text, body string }
	seen := map[key]error{}
	replies := map[key][]tree{}
	r.tally(func(rec *record) (bool, error) {
		k := key{rec.op.text, rec.out.(string)}
		if err, ok := seen[k]; ok {
			return false, err
		}
		ts, err := r.checkClusterReply(rec.op, k.body, refs[rec.op.text])
		seen[k], replies[k] = err, ts
		return false, err
	})
	for _, rec := range r.recs {
		if rec.err == nil {
			r.addRecall(replies[key{rec.op.text, rec.out.(string)}], fromResults(singles[rec.op.text]))
		}
	}
	for _, t := range seeded[:3] {
		res := refs[t]
		st := res.Stats
		if err := checkSteiner(r.g, r.m, tokens(t), fromResults(res),
			st.BudgetExhausted || st.CombosTruncated || st.MetadataTruncated || st.PartitionLocalBound); err != nil {
			r.problem("steiner %q: %v", t, err)
		}
	}
	for _, o := range round {
		if o.ideal >= 0 {
			if err := checkIdeals(r.anec[o.ideal], fromResults(singles[o.text]), r.g); err != nil {
				r.problem("single engine %q: %v", o.text, err)
			}
		}
	}
	r.searchMetrics()

	if r.tr != nil {
		r.coreLayer(seeded, func(t string) { rp.query(index.Tokenize(t), r.copts) })
		r.layer["web.handler_ms"] = median(r.tr.durations("web.handler"))
		r.layer["web.self_ms"] = median(r.tr.values("web.self_ms"))
		// The partitions search without a match cache:
		// index.cache_hit_rate stays 0.
		r.layer["cluster.route_us"] = 1000 * median(r.tr.durations("cluster.route"))
		r.layer["cluster.legs_routed"] = mean(r.tr.values("cluster.legs_routed"))
		r.layer["cluster.legs_pruned"] = mean(r.tr.values("cluster.legs_pruned"))
		r.layer["cluster.leg_ms"] = median(r.tr.durations("cluster.leg"))
		r.layer["cluster.slowest_leg_ms"] = median(r.tr.values("cluster.slowest_leg_ms"))
		r.layer["cluster.merge_us"] = 1000 * median(r.tr.durations("cluster.merge"))
		r.layer["store.faulted_mb"] = rp.faulted() / (1 << 20)
		if err := r.gateLayer(front); err != nil {
			return err
		}
		if err := r.storeLayer(storePath); err != nil {
			return err
		}
		split := filepath.Join(r.tmp, "layer.bstore")
		var serr error
		r.spanned("cluster.split_s", func() { serr = cluster.SplitStore(split, cluster.PartitionPaths(split, partitions)) })
		if serr != nil {
			return serr
		}
	}
	return nil
}

// checkClusterReply decodes one cluster /search reply and runs the
// oracles: agreement with Cluster.Query, then the per-answer oracles with
// the full graph's normalizers.
func (r *run) checkClusterReply(o *op, body string, ref *banks.Results) ([]tree, error) {
	var reply clusterReply
	if err := json.Unmarshal([]byte(body), &reply); err != nil {
		return nil, fmt.Errorf("decode reply: %w", err)
	}
	if reply.Error != "" {
		return nil, fmt.Errorf("cluster error: %s", reply.Error)
	}
	ts := fromCluster(reply.Answers)
	if err := checkAgreement(ts, fromResults(ref), tolExact); err != nil {
		return ts, fmt.Errorf("entry points disagree: %w", err)
	}
	terms := tokens(o.text)
	for i := range ts {
		if err := r.m.checkAnswer(&ts[i], terms, tolExact); err != nil {
			return ts, fmt.Errorf("answer %d: %w", i+1, err)
		}
	}
	return ts, nil
}

// clusterReplay holds the partition engines the traced run calls
// directly: the broker's route, each routed partition's Query, and the
// merge.
type clusterReplay struct {
	stores []*store.Store
	locals []*cluster.Local
	broker *cluster.Broker
	tids   map[string]int32
}

func (r *run) openReplay(paths []string) (*clusterReplay, error) {
	rp := &clusterReplay{tids: map[string]int32{}}
	var sketches []*cluster.Sketch
	for i, p := range paths {
		st, err := store.Open(p, store.Options{})
		if err != nil {
			rp.close()
			return nil, err
		}
		rp.stores = append(rp.stores, st)
		raw, err := st.TermStats()
		if err != nil {
			rp.close()
			return nil, err
		}
		sk, err := cluster.DecodeSketch(raw)
		if err != nil {
			rp.close()
			return nil, err
		}
		sketches = append(sketches, sk)
		rp.locals = append(rp.locals, cluster.NewLocalEngine(fmt.Sprintf("p%d", i), st.Graph(), st.Index(), raw))
	}
	rp.broker = cluster.NewBroker(sketches)
	for t := int32(0); t < int32(r.g.NumTables()); t++ {
		rp.tids[strings.ToLower(r.g.TableName(t))] = t
	}
	return rp, nil
}

// scatter replays one query's tokenize, route, per-partition term
// lookups, legs and merge as spans, one leg after another. The legs' total
// is the query's core.query_ms; it returns the slowest leg, the core time
// on the critical path of the cluster's concurrent scatter.
func (rp *clusterReplay) scatter(r *run, req, parent int64, text string) time.Duration {
	terms := r.tokenize(req, parent, text)
	var routed []int
	r.tr.call("cluster.route", req, parent, func() { routed = rp.broker.Route(terms, true, false) })
	r.tr.count("cluster.legs_routed", float64(len(routed)))
	r.tr.count("cluster.legs_pruned", float64(len(rp.locals)-len(routed)))
	for _, p := range routed {
		ix := rp.stores[p].Index()
		for _, t := range terms {
			d := r.tr.call("index.lookup", req, parent, func() { ix.Lookup(t) })
			r.tr.count("index.lookup_us", us(d))
		}
	}
	creq := cluster.RequestFromOptions(terms, false, false, r.copts)
	var lists [][]cluster.Answer
	var total, slowest time.Duration
	for _, p := range routed {
		var res *cluster.Result
		d := r.tr.call("cluster.leg", req, parent, func() { res, _ = rp.locals[p].Query(context.Background(), creq) })
		total += d
		slowest = max(slowest, d)
		if res != nil {
			lists = append(lists, res.Answers)
		}
	}
	r.tr.count("core.query_ms", ms(total))
	r.tr.count("cluster.slowest_leg_ms", ms(slowest))
	r.tr.call("cluster.merge", req, parent, func() { cluster.MergeAnswers(rp.tids, lists, creq.TopK) })
	return slowest
}

// query runs one query's route, legs and merge without spans.
func (rp *clusterReplay) query(terms []string, copts *core.Options) {
	creq := cluster.RequestFromOptions(terms, false, false, copts)
	var lists [][]cluster.Answer
	for _, p := range rp.broker.Route(terms, true, false) {
		if res, _ := rp.locals[p].Query(context.Background(), creq); res != nil {
			lists = append(lists, res.Answers)
		}
	}
	cluster.MergeAnswers(rp.tids, lists, creq.TopK)
}

func (rp *clusterReplay) faulted() float64 {
	var n int64
	for _, st := range rp.stores {
		n += st.FaultedBytes()
	}
	return float64(n)
}

func (rp *clusterReplay) close() {
	for _, st := range rp.stores {
		st.Close()
	}
}
