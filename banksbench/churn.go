package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	banks "github.com/banksdb/banks"
	"github.com/banksdb/banks/internal/store"
)

// appliedBatch is what one Apply produced: the rows it inserted.
type appliedBatch struct {
	plan     batchPlan
	muts     []banks.Mutation
	rids     []int64
	paper    int64 // rid of the inserted paper
	firstRow int64 // rid of its first Writes row
}

// runChurn runs write-churn: the deep-pairs database saved as a store,
// reopened mmap-backed with a WAL, with Apply batches alternating with
// deep-pairs queries through System.Query, and one Compact at the end.
func runChurn(r *run) error {
	if err := r.prepare(1); err != nil {
		return err
	}
	pool := deepQueries(r.pools, r.seed)
	plan := newChurnPlan(r.pools, r.seed)

	var sys *banks.System
	var storePath, walPath string
	err := r.measureSetup(func(i int) (func(), error) {
		sp := filepath.Join(r.tmp, fmt.Sprintf("churn%d.bstore", i))
		wp := sp + ".wal"
		built, err := banks.NewSystem(r.db, nil)
		if err != nil {
			return nil, err
		}
		err = built.Save(sp)
		built.Close()
		if err != nil {
			return nil, err
		}
		s, err := banks.OpenSystem(sp, r.db, &banks.SystemOptions{WALPath: wp, StorePath: sp})
		if err != nil {
			return nil, err
		}
		sys, storePath, walPath = s, sp, wp
		return func() { s.Close(); os.Remove(sp); os.Remove(wp) }, nil
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	query := func(text string) (*banks.Results, error) {
		return sys.Query(context.Background(), banks.Query{Text: text, Options: searchOptions()})
	}
	refs, err := warmReference(pool, query)
	if err != nil {
		return err
	}
	if r.tr != nil {
		// The traced run's direct index and core calls read the same
		// store file the System serves, without its WAL overlays.
		st, err := store.Open(storePath, store.Options{})
		if err != nil {
			return err
		}
		defer st.Close()
		r.replayOn(st.Graph(), st.Index())
	}

	// Batch 0 inserts the first paper before timing, so every timed batch
	// has the same shape: insert, re-title and delete. Once a batch fails,
	// the later ones, which build on it, are not sent and count as failed.
	var done []appliedBatch
	apply := func(b int) (time.Duration, error) {
		if b != len(done) {
			return 0, fmt.Errorf("batch %d not sent: batch %d failed", b, len(done))
		}
		p := plan.batch(b)
		ab := appliedBatch{plan: p}
		ab.muts = []banks.Mutation{
			banks.Insert("Paper", map[string]interface{}{"PaperId": p.paperID, "PaperName": p.title, "Year": p.year}),
			banks.Insert("Writes", map[string]interface{}{"AuthorId": p.authors[0], "PaperId": p.paperID}),
			banks.Insert("Writes", map[string]interface{}{"AuthorId": p.authors[1], "PaperId": p.paperID}),
		}
		if b > 0 {
			prev := done[b-1]
			ab.muts = append(ab.muts,
				banks.Update("Paper", prev.paper, map[string]interface{}{"PaperName": p.retitle}),
				banks.Delete("Writes", prev.firstRow))
		}
		start := time.Now()
		res, err := sys.Apply(context.Background(), ab.muts)
		lat := time.Since(start)
		if err != nil {
			return lat, fmt.Errorf("apply batch %d: %w", b, err)
		}
		ab.rids, ab.paper, ab.firstRow = res.RIDs, res.RIDs[0], res.RIDs[1]
		done = append(done, ab)
		return lat, nil
	}
	if _, err := apply(0); err != nil {
		return err
	}
	walBefore, err := fileSize(walPath)
	if err != nil {
		return err
	}

	// A round walks the whole pool once: each batch is followed by its
	// read-backs and the next churnQueries queries of the pool.
	ops := func(round int) []op {
		b := len(done)
		var out []op
		for j := 0; j < len(pool); j += churnQueries {
			next := plan.batch(b)
			out = append(out, op{kind: opApply, batch: b},
				op{kind: opReadback, text: next.fresh, batch: b},
				op{kind: opReadback, text: next.retitleTok, batch: b - 1})
			for _, t := range pool[j:min(j+churnQueries, len(pool))] {
				out = append(out, op{kind: opSearch, text: t, ideal: -1})
			}
			b++
		}
		return out
	}
	exec := func(o *op) record {
		if o.kind == opApply {
			start := time.Now()
			lat, err := apply(o.batch)
			if r.traced() {
				r.tr.add("banks.apply", r.tr.newReq(), 0, start, time.Now())
			}
			return record{op: o, lat: lat, err: err, ver: len(done)}
		}
		req := r.tr.newReq()
		start := time.Now()
		res, err := query(o.text)
		lat := time.Since(start)
		rec := record{op: o, lat: lat, err: err, out: res, ver: len(done)}
		if r.traced() && o.kind == opSearch && res != nil {
			h := r.tr.add("banks.query", req, 0, start, start.Add(lat))
			r.replayCore(req, h, o.text)
			st := res.Stats
			r.coreCounts(st.MatchedNodes, st.Pops, st.ArcsScanned, st.Generated, len(res.Answers))
		}
		return rec
	}
	r.timedPhase(ops, exec)

	walAfter, err := fileSize(walPath)
	if err != nil {
		return err
	}
	applies := len(done) - 1
	pending := sys.PendingMutations()
	var cerr error
	compact := timed(func() { cerr = sys.Compact() })
	if cerr != nil {
		return fmt.Errorf("compact: %w", cerr)
	}

	// The Steiner check runs on answers from before batch 0, while the
	// benchmark's graph still matches the database.
	for _, t := range pool[:3] {
		res := refs[t]
		st := res.Stats
		if err := checkSteiner(r.g, r.m, tokens(t), fromResults(res),
			st.BudgetExhausted || st.CombosTruncated || st.MetadataTruncated); err != nil {
			r.problem("steiner %q: %v", t, err)
		}
	}

	// Oracles: replay the batches into the model in order and check every
	// answer against the state its query saw.
	byVer := map[int][]*record{}
	for i := range r.recs {
		byVer[r.recs[i].ver] = append(byVer[r.recs[i].ver], &r.recs[i])
	}
	verdicts := map[*record]error{}
	for v := 1; v <= len(done); v++ {
		r.m.applyBatch(done[v-1])
		for _, rec := range byVer[v] {
			if rec.err == nil && rec.op.kind != opApply {
				verdicts[rec] = r.checkChurn(rec, done)
			}
		}
	}
	r.tally(func(rec *record) (bool, error) { return false, verdicts[rec] })

	// After Compact, answers equal those of a fresh rebuild.
	fresh, err := banks.NewSystem(r.db, nil)
	if err != nil {
		return err
	}
	last := done[len(done)-1].plan
	for _, t := range append(append([]string(nil), pool...), last.fresh, last.retitleTok) {
		got, err1 := query(t)
		want, err2 := fresh.Query(context.Background(), banks.Query{Text: t, Options: searchOptions()})
		if err1 != nil || err2 != nil {
			r.problem("post-compact %q: %v / %v", t, err1, err2)
			continue
		}
		g, w := fromResults(got), fromResults(want)
		if err := checkAgreement(g, w, tolExact); err != nil {
			r.problem("post-compact %q differs from a rebuild: %v", t, err)
			continue
		}
		for i := range g {
			if g[i].signature(r.m) != w[i].signature(r.m) {
				r.problem("post-compact %q answer %d differs from a rebuild", t, i+1)
				break
			}
		}
		r.addRecall(g, w)
	}
	r.searchMetrics()

	if r.tr != nil {
		r.coreLayer(pool, nil)
		r.layer["index.cache_hit_rate"] = sys.CacheStats().HitRate()
		var applyLat []float64
		for _, rec := range r.recs {
			if rec.op.kind == opApply && rec.err == nil {
				applyLat = append(applyLat, ms(rec.lat))
			}
		}
		r.layer["mutate.apply_ms"] = median(applyLat)
		r.layer["wal.bytes_per_apply"] = float64(walAfter-walBefore) / float64(applies)
		r.layer["mutate.pending"] = float64(pending)
		r.layer["mutate.compact_s"] = compact.Seconds()
		if st, ok := sys.StoreStats(); ok {
			r.layer["store.faulted_mb"] = float64(st.FaultedBytes) / (1 << 20)
		}
		if err := r.storeLayer(storePath); err != nil {
			return err
		}
	}
	return nil
}

// checkChurn checks one write-churn answer list against the model at the
// version its query saw; a read-back must also surface the row its batch
// wrote.
func (r *run) checkChurn(rec *record, done []appliedBatch) error {
	res := rec.out.(*banks.Results)
	ts := fromResults(res)
	terms := tokens(rec.op.text)
	for i := range ts {
		if err := r.m.checkAnswer(&ts[i], terms, tolExact); err != nil {
			return fmt.Errorf("answer %d: %w", i+1, err)
		}
	}
	if rec.op.kind != opReadback {
		return nil
	}
	if rec.op.batch >= len(done) {
		return fmt.Errorf("batch %d was not applied", rec.op.batch)
	}
	want := ref{"Paper", done[rec.op.batch].paper}
	for i := range ts {
		for _, n := range ts[i].nodes() {
			if n == want {
				return nil
			}
		}
	}
	return fmt.Errorf("batch %d's paper %v cannot be read back", rec.op.batch, want)
}

// applyBatch replays one applied batch into the model.
func (m *model) applyBatch(ab appliedBatch) {
	for i, mu := range ab.muts {
		set := map[string]string{}
		for k, v := range mu.Set {
			switch x := v.(type) {
			case string:
				set[k] = x
			case int64:
				set[k] = strconv.FormatInt(x, 10)
			default:
				set[k] = fmt.Sprint(x)
			}
		}
		switch mu.Op {
		case banks.MutationInsert:
			m.insert(mu.Table, ab.rids[i], set)
		case banks.MutationUpdate:
			m.update(ref{mu.Table, mu.RID}, set)
		case banks.MutationDelete:
			m.delete(ref{mu.Table, mu.RID})
		}
	}
}

// storeLayer times the store layer directly: writing the replay engine to
// a store file and opening it.
func (r *run) storeLayer(saved string) error {
	path := filepath.Join(r.tmp, "layer.bstore")
	var werr error
	r.spanned("store.write_s", func() { werr = store.WriteFile(path, store.Engine{Graph: r.g, Index: r.ix}) })
	if werr != nil {
		return werr
	}
	var st *store.Store
	var oerr error
	r.spanned("store.open_s", func() { st, oerr = store.Open(path, store.Options{}) })
	if oerr != nil {
		return oerr
	}
	st.Close()
	size, err := fileSize(saved)
	if err != nil {
		return err
	}
	r.layer["store.file_mb"] = float64(size) / (1 << 20)
	return nil
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
