package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/eval"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/sqldb"
)

// dblpConfig is the database of a workload. The data is fixed per
// workload; --seed varies only the queries and mutations drawn from it.
func dblpConfig(scale float64) datagen.DBLPConfig {
	cfg := datagen.PaperScaleDBLP() // §5.2: ≈100K nodes, ≈300K arcs
	cfg.Papers = int(float64(cfg.Papers) * scale)
	cfg.Authors = int(float64(cfg.Authors) * scale)
	cfg.Cites = int(float64(cfg.Cites) * scale)
	return cfg
}

const (
	// Query mix of one deep-pairs round.
	coauthorPairs   = 90
	coauthorTriples = 45
	citationPairs   = 90
	// maxMatch caps each id term's match set |S_i| (its own row plus the
	// link rows naming it), keeping expansion deep and origins few.
	maxMatch = 10
	// broadQueries is the number of title-word pairs in a broad-terms round.
	broadQueries = 240
	// churnQueries is the number of deep-pairs queries between two Apply
	// batches of write-churn.
	churnQueries = 25
)

// op is one operation of a workload round.
type op struct {
	kind  string // opSearch, opNoisy, opApply, opReadback
	text  string // query text
	ideal int    // index into the §5.1 suite, or -1
	batch int    // index of the mutation batch (opApply, opReadback)
}

const (
	opSearch   = "search"
	opNoisy    = "noisy"
	opApply    = "apply"
	opReadback = "readback"
)

// idealQuery is one §5.1 anecdote query with its hand-picked ideals.
type idealQuery struct {
	text   string
	ideals []eval.IdealAnswer
	// names marks the queries made of author names only, which join the
	// timed deep-pairs mix. The others use title words, whose match sets
	// run to thousands of nodes; they are checked once after timing.
	names bool
}

var nameAnecdotes = map[string]bool{
	"coauthors": true, "common-coauthor": true, "single-author": true, "three-coauthors": true,
}

// anecdotes returns the §5.1 evaluation suite as query texts.
func anecdotes(db *sqldb.Database, g graph.View) ([]idealQuery, error) {
	suite, err := eval.DBLPSuite(db, g)
	if err != nil {
		return nil, err
	}
	out := make([]idealQuery, len(suite))
	for i, q := range suite {
		out[i] = idealQuery{text: strings.Join(q.Terms, " "), ideals: q.Ideals, names: nameAnecdotes[q.Name]}
	}
	return out, nil
}

// noisyVariants re-spells every name anecdote query with punctuation
// glued to a term and mixed case; the result is parallel to qs (empty
// for the title-word anecdotes). They are fixed (no seed): the HTML front door
// splits on whitespace only, so each variant has a term that matches
// nothing there, while System.Query tokenizes it to the original query.
func noisyVariants(qs []idealQuery) []string {
	seps := []string{", ", "; ", ",", " / ", "! "}
	out := make([]string, len(qs))
	for i, q := range qs {
		if !q.names {
			continue
		}
		terms := strings.Fields(q.text)
		terms[0] = strings.ToUpper(terms[0][:1]) + terms[0][1:]
		if len(terms) == 1 {
			out[i] = terms[0] + "."
			continue
		}
		out[i] = terms[0] + seps[i%len(seps)] + strings.Join(terms[1:], " ")
	}
	return out
}

// idPools indexes the DBLP link rows the id-keyed query families draw on.
type idPools struct {
	authorsOf map[string][]string // paper id -> author ids, in row order
	papers    []string            // papers with at least one author, in row order
	cites     [][2]string         // (citing, cited)
	matches   map[string]int      // token -> rows containing it
}

func newIDPools(m *model) *idPools {
	p := &idPools{authorsOf: map[string][]string{}, matches: map[string]int{}}
	rows := make([]ref, 0, len(m.rows))
	for r := range m.rows {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Table != rows[j].Table {
			return rows[i].Table < rows[j].Table
		}
		return rows[i].RID < rows[j].RID
	})
	for _, r := range rows {
		vals := m.rows[r]
		seen := map[string]bool{}
		for _, v := range vals {
			for _, t := range tokens(v) {
				if !seen[t] {
					seen[t] = true
					p.matches[t]++
				}
			}
		}
		switch r.Table {
		case "Writes":
			if p.authorsOf[vals[1]] == nil {
				p.papers = append(p.papers, vals[1])
			}
			p.authorsOf[vals[1]] = append(p.authorsOf[vals[1]], vals[0])
		case "Cites":
			p.cites = append(p.cites, [2]string{vals[0], vals[1]})
		}
	}
	return p
}

func (p *idPools) small(ids ...string) bool {
	for _, id := range ids {
		if n := p.matches[strings.ToLower(id)]; n == 0 || n > maxMatch {
			return false
		}
	}
	return true
}

// deepPoolSeed draws the id-keyed query pool. The pool is fixed and the
// workload seed only orders it: per-query cost is heavy-tailed (0.5 ms to
// the 200K-pop budget), so a seeded sample of this size moved search_p50_ms
// and search_rps by ±17% between seeds, more than any bound could absorb.
const deepPoolSeed = 1

// deepQueries returns the id-keyed part of a deep-pairs round: coauthor
// pairs and triples (authors of one paper) and citation pairs (a citing
// paper and an author of the paper it cites), every term with a small
// match set, in an order drawn from seed.
func deepQueries(p *idPools, seed int64) []string {
	out := deepPool(p)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// deepPool draws the id-keyed pool in draw order.
func deepPool(p *idPools) []string {
	rng := rand.New(rand.NewSource(deepPoolSeed))
	seen := map[string]bool{}
	var out []string
	add := func(q string) bool {
		if seen[q] {
			return false
		}
		seen[q] = true
		out = append(out, q)
		return true
	}
	for n := 0; n < coauthorPairs; {
		as := p.authorsOf[p.papers[rng.Intn(len(p.papers))]]
		if len(as) >= 2 && p.small(as[0], as[1]) && add(as[0]+" "+as[1]) {
			n++
		}
	}
	for n := 0; n < coauthorTriples; {
		as := p.authorsOf[p.papers[rng.Intn(len(p.papers))]]
		if len(as) >= 3 && p.small(as[0], as[1], as[2]) && add(as[0]+" "+as[1]+" "+as[2]) {
			n++
		}
	}
	for n := 0; n < citationPairs; {
		c := p.cites[rng.Intn(len(p.cites))]
		as := p.authorsOf[c[1]]
		if len(as) == 0 {
			continue
		}
		a := as[rng.Intn(len(as))]
		if p.small(c[0], a) && add(c[0]+" "+a) {
			n++
		}
	}
	return out
}

// clusterQueries is the fixed third of the deep-pairs pool that
// cluster-scatter sends (every third query in draw order, 30 coauthor
// pairs, 15 triples, 30 citation pairs), ordered by seed: a partition-local
// search reaches the pop budget far more often than the single engine, so
// the whole pool would leave too few rounds in a run.
func clusterQueries(p *idPools, seed int64) []string {
	all := deepPool(p)
	var out []string
	for i := 0; i < len(all); i += 3 {
		out = append(out, all[i])
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// broadQueryTexts draws two distinct title words per query from the Zipf
// title-term stream.
func broadQueryTexts(seed int64) []string {
	zt := datagen.ZipfTerms(8*broadQueries, seed)
	seen := map[string]bool{}
	var out []string
	for i := 0; i+1 < len(zt) && len(out) < broadQueries; i += 2 {
		if zt[i] == zt[i+1] {
			continue
		}
		q := zt[i] + " " + zt[i+1]
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// batchPlan is one write-churn Apply batch: insert a paper whose title
// carries a fresh token, with two Writes rows; re-title the previous
// batch's paper with another fresh token; delete the previous batch's
// first Writes row.
type batchPlan struct {
	paperID    string
	title      string
	fresh      string // token only the new paper's title carries
	year       int64
	authors    [2]string
	retitle    string // new title for the previous batch's paper
	retitleTok string
}

// churnPlan draws batches from the authors with small match sets.
type churnPlan struct {
	seed    int64
	authors []string
}

func newChurnPlan(p *idPools, seed int64) *churnPlan {
	c := &churnPlan{seed: seed}
	for _, pid := range p.papers {
		for _, a := range p.authorsOf[pid] {
			if p.small(a) {
				c.authors = append(c.authors, a)
			}
		}
	}
	return c
}

// batch returns batch i; it depends only on the seed and i.
func (c *churnPlan) batch(i int) batchPlan {
	rng := rand.New(rand.NewSource(c.seed*1000003 + int64(i)))
	words := datagen.TitleWords()
	b := batchPlan{
		paperID:    fmt.Sprintf("WC%d", i),
		fresh:      fmt.Sprintf("fresh%dx%d", uint32(c.seed), i),
		year:       int64(1990 + rng.Intn(12)),
		retitleTok: fmt.Sprintf("retitled%dx%d", uint32(c.seed), i),
	}
	b.title = b.fresh + " " + words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
	b.retitle = b.retitleTok + " " + words[rng.Intn(len(words))]
	b.authors[0] = c.authors[rng.Intn(len(c.authors))]
	for b.authors[1] = b.authors[0]; b.authors[1] == b.authors[0]; {
		b.authors[1] = c.authors[rng.Intn(len(c.authors))]
	}
	return b
}
