package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	banks "github.com/banksdb/banks"
	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/steiner"
)

// tree is one answer in entry-point-neutral form: the HTML front door,
// System.Query and the cluster's JSON all reduce to it.
type tree struct {
	score  float64
	weight float64 // reported tree weight; NaN when the entry point hides it
	root   ref
	edges  []tedge
	// matched holds the nodes the entry point flagged as keyword matches;
	// termNodes, when the entry point reports it, the match of each term.
	matched   []ref
	termNodes []ref
}

type tedge struct {
	from, to ref
	w        float64 // reported edge weight; NaN when hidden
}

// nodes returns the tree's node set, root first.
func (t *tree) nodes() []ref {
	out := []ref{t.root}
	for _, e := range t.edges {
		out = append(out, e.to)
	}
	return out
}

// signature identifies a tree by its node set, as §5.3 compares answers.
// Nodes are named by their row text, so rows with identical text (which
// the HTML front door cannot tell apart) count as the same node.
func (t *tree) signature(m *model) string {
	ns := t.nodes()
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = m.label(n)
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// scoreTol is the agreement needed between a reported and a recomputed
// score: HTML prints four decimals, the APIs return float64s.
const (
	tolHTML  = 0.5e-4 + 1e-9
	tolExact = 1e-9
)

// checkAnswer runs the per-answer oracles: the tree is a rooted tree whose
// every edge is a foreign-key reference between its two rows, every query
// term occurs in some node's row text, and the score is the §2.3 formula
// recomputed from the model's edge weights, prestige and normalizers.
func (m *model) checkAnswer(t *tree, terms []string, tol float64) error {
	if err := m.checkShape(t); err != nil {
		return err
	}
	if err := m.checkTerms(t, terms); err != nil {
		return err
	}
	return m.checkScore(t, terms, tol)
}

func (m *model) checkShape(t *tree) error {
	seen := map[ref]bool{t.root: true}
	if _, ok := m.rows[t.root]; !ok {
		return m.missingRow(t.root)
	}
	// Edges arrive parent-first (pre-order), so every edge's parent must
	// already be in the tree and its child must be new.
	for _, e := range t.edges {
		if !seen[e.from] {
			return fmt.Errorf("edge %v→%v leaves a node not yet in the tree", e.from, e.to)
		}
		if seen[e.to] {
			return fmt.Errorf("node %v appears twice: not a tree", e.to)
		}
		seen[e.to] = true
		if _, ok := m.rows[e.to]; !ok {
			return m.missingRow(e.to)
		}
		w, ok := m.arcWeight(e.from, e.to)
		if !ok {
			return fmt.Errorf("edge %v→%v is no foreign-key reference between the rows", e.from, e.to)
		}
		if !math.IsNaN(e.w) && math.Abs(e.w-w) > 1e-9*math.Max(1, w) {
			return fmt.Errorf("edge %v→%v weighs %g, the schema gives %g", e.from, e.to, e.w, w)
		}
	}
	for _, n := range append(append([]ref(nil), t.matched...), t.termNodes...) {
		if !seen[n] {
			return fmt.Errorf("keyword node %v is not in the tree", n)
		}
	}
	return nil
}

func (m *model) missingRow(r ref) error {
	if m.deleted[r] {
		return fmt.Errorf("deleted row %v surfaced in an answer", r)
	}
	return fmt.Errorf("row %v does not exist", r)
}

func (m *model) checkTerms(t *tree, terms []string) error {
	ns := t.nodes()
	for _, term := range terms {
		found := false
		for _, n := range ns {
			if m.contains(n, term) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("term %q occurs in no row of the tree", term)
		}
	}
	return nil
}

// checkScore recomputes the §2.3 score with the default ranking (edge log
// scaling, additive, λ=0.2). When the entry point reports only which nodes
// matched, not which term each matched, any assignment of terms to matched
// nodes containing them that covers every matched node may explain it.
func (m *model) checkScore(t *tree, terms []string, tol float64) error {
	wmin, wmax := m.wMin(), m.wMax()
	var esum, weight float64
	for _, e := range t.edges {
		w, _ := m.arcWeight(e.from, e.to)
		weight += w
		esum += math.Log2(1 + w/wmin)
	}
	if !math.IsNaN(t.weight) && math.Abs(t.weight-weight) > 1e-9*math.Max(1, weight) {
		return fmt.Errorf("tree weight %g, the edges sum to %g", t.weight, weight)
	}
	escore := 1 / (1 + esum)
	ns := func(r ref) float64 {
		if wmax <= 0 {
			return 0
		}
		return float64(m.prestige[r]) / wmax
	}
	score := func(leaves []ref) float64 {
		total := ns(t.root)
		for _, l := range leaves {
			total += ns(l)
		}
		nscore := total / float64(1+len(leaves))
		return 0.8*escore + 0.2*nscore
	}
	if t.termNodes != nil {
		if len(t.termNodes) != len(terms) {
			return fmt.Errorf("%d term nodes for %d terms", len(t.termNodes), len(terms))
		}
		for i, n := range t.termNodes {
			if !m.contains(n, terms[i]) {
				return fmt.Errorf("term node %v does not contain %q", n, terms[i])
			}
		}
		if s := score(t.termNodes); math.Abs(s-t.score) > tol {
			return fmt.Errorf("score %.6f, §2.3 gives %.6f", t.score, s)
		}
		return nil
	}
	cands := make([][]ref, len(terms))
	for i, term := range terms {
		for _, n := range t.matched {
			if m.contains(n, term) {
				cands[i] = append(cands[i], n)
			}
		}
		if len(cands[i]) == 0 {
			return fmt.Errorf("no keyword node contains %q", term)
		}
	}
	pick := make([]ref, len(terms))
	best := math.Inf(1)
	var walk func(i int) bool
	walk = func(i int) bool {
		if i == len(terms) {
			for _, n := range t.matched {
				covered := false
				for _, p := range pick {
					covered = covered || p == n
				}
				if !covered {
					return false
				}
			}
			s := score(pick)
			best = math.Min(best, math.Abs(s-t.score))
			return best <= tol
		}
		for _, c := range cands[i] {
			pick[i] = c
			if walk(i + 1) {
				return true
			}
		}
		return false
	}
	if !walk(0) {
		return fmt.Errorf("score %.6f: no term assignment reproduces it under §2.3 (closest off by %.6f)", t.score, best)
	}
	return nil
}

// checkAgreement requires two entry points to return the same number of
// answers with the same scores, in order.
func checkAgreement(got, want []tree, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, the reference returns %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].score-want[i].score) > tol {
			return fmt.Errorf("answer %d scores %.6f, the reference %.6f", i+1, got[i].score, want[i].score)
		}
	}
	return nil
}

// checkSteiner compares answers with the exact minimum connection tree:
// no answer may weigh less than the optimum, and when a connection exists
// the search must return at least one answer unless it reported a cut.
func checkSteiner(g *graph.Graph, m *model, terms []string, answers []tree, truncated bool) error {
	groups := make([][]graph.NodeID, len(terms))
	for r := range m.rows {
		for i, term := range terms {
			if m.contains(r, term) {
				groups[i] = append(groups[i], g.NodeOf(r.Table, sqldbRID(r.RID)))
			}
		}
	}
	for i, grp := range groups {
		if len(grp) == 0 {
			if len(answers) > 0 {
				return fmt.Errorf("answers returned though %q matches no row", terms[i])
			}
			return nil
		}
		sort.Slice(grp, func(a, b int) bool { return grp[a] < grp[b] })
	}
	opt, _, err := steiner.MinConnectionTree(g, groups)
	if err != nil {
		return err
	}
	if math.IsInf(opt, 1) {
		if len(answers) > 0 {
			return fmt.Errorf("%d answers though no connection tree exists", len(answers))
		}
		return nil
	}
	if len(answers) == 0 && !truncated {
		return fmt.Errorf("no answers though a connection of weight %g exists", opt)
	}
	for i := range answers {
		var w float64
		for _, e := range answers[i].edges {
			aw, _ := m.arcWeight(e.from, e.to)
			w += aw
		}
		if w < opt-1e-9 {
			return fmt.Errorf("answer %d weighs %g, below the exact optimum %g", i+1, w, opt)
		}
	}
	return nil
}

// checkIdeals requires every §5.1 ideal answer of q within the top 10.
func checkIdeals(q idealQuery, answers []tree, g graph.View) error {
	top := answers
	if len(top) > 10 {
		top = top[:10]
	}
	for _, ideal := range q.ideals {
		found := false
		for i := range top {
			if ideal.Match(toCore(&top[i], g), g) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("ideal answer %q missing from the top 10", ideal.Desc)
		}
	}
	return nil
}

// toCore converts a tree to the engine's answer form over graph g, for the
// evaluation suite's ideal-answer matchers.
func toCore(t *tree, g graph.View) *core.Answer {
	n := func(r ref) graph.NodeID { return g.NodeOf(r.Table, sqldbRID(r.RID)) }
	a := &core.Answer{Root: n(t.root), Score: t.score}
	for _, e := range t.edges {
		a.Edges = append(a.Edges, core.TreeEdge{From: n(e.from), To: n(e.to), W: e.w})
	}
	for _, r := range t.matched {
		a.TermNodes = append(a.TermNodes, n(r))
	}
	return a
}

// fromResults converts System.Query answers.
func fromResults(res *banks.Results) []tree {
	out := make([]tree, 0, len(res.Answers))
	for _, a := range res.Answers {
		t := tree{score: a.Score, weight: a.Weight, root: ref{a.Root.Table, a.Root.RID}}
		var walk func(n *banks.TreeNode)
		walk = func(n *banks.TreeNode) {
			r := ref{n.Tuple.Table, n.Tuple.RID}
			if n.Matched {
				t.matched = append(t.matched, r)
			}
			for _, c := range n.Children {
				t.edges = append(t.edges, tedge{from: r, to: ref{c.Tuple.Table, c.Tuple.RID}, w: c.EdgeWeight})
				walk(c)
			}
		}
		walk(a.Tree)
		out = append(out, t)
	}
	return out
}

// fromCluster converts wire-form cluster answers. The wire lists edges
// sorted, not in tree order, so they are re-ordered parent-first here.
func fromCluster(as []cluster.Answer) []tree {
	out := make([]tree, 0, len(as))
	for _, a := range as {
		t := tree{score: a.Score, weight: a.Weight, root: ref{a.Root.Table, a.Root.RID}, termNodes: []ref{}}
		for _, r := range a.TermNodes {
			t.termNodes = append(t.termNodes, ref{r.Table, r.RID})
		}
		pending := make([]tedge, 0, len(a.Edges))
		for _, e := range a.Edges {
			pending = append(pending, tedge{from: ref{e.From.Table, e.From.RID}, to: ref{e.To.Table, e.To.RID}, w: e.W})
		}
		in := map[ref]bool{t.root: true}
		for len(pending) > 0 {
			progress := false
			rest := pending[:0]
			for _, e := range pending {
				if in[e.from] && !in[e.to] {
					t.edges = append(t.edges, e)
					in[e.to] = true
					progress = true
				} else {
					rest = append(rest, e)
				}
			}
			pending = rest
			if !progress {
				// Unreachable or repeated nodes: keep them so the shape
				// check reports them.
				t.edges = append(t.edges, pending...)
				break
			}
		}
		out = append(out, t)
	}
	return out
}
