package main

import (
	"context"
	"io"
	"math"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	banks "github.com/banksdb/banks"
	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/datagen"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/sqldb"
)

// fixture is a small DBLP database with a system over it, shared by the
// tests: every oracle must accept the engine's own answers, and reject
// each kind of corruption.
type fixture struct {
	sdb *sqldb.Database
	sys *banks.System
	m   *model
	g   *graph.Graph
}

var (
	fixOnce sync.Once
	fix     fixture
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		sdb, err := datagen.BuildDBLP(datagen.SmallDBLP())
		if err != nil {
			panic(err)
		}
		sys, err := banks.NewSystem(banks.WrapDatabase(sdb), nil)
		if err != nil {
			panic(err)
		}
		g, err := graph.Build(sdb, nil)
		if err != nil {
			panic(err)
		}
		fix = fixture{sdb: sdb, sys: sys, m: newModel(sdb), g: g}
	})
	return &fix
}

func (f *fixture) answers(t *testing.T, text string) []tree {
	t.Helper()
	res, err := f.sys.Query(context.Background(), banks.Query{Text: text, Options: searchOptions()})
	if err != nil {
		t.Fatalf("query %q: %v", text, err)
	}
	ts := fromResults(res)
	if len(ts) == 0 {
		t.Fatalf("query %q: no answers", text)
	}
	return ts
}

// multiEdge returns the first answer with at least two edges.
func multiEdge(t *testing.T, ts []tree) tree {
	t.Helper()
	for _, a := range ts {
		if len(a.edges) >= 2 {
			return a
		}
	}
	t.Fatal("no answer with two edges")
	return tree{}
}

func cloneTree(a tree) tree {
	a.edges = append([]tedge(nil), a.edges...)
	a.matched = append([]ref(nil), a.matched...)
	if a.termNodes != nil {
		a.termNodes = append([]ref(nil), a.termNodes...)
	}
	return a
}

func TestOraclesAcceptEngineAnswers(t *testing.T) {
	f := getFixture(t)
	for _, q := range []string{"soumen sunita", "seltzer sunita", "soumen sunita byron", "mohan"} {
		for i, a := range f.answers(t, q) {
			if err := f.m.checkAnswer(&a, tokens(q), tolExact); err != nil {
				t.Errorf("%q answer %d rejected: %v", q, i+1, err)
			}
		}
	}
}

func TestScoreOracleRejectsWrongScore(t *testing.T) {
	f := getFixture(t)
	a := cloneTree(f.answers(t, "soumen sunita")[0])
	a.score += 0.001
	if err := f.m.checkAnswer(&a, []string{"soumen", "sunita"}, tolExact); err == nil {
		t.Fatal("a wrong score passed the §2.3 oracle")
	}
}

func TestScoreOracleRejectsWrongWeight(t *testing.T) {
	f := getFixture(t)
	a := cloneTree(multiEdge(t, f.answers(t, "soumen sunita")))
	a.weight++
	if err := f.m.checkAnswer(&a, []string{"soumen", "sunita"}, tolExact); err == nil {
		t.Fatal("a wrong tree weight passed")
	}
	b := cloneTree(multiEdge(t, f.answers(t, "soumen sunita")))
	b.edges[0].w *= 2
	if err := f.m.checkAnswer(&b, []string{"soumen", "sunita"}, tolExact); err == nil {
		t.Fatal("a wrong edge weight passed")
	}
}

func TestTermOracleRejectsMissingTerm(t *testing.T) {
	f := getFixture(t)
	a := f.answers(t, "soumen sunita")[0]
	if err := f.m.checkTerms(&a, []string{"soumen", "stonebraker"}); err == nil {
		t.Fatal("an answer without the term passed the term oracle")
	}
}

func TestShapeOracleRejectsEdgeNotInGraph(t *testing.T) {
	f := getFixture(t)
	a := cloneTree(multiEdge(t, f.answers(t, "soumen sunita")))
	// Re-hang the last edge's child under a row that does not reference
	// it: an Author row never references another row.
	last := a.edges[len(a.edges)-1]
	var stranger ref
	for r := range f.m.rows {
		if r.Table == "Author" && r != last.to && r != a.root {
			if _, ok := f.m.arcWeight(r, last.to); !ok {
				stranger = r
				break
			}
		}
	}
	a.edges = append(a.edges[:len(a.edges)-1], tedge{from: a.root, to: stranger, w: math.NaN()})
	if err := f.m.checkShape(&a); err == nil || !strings.Contains(err.Error(), "foreign-key") {
		t.Fatalf("an edge that is no reference passed: %v", err)
	}
}

func TestShapeOracleRejectsRepeatedNode(t *testing.T) {
	f := getFixture(t)
	a := cloneTree(multiEdge(t, f.answers(t, "soumen sunita")))
	a.edges = append(a.edges, a.edges[0])
	if err := f.m.checkShape(&a); err == nil {
		t.Fatal("a node reached twice passed as a tree")
	}
}

func TestShapeOracleRejectsDeletedRow(t *testing.T) {
	f := getFixture(t)
	a := multiEdge(t, f.answers(t, "soumen sunita"))
	m := newModel(f.sdb)
	m.delete(a.edges[0].to)
	if err := m.checkShape(&a); err == nil || !strings.Contains(err.Error(), "deleted") {
		t.Fatalf("a deleted row surfaced unnoticed: %v", err)
	}
}

func TestAgreementRejectsDifferentAnswers(t *testing.T) {
	f := getFixture(t)
	ts := f.answers(t, "soumen sunita")
	if err := checkAgreement(ts[1:], ts, tolExact); err == nil {
		t.Fatal("a missing answer passed the agreement check")
	}
	other := append([]tree(nil), ts...)
	other[0].score -= 0.01
	if err := checkAgreement(other, ts, tolExact); err == nil {
		t.Fatal("a different score passed the agreement check")
	}
}

func TestIdealOracleRejectsMissingIdeal(t *testing.T) {
	f := getFixture(t)
	anec, err := anecdotes(f.sdb, f.g)
	if err != nil {
		t.Fatal(err)
	}
	q := anec[0] // coauthors: soumen sunita
	ts := f.answers(t, q.text)
	if err := checkIdeals(q, ts, f.g); err != nil {
		t.Fatalf("the engine's own answers miss an ideal: %v", err)
	}
	var without []tree
	for i := range ts {
		if !q.ideals[0].Match(toCore(&ts[i], f.g), f.g) {
			without = append(without, ts[i])
		}
	}
	if err := checkIdeals(q, without, f.g); err == nil {
		t.Fatal("a top 10 without the ideal answer passed")
	}
}

func TestSteinerOracle(t *testing.T) {
	f := getFixture(t)
	terms := []string{"seltzer", "sunita"}
	ts := f.answers(t, "seltzer sunita")
	if err := checkSteiner(f.g, f.m, terms, ts, false); err != nil {
		t.Fatalf("the engine's answers fail the exact optimum: %v", err)
	}
	if err := checkSteiner(f.g, f.m, terms, nil, false); err == nil {
		t.Fatal("no answers passed though a connection exists")
	}
	if err := checkSteiner(f.g, f.m, terms, nil, true); err != nil {
		t.Fatalf("a flagged truncation should excuse an empty answer: %v", err)
	}
	// A bare root weighs 0, below any tree joining two different rows.
	light := []tree{{root: ts[0].root}}
	if err := checkSteiner(f.g, f.m, terms, light, false); err == nil {
		t.Fatal("a tree lighter than the exact optimum passed")
	}
}

func TestHTMLParseAndCorruption(t *testing.T) {
	f := getFixture(t)
	srv := httptest.NewServer(f.sys.ServeHandler(serveOptions()))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/search?q=" + url.QueryEscape("soumen sunita"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	page, err := parseSearchPage(f.m, body)
	if err != nil {
		t.Fatal(err)
	}
	want := f.answers(t, "soumen sunita")
	if err := checkAgreement(page.trees, want, tolHTML); err != nil {
		t.Fatalf("the page disagrees with System.Query: %v", err)
	}
	for i := range page.trees {
		if err := f.m.checkAnswer(&page.trees[i], []string{"soumen", "sunita"}, tolHTML); err != nil {
			t.Fatalf("page answer %d rejected: %v", i+1, err)
		}
		if page.trees[i].signature(f.m) != want[i].signature(f.m) {
			t.Errorf("page answer %d has another node set", i+1)
		}
	}
	// A score off in the fourth decimal, and a row that is not in the
	// database, are both caught.
	i := strings.Index(body, `score 0.`)
	wrong := body[:i+len("score 0.")] + flipDigit(body[i+len("score 0."):])
	p2, err := parseSearchPage(f.m, wrong)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.m.checkAnswer(&p2.trees[0], []string{"soumen", "sunita"}, tolHTML); err == nil {
		t.Fatal("a corrupted page score passed")
	}
	ghost := strings.Replace(body, "Sunita Sarawagi", "Sunita Sarawagy", 1)
	if _, err := parseSearchPage(f.m, ghost); err == nil {
		t.Fatal("a row that is not in the database parsed")
	}
	// The noisy spelling splits differently on the HTML path: today it
	// disagrees with System.Query, which the benchmark counts as failed.
	resp, err = srv.Client().Get(srv.URL + "/search?q=" + url.QueryEscape("Soumen, sunita"))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	p3, err := parseSearchPage(f.m, string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAgreement(p3.trees, want, tolHTML); err == nil {
		t.Log("the HTML front door now tokenizes like System.Query; noisy requests will stop failing")
	}
}

// flipDigit changes the fourth decimal of a printed score.
func flipDigit(s string) string {
	b := []byte(s)
	if b[3] == '9' {
		b[3] = '0'
	} else {
		b[3]++
	}
	return string(b)
}

func TestClusterTermNodeOracle(t *testing.T) {
	f := getFixture(t)
	a := f.answers(t, "soumen sunita")[0]
	wire := cluster.Answer{Score: a.score, Weight: a.weight, Root: cluster.Ref{Table: a.root.Table, RID: a.root.RID}}
	for i := len(a.edges) - 1; i >= 0; i-- { // wire order need not be tree order
		e := a.edges[i]
		wire.Edges = append(wire.Edges, cluster.Edge{
			From: cluster.Ref{Table: e.from.Table, RID: e.from.RID},
			To:   cluster.Ref{Table: e.to.Table, RID: e.to.RID}, W: e.w})
	}
	terms := []string{"soumen", "sunita"}
	for _, term := range terms {
		for _, n := range a.matched {
			if f.m.contains(n, term) {
				wire.TermNodes = append(wire.TermNodes, cluster.Ref{Table: n.Table, RID: n.RID})
				break
			}
		}
	}
	ts := fromCluster([]cluster.Answer{wire})
	if err := f.m.checkAnswer(&ts[0], terms, tolExact); err != nil {
		t.Fatalf("the wire form of an engine answer was rejected: %v", err)
	}
	swapped := cloneTree(ts[0])
	swapped.termNodes[0], swapped.termNodes[1] = swapped.termNodes[1], swapped.termNodes[0]
	if err := f.m.checkAnswer(&swapped, terms, tolExact); err == nil {
		t.Fatal("term nodes naming the wrong terms passed")
	}
}

func TestModelTracksMutations(t *testing.T) {
	f := getFixture(t)
	m := newModel(f.sdb)
	author := ref{"Author", 0}
	before := m.prestige[author]
	m.insert("Paper", 1<<40, map[string]string{"PaperId": "ZZ1", "PaperName": "zebra title", "Year": "2001"})
	m.insert("Writes", 1<<40, map[string]string{"AuthorId": m.rows[author][0], "PaperId": "ZZ1"})
	if m.prestige[author] != before+1 {
		t.Fatalf("prestige %d after a new Writes row, want %d", m.prestige[author], before+1)
	}
	if w, ok := m.arcWeight(ref{"Paper", 1 << 40}, ref{"Writes", 1 << 40}); !ok || w != 1 {
		t.Fatalf("backward arc of a single reference weighs %g (%v), want 1", w, ok)
	}
	m.delete(ref{"Writes", 1 << 40})
	if m.prestige[author] != before {
		t.Fatalf("prestige %d after the delete, want %d", m.prestige[author], before)
	}
	m.update(ref{"Paper", 1 << 40}, map[string]string{"PaperName": "yak"})
	if !m.contains(ref{"Paper", 1 << 40}, "yak") || m.contains(ref{"Paper", 1 << 40}, "zebra") {
		t.Fatal("an update did not replace the row text")
	}
}

func TestPyQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := pyQuartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %g %g, want 2.75 8.25", q1, q3)
	}
}
