package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"unicode"

	"github.com/banksdb/banks/internal/sqldb"
)

// ref names one tuple by its stable (table, rid) identity.
type ref struct {
	Table string
	RID   int64
}

func (r ref) String() string { return fmt.Sprintf("%s#%d", r.Table, r.RID) }

// tableDef is the part of a table's schema the data graph depends on.
type tableDef struct {
	name string
	cols []string
	pk   int // column index of the single-column primary key, or -1
	fks  []fkDef
}

type fkDef struct {
	col      int
	refTable string
	w        float64 // s(R1,R2); a declared weight <= 0 means 1
}

type link struct {
	to ref
	w  float64
}

type inKey struct {
	from string // referencing relation R(u)
	to   ref
}

// model re-derives the BANKS data graph (§2.1–§2.2) from the rows alone,
// with none of the engine's code: every foreign-key reference u→v is a
// forward arc of weight s and a backward arc v→u of weight s·IN_{R(u)}(v);
// parallel arcs keep the minimum; a node's prestige is its reference
// indegree. The oracles check answers against it, and it is kept in step
// with the database by replaying the same mutations the engine applied.
type model struct {
	tables   map[string]*tableDef
	rows     map[ref][]string
	pkIndex  map[string]map[string]int64
	out      map[ref][]link
	in       map[inKey]int
	prestige map[ref]int
	weights  map[float64]int // multiset of link weights, for w_min
	deleted  map[ref]bool

	wmax      float64
	wmaxDirty bool
	labels    map[string][]ref // rendered row label -> rows (built lazily)
}

// newModel snapshots db's rows into a fresh model.
func newModel(db *sqldb.Database) *model {
	db.RLock()
	defer db.RUnlock()
	m := &model{
		tables:   map[string]*tableDef{},
		rows:     map[ref][]string{},
		pkIndex:  map[string]map[string]int64{},
		out:      map[ref][]link{},
		in:       map[inKey]int{},
		prestige: map[ref]int{},
		weights:  map[float64]int{},
		deleted:  map[ref]bool{},
	}
	for _, name := range db.TableNames() {
		t := db.Table(name)
		s := t.Schema()
		def := &tableDef{name: t.Name(), pk: -1}
		for _, c := range s.Columns {
			def.cols = append(def.cols, c.Name)
		}
		if len(s.PrimaryKey) == 1 {
			def.pk = s.ColumnIndex(s.PrimaryKey[0])
		}
		for _, fk := range s.ForeignKeys {
			w := fk.Weight
			if w <= 0 {
				w = 1
			}
			def.fks = append(def.fks, fkDef{col: s.ColumnIndex(fk.Column), refTable: fk.RefTable, w: w})
		}
		m.tables[def.name] = def
		m.pkIndex[def.name] = map[string]int64{}
		t.Scan(func(rid sqldb.RID, row []sqldb.Value) bool {
			vals := make([]string, len(row))
			for i, v := range row {
				vals[i] = v.String()
			}
			r := ref{def.name, int64(rid)}
			m.rows[r] = vals
			if def.pk >= 0 {
				m.pkIndex[def.name][vals[def.pk]] = int64(rid)
			}
			return true
		})
	}
	for r := range m.rows {
		m.addLinks(r)
	}
	return m
}

func sqldbRID(rid int64) sqldb.RID { return sqldb.RID(rid) }

// targets resolves the foreign-key references of row r.
func (m *model) targets(r ref) []link {
	def := m.tables[r.Table]
	vals := m.rows[r]
	var out []link
	for _, fk := range def.fks {
		v := vals[fk.col]
		if v == "NULL" {
			continue
		}
		rid, ok := m.pkIndex[fk.refTable][v]
		if !ok {
			continue
		}
		to := ref{fk.refTable, rid}
		if to == r {
			continue
		}
		out = append(out, link{to: to, w: fk.w})
	}
	return out
}

func (m *model) addLinks(r ref) {
	ls := m.targets(r)
	m.out[r] = ls
	for _, l := range ls {
		m.in[inKey{r.Table, l.to}]++
		m.prestige[l.to]++
		m.weights[l.w]++
	}
	m.wmaxDirty = true
}

func (m *model) dropLinks(r ref) {
	for _, l := range m.out[r] {
		k := inKey{r.Table, l.to}
		if m.in[k]--; m.in[k] == 0 {
			delete(m.in, k)
		}
		if m.prestige[l.to]--; m.prestige[l.to] == 0 {
			delete(m.prestige, l.to)
		}
		if m.weights[l.w]--; m.weights[l.w] == 0 {
			delete(m.weights, l.w)
		}
	}
	delete(m.out, r)
	m.wmaxDirty = true
}

// insert adds a row at the rid the database assigned it.
func (m *model) insert(table string, rid int64, set map[string]string) {
	def := m.tables[table]
	vals := make([]string, len(def.cols))
	for i, c := range def.cols {
		v, ok := set[c]
		if !ok {
			v = "NULL"
		}
		vals[i] = v
	}
	r := ref{table, rid}
	m.rows[r] = vals
	if def.pk >= 0 {
		m.pkIndex[table][vals[def.pk]] = rid
	}
	m.addLinks(r)
	m.labels = nil
}

// update changes columns of an existing row; references into the row
// are assumed not to move (a primary key is never updated here).
func (m *model) update(r ref, set map[string]string) {
	def := m.tables[r.Table]
	m.dropLinks(r)
	for i, c := range def.cols {
		if v, ok := set[c]; ok {
			m.rows[r][i] = v
		}
	}
	m.addLinks(r)
	m.labels = nil
}

func (m *model) delete(r ref) {
	m.dropLinks(r)
	def := m.tables[r.Table]
	if def.pk >= 0 {
		delete(m.pkIndex[r.Table], m.rows[r][def.pk])
	}
	delete(m.rows, r)
	m.deleted[r] = true
	m.labels = nil
}

// wMin is the smallest arc weight in the graph (the §2.3 edge normalizer).
// Backward arcs weigh s·IN >= s, so it is the smallest link weight.
func (m *model) wMin() float64 {
	w := math.Inf(1)
	for x := range m.weights {
		w = math.Min(w, x)
	}
	if math.IsInf(w, 1) {
		return 1
	}
	return w
}

// wMax is the largest node prestige (the §2.3 node normalizer).
func (m *model) wMax() float64 {
	if m.wmaxDirty {
		best := 0
		for _, p := range m.prestige {
			if p > best {
				best = p
			}
		}
		m.wmax = float64(best)
		m.wmaxDirty = false
	}
	return m.wmax
}

// arcWeight is the weight of the arc a→b, false when no reference joins
// the two rows in either direction.
func (m *model) arcWeight(a, b ref) (float64, bool) {
	best, ok := math.Inf(1), false
	for _, l := range m.out[a] {
		if l.to == b {
			best, ok = math.Min(best, l.w), true
		}
	}
	for _, l := range m.out[b] {
		if l.to == a {
			best, ok = math.Min(best, l.w*float64(m.in[inKey{b.Table, a}])), true
		}
	}
	return best, ok
}

// tokens splits text into lowercase letter/digit runs.
func tokens(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// contains reports whether term is a token of row r's text.
func (m *model) contains(r ref, term string) bool {
	for _, v := range m.rows[r] {
		if v == "NULL" {
			continue
		}
		for _, t := range tokens(v) {
			if t == term {
				return true
			}
		}
	}
	return false
}

// label renders a row the way the HTML front door does.
func (m *model) label(r ref) string {
	def := m.tables[r.Table]
	cells := make([]string, len(def.cols))
	for i, c := range def.cols {
		cells[i] = c + "=" + m.rows[r][i]
	}
	return def.name + "(" + strings.Join(cells, ", ") + ")"
}

// byLabel returns the rows rendered as lbl, in rid order.
func (m *model) byLabel(lbl string) []ref {
	if m.labels == nil {
		m.labels = make(map[string][]ref, len(m.rows))
		for r := range m.rows {
			l := m.label(r)
			m.labels[l] = append(m.labels[l], r)
		}
		for _, rs := range m.labels {
			sort.Slice(rs, func(i, j int) bool { return rs[i].RID < rs[j].RID })
		}
	}
	return m.labels[lbl]
}
