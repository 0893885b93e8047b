package main

import (
	"fmt"
	"html"
	"math"
	"strconv"
	"strings"
)

// parsedPage is one /search result page of the HTML front door.
type parsedPage struct {
	trees     []tree
	truncated bool // the page carried the partial-results banner
}

// parseSearchPage reads the answer trees out of a /search page: each
// answer is a <div class="tree"> holding its rank and four-decimal score
// and a nested <ul><li> list of rows rendered as Table(Col=val, ...),
// keyword matches wrapped in <span class="keyword">. Rows are resolved to
// (table, rid) through the model's rendering of the same rows.
func parseSearchPage(m *model, body string) (*parsedPage, error) {
	p := &parsedPage{truncated: strings.Contains(body, "Partial results:")}
	const open = `<div class="tree">`
	for {
		i := strings.Index(body, open)
		if i < 0 {
			return p, nil
		}
		body = body[i+len(open):]
		end := strings.Index(body, "</div>")
		if end < 0 {
			return nil, fmt.Errorf("unterminated answer tree")
		}
		t, err := parseTree(m, body[:end])
		if err != nil {
			return nil, fmt.Errorf("answer %d: %w", len(p.trees)+1, err)
		}
		p.trees = append(p.trees, *t)
		body = body[end:]
	}
}

func parseTree(m *model, s string) (*tree, error) {
	const scoreTag = `<span class="score">score `
	i := strings.Index(s, scoreTag)
	if i < 0 {
		return nil, fmt.Errorf("no score")
	}
	rest := s[i+len(scoreTag):]
	j := strings.IndexByte(rest, '<')
	score, err := strconv.ParseFloat(rest[:j], 64)
	if err != nil {
		return nil, fmt.Errorf("bad score %q", rest[:j])
	}
	t := &tree{score: score, weight: math.NaN()}
	body := rest[j:]
	body = body[strings.Index(body, "<ul>"):]

	type node struct {
		label   strings.Builder
		matched bool
		parent  int
		r       ref
	}
	var nodes []*node
	var stack []int
	for len(body) > 0 {
		if body[0] != '<' {
			k := strings.IndexByte(body, '<')
			if k < 0 {
				k = len(body)
			}
			if len(stack) > 0 {
				nodes[stack[len(stack)-1]].label.WriteString(html.UnescapeString(body[:k]))
			}
			body = body[k:]
			continue
		}
		k := strings.IndexByte(body, '>')
		if k < 0 {
			return nil, fmt.Errorf("unterminated tag")
		}
		tag := body[:k+1]
		body = body[k+1:]
		switch {
		case tag == "<li>":
			parent := -1
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			nodes = append(nodes, &node{parent: parent})
			stack = append(stack, len(nodes)-1)
		case tag == "</li>":
			if len(stack) == 0 {
				return nil, fmt.Errorf("unbalanced </li>")
			}
			stack = stack[:len(stack)-1]
		case tag == `<span class="keyword">`:
			if len(stack) > 0 {
				nodes[stack[len(stack)-1]].matched = true
			}
		}
	}
	if len(nodes) == 0 || len(stack) != 0 {
		return nil, fmt.Errorf("malformed tree list")
	}
	// Resolve labels to rows. Rows with identical text (duplicate link
	// rows) are interchangeable; distinct tree nodes take distinct rows.
	used := map[ref]bool{}
	for _, n := range nodes {
		cands := m.byLabel(n.label.String())
		if len(cands) == 0 {
			return nil, fmt.Errorf("row %q is not in the database", n.label.String())
		}
		n.r = cands[0]
		for _, c := range cands {
			if !used[c] {
				n.r = c
				break
			}
		}
		used[n.r] = true
	}
	t.root = nodes[0].r
	for i, n := range nodes {
		if n.matched {
			t.matched = append(t.matched, n.r)
		}
		if i > 0 {
			if n.parent < 0 {
				return nil, fmt.Errorf("two roots")
			}
			t.edges = append(t.edges, tedge{from: nodes[n.parent].r, to: n.r, w: math.NaN()})
		}
	}
	return t, nil
}
