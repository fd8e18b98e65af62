// Package shard places a GhostDB schema across several simulated secure
// tokens. Placement is at *tree* granularity: joins follow the schema's
// fk edges and therefore never cross trees, so co-locating each tree on
// one token keeps every select-project-join query single-token — only
// forest queries (cross products of independent trees) span tokens, and
// those decompose into per-tree sub-plans merged on the untrusted side.
//
// Security invariant: the placement is a pure function of the schema and
// of the planner's *derived* per-tree RAM floors — both already known to
// the untrusted side (the schema is public, the floors are functions of
// the schema alone). It never consults data, visible or hidden, so the
// mapping itself reveals nothing an observer of the DDL did not already
// have (the volume-leakage concern of Poddar et al. is why cardinalities
// must stay out of it).
package shard

import (
	"fmt"
	"sort"
	"strings"

	"ghostdb/internal/schema"
)

// Tree is one placement unit: a schema tree and its weight — the
// planner's RAM floor for the widest plan shape over the tree, so heavy
// trees (many tables, wide footprints) spread across tokens first.
type Tree struct {
	Root   int
	Tables []int
	Weight int
}

// Map is an immutable table→token assignment.
type Map struct {
	n       int
	byTable []int // table index -> token ordinal (-1 impossible: every table is in a tree)
	byToken [][]int
	roots   [][]int // per token, the tree roots placed on it
}

// Place assigns each tree to one of n tokens by longest-processing-time
// greedy: trees in decreasing weight order, each to the least-loaded
// token. Deterministic — ties break on lower root index, then lower
// token ordinal — so every replica of the schema derives the same map.
func Place(sch *schema.Schema, n int, trees []Tree) (*Map, error) {
	if n < 1 {
		n = 1
	}
	m := &Map{
		n:       n,
		byTable: make([]int, len(sch.Tables)),
		byToken: make([][]int, n),
		roots:   make([][]int, n),
	}
	seen := make(map[int]bool, len(trees))
	covered := 0
	for _, t := range trees {
		if seen[t.Root] {
			return nil, fmt.Errorf("shard: tree %d listed twice", t.Root)
		}
		seen[t.Root] = true
		covered += len(t.Tables)
	}
	if covered != len(sch.Tables) {
		return nil, fmt.Errorf("shard: trees cover %d of %d tables", covered, len(sch.Tables))
	}
	order := append([]Tree(nil), trees...)
	sort.Slice(order, func(i, j int) bool {
		if order[i].Weight != order[j].Weight {
			return order[i].Weight > order[j].Weight
		}
		return order[i].Root < order[j].Root
	})
	load := make([]int, n)
	for _, t := range order {
		tok := 0
		for i := 1; i < n; i++ {
			if load[i] < load[tok] {
				tok = i
			}
		}
		load[tok] += t.Weight
		m.roots[tok] = append(m.roots[tok], t.Root)
		for _, ti := range t.Tables {
			m.byTable[ti] = tok
			m.byToken[tok] = append(m.byToken[tok], ti)
		}
	}
	for tok := range m.byToken {
		sort.Ints(m.byToken[tok])
		sort.Ints(m.roots[tok])
	}
	return m, nil
}

// Shards returns the number of tokens placed over.
func (m *Map) Shards() int { return m.n }

// Of returns the token ordinal holding table ti.
func (m *Map) Of(ti int) int { return m.byTable[ti] }

// Tables returns the table indexes placed on token tok (sorted).
func (m *Map) Tables(tok int) []int { return m.byToken[tok] }

// Roots returns the tree roots placed on token tok (sorted).
func (m *Map) Roots(tok int) []int { return m.roots[tok] }

// TokenOfAll returns the single token holding every listed table, or
// ok=false when the set spans tokens.
func (m *Map) TokenOfAll(tables []int) (int, bool) {
	if len(tables) == 0 {
		return 0, true
	}
	tok := m.byTable[tables[0]]
	for _, ti := range tables[1:] {
		if m.byTable[ti] != tok {
			return 0, false
		}
	}
	return tok, true
}

// Describe renders the placement for humans (the shell's \shards).
func (m *Map) Describe(sch *schema.Schema) string {
	var b strings.Builder
	for tok := 0; tok < m.n; tok++ {
		fmt.Fprintf(&b, "token %d:", tok)
		if len(m.byToken[tok]) == 0 {
			b.WriteString(" (empty)")
		}
		for _, ti := range m.byToken[tok] {
			fmt.Fprintf(&b, " %s", sch.Tables[ti].Name)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
