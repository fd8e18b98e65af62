// Package schema defines GhostDB's data model: tables with Visible and
// Hidden attributes, foreign keys forming a tree-structured schema (Figure
// 3 of the paper), and the vertical partitioning plan that places Visible
// columns on the Untrusted computer and Hidden columns on the Secure USB
// key with surrogate identifiers replicated on both sides (§2.1).
package schema

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// IDWidth is the on-flash width of a surrogate identifier (Table 1).
const IDWidth = 4

// ErrNotTree is returned when the foreign keys do not form a forest of
// trees (each table has at most one parent, no cycles).
var ErrNotTree = errors.New("schema: foreign keys must form a tree")

// Column describes a data attribute.
type Column struct {
	Name   string
	Kind   Kind
	Width  int  // for KindChar, the declared width
	Hidden bool // HIDDEN annotation from CREATE TABLE
}

// EncodedWidth returns the fixed storage width of the column.
func (c Column) EncodedWidth() int { return EncodedWidth(c.Kind, c.Width) }

// Ref is a foreign-key edge from this (parent) table to a child table:
// every tuple of the parent references exactly one tuple of Child, as in
// the paper's tree schema where the root/fact table references each
// dimension. Following the paper's design guideline, foreign keys are
// Hidden by default so that Visible data reveals no relationships.
type Ref struct {
	FKColumn string // the foreign-key attribute name (e.g. "fk1")
	Child    string // referenced table
	Hidden   bool
}

// TableDef is the user-facing table declaration.
type TableDef struct {
	Name    string
	Columns []Column
	Refs    []Ref
}

// Table is a validated table within a Schema, enriched with its tree
// position. Index fields refer to Schema.Tables ordering.
type Table struct {
	TableDef
	Index       int    // position in Schema.Tables
	ParentIndex int    // -1 for the root
	ParentRef   string // fk column in the parent referencing this table
	Depth       int    // 0 for the root

	children    []int
	descendants []int // preorder, not including self
	ancestors   []int // nearest first, ending at the root
}

// Schema is a validated forest of tree-structured table groups. The
// paper's schemas are a single tree (Figure 3); several independent
// trees in one database are allowed so that tables can be placed across
// multiple secure tokens — joins never cross trees (they follow fk
// edges), which is exactly what makes tree-granularity placement safe.
type Schema struct {
	Tables []*Table
	byName map[string]int
	roots  []int // tree roots, in declaration order
	rootOf []int // table index -> root of its tree
}

// New validates the table definitions and computes the tree structure.
func New(defs []TableDef) (*Schema, error) {
	if len(defs) == 0 {
		return nil, errors.New("schema: no tables")
	}
	s := &Schema{byName: make(map[string]int, len(defs))}
	for i, d := range defs {
		if d.Name == "" {
			return nil, errors.New("schema: empty table name")
		}
		if _, dup := s.byName[strings.ToLower(d.Name)]; dup {
			return nil, fmt.Errorf("schema: duplicate table %q", d.Name)
		}
		if err := validateColumns(d); err != nil {
			return nil, err
		}
		s.byName[strings.ToLower(d.Name)] = i
		s.Tables = append(s.Tables, &Table{TableDef: d, Index: i, ParentIndex: -1})
	}
	// Wire parent/child edges.
	for i, t := range s.Tables {
		seen := map[string]bool{}
		for _, r := range t.Refs {
			ci, ok := s.byName[strings.ToLower(r.Child)]
			if !ok {
				return nil, fmt.Errorf("schema: table %q references unknown table %q", t.Name, r.Child)
			}
			if ci == i {
				return nil, fmt.Errorf("schema: table %q references itself", t.Name)
			}
			if seen[strings.ToLower(r.Child)] {
				return nil, fmt.Errorf("schema: table %q references %q twice", t.Name, r.Child)
			}
			seen[strings.ToLower(r.Child)] = true
			child := s.Tables[ci]
			if child.ParentIndex >= 0 {
				return nil, fmt.Errorf("%w: table %q referenced by both %q and %q",
					ErrNotTree, child.Name, s.Tables[child.ParentIndex].Name, t.Name)
			}
			child.ParentIndex = i
			child.ParentRef = r.FKColumn
			t.children = append(t.children, ci)
		}
	}
	// One or more roots; every table reachable from some root; acyclic
	// (parent uniqueness + full reachability from the roots imply a
	// forest — an unreachable table would be on a parent cycle).
	for _, t := range s.Tables {
		if t.ParentIndex < 0 {
			s.roots = append(s.roots, t.Index)
		}
	}
	if len(s.roots) == 0 {
		return nil, fmt.Errorf("%w: no root table (reference cycle)", ErrNotTree)
	}
	if err := s.computeTree(); err != nil {
		return nil, err
	}
	return s, nil
}

func validateColumns(d TableDef) error {
	names := map[string]bool{"id": true}
	for _, r := range d.Refs {
		low := strings.ToLower(r.FKColumn)
		if low == "" || names[low] {
			return fmt.Errorf("schema: table %q: bad or duplicate fk column %q", d.Name, r.FKColumn)
		}
		names[low] = true
	}
	for _, c := range d.Columns {
		low := strings.ToLower(c.Name)
		if low == "" || names[low] {
			return fmt.Errorf("schema: table %q: bad or duplicate column %q", d.Name, c.Name)
		}
		names[low] = true
		switch c.Kind {
		case KindInt, KindFloat:
		case KindChar:
			if c.Width <= 0 {
				return fmt.Errorf("schema: table %q column %q: char width must be positive", d.Name, c.Name)
			}
		default:
			return fmt.Errorf("schema: table %q column %q: invalid kind", d.Name, c.Name)
		}
	}
	return nil
}

func (s *Schema) computeTree() error {
	// Depth-first from every root; a table not reached from any root sits
	// on a parent cycle.
	visited := make([]bool, len(s.Tables))
	s.rootOf = make([]int, len(s.Tables))
	var walk func(i, root, depth int) []int
	walk = func(i, root, depth int) []int {
		t := s.Tables[i]
		visited[i] = true
		s.rootOf[i] = root
		t.Depth = depth
		var desc []int
		for _, c := range t.children {
			desc = append(desc, c)
			desc = append(desc, walk(c, root, depth+1)...)
		}
		t.descendants = desc
		return desc
	}
	for _, r := range s.roots {
		walk(r, r, 0)
	}
	for i, v := range visited {
		if !v {
			return fmt.Errorf("%w: table %q unreachable from any root (reference cycle)",
				ErrNotTree, s.Tables[i].Name)
		}
	}
	for _, t := range s.Tables {
		t.ancestors = nil
		for p := t.ParentIndex; p >= 0; p = s.Tables[p].ParentIndex {
			t.ancestors = append(t.ancestors, p)
		}
	}
	return nil
}

// Root returns the first tree's root table. Single-tree schemas (the
// paper's shape) have exactly one; forest schemas should use Roots.
func (s *Schema) Root() *Table { return s.Tables[s.roots[0]] }

// Roots returns the root table index of every tree, in declaration
// order.
func (s *Schema) Roots() []int { return s.roots }

// RootOf returns the root table index of the tree containing table ti.
func (s *Schema) RootOf(ti int) int { return s.rootOf[ti] }

// IsRoot reports whether table ti is the root of its tree.
func (s *Schema) IsRoot(ti int) bool { return s.rootOf[ti] == ti }

// TreeTables returns the table indexes of the tree rooted at root
// (root first, then preorder descendants).
func (s *Schema) TreeTables(root int) []int {
	return append([]int{root}, s.Tables[root].descendants...)
}

// Lookup finds a table by case-insensitive name.
func (s *Schema) Lookup(name string) (*Table, bool) {
	i, ok := s.byName[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	return s.Tables[i], true
}

// Children returns the direct child tables.
func (t *Table) Children() []int { return t.children }

// Descendants returns all descendant table indexes in preorder.
func (t *Table) Descendants() []int { return t.descendants }

// Ancestors returns the ancestor table indexes, nearest (parent) first.
func (t *Table) Ancestors() []int { return t.ancestors }

// Column finds a data column by case-insensitive name.
func (t *Table) Column(name string) (Column, int, bool) {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return c, i, true
		}
	}
	return Column{}, -1, false
}

// VisibleColumns and HiddenColumns return the vertical partitioning of the
// data attributes (§2.1): Visible columns live on Untrusted, Hidden ones
// (plus all hidden fks) on Secure; the id is replicated on both sides.
func (t *Table) VisibleColumns() []Column { return t.filter(false) }

// HiddenColumns returns the Hidden data attributes (fks excluded: they are
// materialized inside the Subtree Key Tables, §3.2).
func (t *Table) HiddenColumns() []Column { return t.filter(true) }

func (t *Table) filter(hidden bool) []Column {
	var out []Column
	for _, c := range t.Columns {
		if c.Hidden == hidden {
			out = append(out, c)
		}
	}
	return out
}

// IsAncestorOf reports whether t is a (transitive) ancestor of other, or
// the same table.
func (s *Schema) IsAncestorOf(t, other int) bool {
	if t == other {
		return true
	}
	for _, a := range s.Tables[other].ancestors {
		if a == t {
			return true
		}
	}
	return false
}

// CommonAncestor returns the lowest table that is an ancestor-or-self of
// every table in set, or -1 when the set spans several trees (no common
// ancestor exists in a forest).
func (s *Schema) CommonAncestor(set []int) int {
	if len(set) == 0 {
		return s.roots[0]
	}
	anc := append([]int{set[0]}, s.Tables[set[0]].ancestors...)
	for _, t := range set[1:] {
		ok := make(map[int]bool, len(anc))
		for _, a := range anc {
			ok[a] = true
		}
		var next []int
		for _, a := range append([]int{t}, s.Tables[t].ancestors...) {
			if ok[a] {
				next = append(next, a)
			}
		}
		anc = next
	}
	if len(anc) == 0 {
		return -1
	}
	// anc is ordered deepest-first because ancestor lists are.
	return anc[0]
}

// String renders the schema as CREATE TABLE statements (each tree root
// first, then preorder), for diagnostics.
func (s *Schema) String() string {
	var order []int
	for _, r := range s.roots {
		order = append(order, s.TreeTables(r)...)
	}
	var b strings.Builder
	for _, i := range order {
		t := s.Tables[i]
		fmt.Fprintf(&b, "CREATE TABLE %s (id int", t.Name)
		refs := append([]Ref(nil), t.Refs...)
		sort.Slice(refs, func(a, c int) bool { return refs[a].FKColumn < refs[c].FKColumn })
		for _, r := range refs {
			fmt.Fprintf(&b, ", %s int REFERENCES %s", r.FKColumn, r.Child)
			if r.Hidden {
				b.WriteString(" HIDDEN")
			}
		}
		for _, c := range t.Columns {
			fmt.Fprintf(&b, ", %s %s", c.Name, typeSQL(c))
			if c.Hidden {
				b.WriteString(" HIDDEN")
			}
		}
		b.WriteString(");\n")
	}
	return b.String()
}

func typeSQL(c Column) string {
	switch c.Kind {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindChar:
		return fmt.Sprintf("char(%d)", c.Width)
	}
	return "?"
}
