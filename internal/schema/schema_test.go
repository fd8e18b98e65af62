package schema

import (
	"errors"
	"strings"
	"testing"
)

// paperSchema builds the synthetic tree of Figure 3: T0 -> {T1, T2},
// T1 -> {T11, T12}.
func paperSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := New(paperDefs())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func paperDefs() []TableDef {
	attrs := func() []Column {
		return []Column{
			{Name: "v1", Kind: KindChar, Width: 10},
			{Name: "h1", Kind: KindChar, Width: 10, Hidden: true},
		}
	}
	return []TableDef{
		{Name: "T0", Columns: attrs(), Refs: []Ref{
			{FKColumn: "fk1", Child: "T1", Hidden: true},
			{FKColumn: "fk2", Child: "T2", Hidden: true},
		}},
		{Name: "T1", Columns: attrs(), Refs: []Ref{
			{FKColumn: "fk11", Child: "T11", Hidden: true},
			{FKColumn: "fk12", Child: "T12", Hidden: true},
		}},
		{Name: "T2", Columns: attrs()},
		{Name: "T11", Columns: attrs()},
		{Name: "T12", Columns: attrs()},
	}
}

func TestTreeComputation(t *testing.T) {
	s := paperSchema(t)
	if s.Root().Name != "T0" {
		t.Fatalf("root = %q", s.Root().Name)
	}
	t12, ok := s.Lookup("t12") // case-insensitive
	if !ok {
		t.Fatal("lookup t12 failed")
	}
	if t12.Depth != 2 {
		t.Fatalf("T12 depth = %d", t12.Depth)
	}
	anc := t12.Ancestors()
	if len(anc) != 2 || s.Tables[anc[0]].Name != "T1" || s.Tables[anc[1]].Name != "T0" {
		t.Fatalf("T12 ancestors = %v", anc)
	}
	desc := s.Root().Descendants()
	if len(desc) != 4 {
		t.Fatalf("root descendants = %v", desc)
	}
	t1, _ := s.Lookup("T1")
	if got := len(t1.Descendants()); got != 2 {
		t.Fatalf("T1 descendants = %d", got)
	}
	if !s.IsAncestorOf(s.Root().Index, t12.Index) {
		t.Fatal("T0 should be ancestor of T12")
	}
	if s.IsAncestorOf(t12.Index, t1.Index) {
		t.Fatal("T12 is not an ancestor of T1")
	}
}

func TestCommonAncestor(t *testing.T) {
	s := paperSchema(t)
	idx := func(n string) int { tb, _ := s.Lookup(n); return tb.Index }
	if got := s.CommonAncestor([]int{idx("T11"), idx("T12")}); s.Tables[got].Name != "T1" {
		t.Fatalf("CA(T11,T12) = %s", s.Tables[got].Name)
	}
	if got := s.CommonAncestor([]int{idx("T12"), idx("T2")}); s.Tables[got].Name != "T0" {
		t.Fatalf("CA(T12,T2) = %s", s.Tables[got].Name)
	}
	if got := s.CommonAncestor([]int{idx("T12")}); s.Tables[got].Name != "T12" {
		t.Fatalf("CA(T12) = %s", s.Tables[got].Name)
	}
}

func TestVerticalPartitioning(t *testing.T) {
	s := paperSchema(t)
	t0 := s.Root()
	vis, hid := t0.VisibleColumns(), t0.HiddenColumns()
	if len(vis) != 1 || vis[0].Name != "v1" {
		t.Fatalf("visible = %v", vis)
	}
	if len(hid) != 1 || hid[0].Name != "h1" {
		t.Fatalf("hidden = %v", hid)
	}
}

func TestRejectTwoParents(t *testing.T) {
	defs := paperDefs()
	// Make T2 also reference T12.
	defs[2].Refs = []Ref{{FKColumn: "fkx", Child: "T12"}}
	if _, err := New(defs); !errors.Is(err, ErrNotTree) {
		t.Fatalf("two parents: %v", err)
	}
}

func TestForestTwoRoots(t *testing.T) {
	// Two independent trees in one schema: the shape cross-token
	// placement shards on. Each tree keeps its own root, depths and
	// descendant sets; CommonAncestor across trees reports none.
	defs := []TableDef{
		{Name: "A", Refs: []Ref{{FKColumn: "fb", Child: "B"}}},
		{Name: "B"},
		{Name: "X", Refs: []Ref{{FKColumn: "fy", Child: "Y"}}},
		{Name: "Y"},
	}
	s, err := New(defs)
	if err != nil {
		t.Fatalf("forest rejected: %v", err)
	}
	if got := s.Roots(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Roots() = %v", got)
	}
	if s.RootOf(1) != 0 || s.RootOf(3) != 2 || !s.IsRoot(2) || s.IsRoot(3) {
		t.Fatalf("RootOf/IsRoot wrong: rootOf(B)=%d rootOf(Y)=%d", s.RootOf(1), s.RootOf(3))
	}
	if ca := s.CommonAncestor([]int{1, 3}); ca != -1 {
		t.Fatalf("cross-tree CommonAncestor = %d, want -1", ca)
	}
	if ca := s.CommonAncestor([]int{0, 1}); ca != 0 {
		t.Fatalf("in-tree CommonAncestor = %d, want 0", ca)
	}
	if tt := s.TreeTables(2); len(tt) != 2 || tt[0] != 2 || tt[1] != 3 {
		t.Fatalf("TreeTables(X) = %v", tt)
	}
	if !strings.Contains(s.String(), "CREATE TABLE X") {
		t.Fatalf("String() misses the second tree:\n%s", s.String())
	}
}

func TestRejectCycle(t *testing.T) {
	defs := []TableDef{
		{Name: "A", Refs: []Ref{{FKColumn: "fb", Child: "B"}}},
		{Name: "B", Refs: []Ref{{FKColumn: "fa", Child: "A"}}},
	}
	if _, err := New(defs); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestRejectBadColumns(t *testing.T) {
	cases := []TableDef{
		{Name: "X", Columns: []Column{{Name: "id", Kind: KindInt}}},                            // clashes with implicit id
		{Name: "X", Columns: []Column{{Name: "a", Kind: KindChar}}},                            // zero width
		{Name: "X", Columns: []Column{{Name: "a", Kind: KindInt}, {Name: "A", Kind: KindInt}}}, // dup
		{Name: "X", Columns: []Column{{Name: "a"}}},                                            // invalid kind
	}
	for i, d := range cases {
		if _, err := New([]TableDef{d}); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestRejectUnknownAndSelfRefs(t *testing.T) {
	if _, err := New([]TableDef{{Name: "A", Refs: []Ref{{FKColumn: "f", Child: "Nope"}}}}); err == nil {
		t.Fatal("unknown child accepted")
	}
	if _, err := New([]TableDef{{Name: "A", Refs: []Ref{{FKColumn: "f", Child: "A"}}}}); err == nil {
		t.Fatal("self reference accepted")
	}
	if _, err := New(nil); err == nil {
		t.Fatal("empty schema accepted")
	}
}

func TestSchemaString(t *testing.T) {
	s := paperSchema(t)
	out := s.String()
	for _, want := range []string{"CREATE TABLE T0", "fk1 int REFERENCES T1 HIDDEN", "h1 char(10) HIDDEN"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() missing %q:\n%s", want, out)
		}
	}
}
