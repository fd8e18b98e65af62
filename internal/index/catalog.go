package index

import (
	"fmt"

	"ghostdb/internal/flash"
	"ghostdb/internal/schema"
	"ghostdb/internal/store"
)

// Variant selects the indexation scheme compared in Figure 7.
type Variant int

const (
	// VariantFull is the paper's proposal: an SKT at every non-leaf table
	// and climbing indexes referencing every ancestor level.
	VariantFull Variant = iota
	// VariantBasic keeps a single SKT (root) and climbing indexes that
	// reference the root directly (self + root levels).
	VariantBasic
	// VariantStar keeps the root SKT but traditional selection indexes
	// (self level only), enabling star-join strategies à la O'Neil-Graefe.
	VariantStar
	// VariantJoin drops the SKT; traditional indexes on all attributes
	// plus binary join indexes (child id -> parent ids), à la Valduriez.
	VariantJoin
)

func (v Variant) String() string {
	switch v {
	case VariantFull:
		return "FullIndex"
	case VariantBasic:
		return "BasicIndex"
	case VariantStar:
		return "StarIndex"
	case VariantJoin:
		return "JoinIndex"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// AttrData carries the encoded values of one hidden attribute of a table,
// packed Width bytes per row, used to build its climbing index.
type AttrData struct {
	ColIdx int // column position within the table's Columns
	Width  int
	Data   []byte
}

// TableInput is the transient, build-time image of one table.
type TableInput struct {
	Rows  int
	FKs   map[int][]uint32 // child table index -> per-row referenced id
	Attrs []AttrData       // attributes to index (the hidden ones)
}

// Catalog holds every index structure of the hidden database.
type Catalog struct {
	Sch     *schema.Schema
	Variant Variant

	skts  map[int]*SKT
	attrs map[[2]int]*Climbing // (table, colIdx)
	ids   map[int]*Climbing    // table -> id index (non-root tables)
}

// Build constructs all SKTs and climbing indexes for the given variant.
// inputs must contain an entry for every table of every tree it touches:
// a tree is either fully present or fully absent (absent trees belong to
// other secure tokens — each token's catalog covers exactly the trees
// placed on it, and index structures never cross trees).
func Build(dev *flash.Device, sch *schema.Schema, inputs map[int]*TableInput, variant Variant) (*Catalog, error) {
	return build(dev, sch, inputs, variant, buildClimbing)
}

// build is Build with the climbing-index constructor as a parameter, so
// tests can build the same catalog through a reference constructor.
func build(dev *flash.Device, sch *schema.Schema, inputs map[int]*TableInput, variant Variant,
	newClimbing func(*flash.Device, climbingInput) (*Climbing, error)) (*Catalog, error) {
	cat := &Catalog{
		Sch:     sch,
		Variant: variant,
		skts:    make(map[int]*SKT),
		attrs:   make(map[[2]int]*Climbing),
		ids:     make(map[int]*Climbing),
	}
	owned := func(ti int) bool { return inputs[ti] != nil }
	for _, t := range sch.Tables {
		if owned(t.Index) != owned(sch.RootOf(t.Index)) {
			return nil, fmt.Errorf("index: tree of %q is only partially present in the inputs",
				t.Name)
		}
	}

	desc, err := descendantIDs(sch, inputs)
	if err != nil {
		return nil, err
	}

	// Subtree Key Tables.
	for _, t := range sch.Tables {
		if !owned(t.Index) || len(t.Children()) == 0 {
			continue
		}
		switch variant {
		case VariantFull:
			// every non-leaf table
		case VariantBasic, VariantStar:
			if !sch.IsRoot(t.Index) {
				continue
			}
		case VariantJoin:
			continue
		}
		skt, err := NewSKT(dev, t.Index, t.Descendants())
		if err != nil {
			return nil, err
		}
		in := inputs[t.Index]
		row := make([]uint32, len(t.Descendants()))
		for i := 0; i < in.Rows; i++ {
			for di, d := range t.Descendants() {
				row[di] = desc[t.Index][d][i]
			}
			if err := skt.Append(row); err != nil {
				return nil, err
			}
		}
		if err := skt.Seal(); err != nil {
			return nil, err
		}
		cat.skts[t.Index] = skt
	}

	// Attribute climbing indexes.
	for _, t := range sch.Tables {
		if !owned(t.Index) {
			continue
		}
		in := inputs[t.Index]
		levels := attrLevels(sch, t, variant)
		for _, a := range in.Attrs {
			ci, err := newClimbing(dev, climbingInput{
				table:     t.Index,
				colIdx:    a.ColIdx,
				keyW:      a.Width,
				vals:      a.Data,
				rows:      in.Rows,
				levels:    levels,
				descOfLvl: descPerLevel(levels, t.Index, desc),
			})
			if err != nil {
				return nil, fmt.Errorf("index: building climbing index %s.%d: %w", t.Name, a.ColIdx, err)
			}
			cat.attrs[[2]int{t.Index, a.ColIdx}] = ci
		}
	}

	// ID climbing indexes (join acceleration).
	for _, t := range sch.Tables {
		if !owned(t.Index) || sch.IsRoot(t.Index) {
			continue
		}
		var levels []int
		switch variant {
		case VariantFull:
			levels = append(levels, t.Ancestors()...)
		case VariantBasic:
			levels = []int{sch.RootOf(t.Index)}
		case VariantStar:
			continue // star joins go through the root SKT only
		case VariantJoin:
			levels = []int{t.ParentIndex} // binary join index
		}
		ci, err := newClimbing(dev, climbingInput{
			table:     t.Index,
			colIdx:    -1,
			keyW:      store.IDBytes,
			rows:      inputs[t.Index].Rows,
			levels:    levels,
			descOfLvl: descPerLevel(levels, t.Index, desc),
		})
		if err != nil {
			return nil, fmt.Errorf("index: building id index %s: %w", t.Name, err)
		}
		cat.ids[t.Index] = ci
	}
	return cat, nil
}

// attrLevels returns the level set of an attribute index under a variant.
func attrLevels(sch *schema.Schema, t *schema.Table, variant Variant) []int {
	switch variant {
	case VariantFull:
		return append([]int{t.Index}, t.Ancestors()...)
	case VariantBasic:
		if sch.IsRoot(t.Index) {
			return []int{t.Index}
		}
		return []int{t.Index, sch.RootOf(t.Index)}
	default:
		return []int{t.Index}
	}
}

// descPerLevel maps each level to its descendant-row array (nil for self).
func descPerLevel(levels []int, table int, desc map[int]map[int][]uint32) [][]uint32 {
	out := make([][]uint32, len(levels))
	for i, l := range levels {
		if l == table {
			continue
		}
		out[i] = desc[l][table]
	}
	return out
}

// descendantIDs computes, for every table A and descendant D, the D-row
// referenced (transitively) by each A-row, validating referential
// integrity along the way.
func descendantIDs(sch *schema.Schema, inputs map[int]*TableInput) (map[int]map[int][]uint32, error) {
	desc := make(map[int]map[int][]uint32, len(sch.Tables))
	// Children before parents: process by decreasing depth.
	order := make([]*schema.Table, len(sch.Tables))
	copy(order, sch.Tables)
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if order[j].Depth > order[i].Depth {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for _, t := range order {
		in := inputs[t.Index]
		if in == nil {
			continue // tree placed on another token
		}
		desc[t.Index] = make(map[int][]uint32)
		for _, ci := range t.Children() {
			fk := in.FKs[ci]
			if len(fk) != in.Rows {
				return nil, fmt.Errorf("index: table %q fk->%q has %d values, want %d",
					t.Name, sch.Tables[ci].Name, len(fk), in.Rows)
			}
			childRows := inputs[ci].Rows
			for i, v := range fk {
				if int(v) >= childRows {
					return nil, fmt.Errorf("index: table %q row %d references %q id %d (only %d rows)",
						t.Name, i, sch.Tables[ci].Name, v, childRows)
				}
			}
			desc[t.Index][ci] = fk
			for _, dd := range sch.Tables[ci].Descendants() {
				inner := desc[ci][dd]
				arr := make([]uint32, in.Rows)
				for i, v := range fk {
					arr[i] = inner[v]
				}
				desc[t.Index][dd] = arr
			}
		}
	}
	return desc, nil
}

// SKTOf returns the Subtree Key Table of a table, if built.
func (c *Catalog) SKTOf(table int) (*SKT, bool) {
	s, ok := c.skts[table]
	return s, ok
}

// AttrIndex returns the climbing index on (table, colIdx), if built.
func (c *Catalog) AttrIndex(table, colIdx int) (*Climbing, bool) {
	ci, ok := c.attrs[[2]int{table, colIdx}]
	return ci, ok
}

// IDIndex returns the id climbing index of a table, if built.
func (c *Catalog) IDIndex(table int) (*Climbing, bool) {
	ci, ok := c.ids[table]
	return ci, ok
}

// StorageBreakdown reports the flash footprint in pages.
type StorageBreakdown struct {
	SKTPages  int
	AttrPages int
	IDPages   int
}

// Total returns the combined page count.
func (b StorageBreakdown) Total() int { return b.SKTPages + b.AttrPages + b.IDPages }

// Storage computes the current footprint of all structures.
func (c *Catalog) Storage() StorageBreakdown {
	var b StorageBreakdown
	for _, s := range c.skts {
		b.SKTPages += s.Pages()
	}
	for _, a := range c.attrs {
		b.AttrPages += a.Pages()
	}
	for _, i := range c.ids {
		b.IDPages += i.Pages()
	}
	return b
}
