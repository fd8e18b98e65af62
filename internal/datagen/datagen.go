// Package datagen produces the two datasets of the paper's evaluation
// (§6.2): the synthetic uniform dataset over the tree schema of Figure 3
// (T0 … T12, 10M/1M/1M/100K/100K tuples at scale 1.0), and a synthetic
// stand-in for the sanitized diabetes medical dataset (Doctors, Patients,
// Measurements, Drugs at 4.5K/14K/1.3M/45 tuples), which we cannot obtain
// — the substitution preserves the schema, the cardinalities and the
// Measurements/Patients ≈ 92 ratio that drive Figure 16.
//
// Attribute values are uniform zero-padded decimals over a domain of 1000
// distinct values, so range predicates hit any target selectivity with
// 0.001 granularity — exactly how the evaluation sweeps sV and sH.
package datagen

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	"ghostdb/internal/exec"
	"ghostdb/internal/ref"
	"ghostdb/internal/schema"
)

// Domain is the number of distinct values per generated attribute.
const Domain = 1000

// Dataset is a generated database ready for loading.
type Dataset struct {
	Sch  *schema.Schema
	Load map[int]*exec.TableLoad
	Rows map[string]int
}

// PadWidth is the width of generated char attributes.
const PadWidth = 10

// PadValue renders domain value v as a zero-padded char(10) literal, the
// form used by generated attributes ("0000000042").
func PadValue(v int) string {
	var buf [24]byte
	return string(appendPadded(buf[:0], v, PadWidth))
}

// appendPadded appends v in decimal, zero-padded to width bytes — what
// fmt's "%0*d" prints: a negative value's sign counts toward the width,
// and a value with more digits than width is not truncated.
func appendPadded(dst []byte, v, width int) []byte {
	u := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		u = -u
		width--
	}
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], u, 10)
	for n := len(d); n < width; n++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}

// SelValue returns the literal x such that `attr < x` selects fraction
// sel of a uniform attribute.
func SelValue(sel float64) string {
	v := int(sel * Domain)
	if v < 0 {
		v = 0
	}
	if v > Domain {
		v = Domain
	}
	return PadValue(v)
}

// SyntheticDefs returns the Figure 3 schema: five visible and five hidden
// char(10) attributes per table, hidden foreign keys.
func SyntheticDefs() []schema.TableDef {
	attrs := func() []schema.Column {
		var cols []schema.Column
		for i := 1; i <= 5; i++ {
			cols = append(cols, schema.Column{Name: fmt.Sprintf("v%d", i), Kind: schema.KindChar, Width: PadWidth})
		}
		for i := 1; i <= 5; i++ {
			cols = append(cols, schema.Column{Name: fmt.Sprintf("h%d", i), Kind: schema.KindChar, Width: PadWidth, Hidden: true})
		}
		return cols
	}
	return []schema.TableDef{
		{Name: "T0", Columns: attrs(), Refs: []schema.Ref{
			{FKColumn: "fk1", Child: "T1", Hidden: true},
			{FKColumn: "fk2", Child: "T2", Hidden: true}}},
		{Name: "T1", Columns: attrs(), Refs: []schema.Ref{
			{FKColumn: "fk11", Child: "T11", Hidden: true},
			{FKColumn: "fk12", Child: "T12", Hidden: true}}},
		{Name: "T2", Columns: attrs()},
		{Name: "T11", Columns: attrs()},
		{Name: "T12", Columns: attrs()},
	}
}

// SyntheticCardinalities returns the paper's table sizes scaled by sf,
// with a small floor so tiny test scales stay meaningful.
func SyntheticCardinalities(sf float64) map[string]int {
	base := map[string]int{"T0": 10_000_000, "T1": 1_000_000, "T2": 1_000_000, "T11": 100_000, "T12": 100_000}
	out := make(map[string]int, len(base))
	for k, v := range base {
		n := int(float64(v) * sf)
		if n < 20 {
			n = 20
		}
		out[k] = n
	}
	return out
}

// Synthetic generates the uniform synthetic dataset at scale sf.
func Synthetic(sf float64, seed int64) (*Dataset, error) {
	sch, err := schema.New(SyntheticDefs())
	if err != nil {
		return nil, err
	}
	cards := SyntheticCardinalities(sf)
	return generate(sch, cards, seed)
}

// generate fills every table with uniform attribute values and uniform
// foreign keys.
func generate(sch *schema.Schema, cards map[string]int, seed int64) (*Dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{Sch: sch, Load: map[int]*exec.TableLoad{}, Rows: cards}
	for _, t := range sch.Tables {
		n, ok := cards[t.Name]
		if !ok {
			return nil, fmt.Errorf("datagen: no cardinality for %q", t.Name)
		}
		ld := &exec.TableLoad{Rows: n, FKs: map[int][]uint32{}}
		for _, col := range t.Columns {
			w := col.EncodedWidth()
			data := make([]byte, n*w)
			if err := fillColumn(rng, col, data); err != nil {
				return nil, err
			}
			ld.Cols = append(ld.Cols, exec.ColData{Width: w, Data: data})
		}
		for _, ci := range t.Children() {
			child := sch.Tables[ci]
			cn := cards[child.Name]
			fk := make([]uint32, n)
			for i := range fk {
				fk[i] = uint32(rng.Intn(cn))
			}
			ld.FKs[ci] = fk
		}
		ds.Load[t.Index] = ld
	}
	return ds, nil
}

// fillColumn draws one uniform domain value per row of col, one rng draw
// each, and writes it into data in the schema.EncodeValue encoding. Char
// values are written in place: PadWidth zero-padded digits (a narrower
// column keeps the value's low col.Width digits), then space padding.
func fillColumn(rng *rand.Rand, col schema.Column, data []byte) error {
	w := col.EncodedWidth()
	for off := 0; off < len(data); off += w {
		dst := data[off : off+w]
		switch col.Kind {
		case schema.KindInt:
			if err := schema.EncodeValue(dst, schema.IntVal(int64(rng.Intn(Domain)))); err != nil {
				return err
			}
		case schema.KindFloat:
			if err := schema.EncodeValue(dst, schema.FloatVal(float64(rng.Intn(Domain))+0.5)); err != nil {
				return err
			}
		default:
			v, width := rng.Intn(Domain), PadWidth
			if col.Width < PadWidth {
				v, width = v%pow10(col.Width), col.Width
			}
			var buf [24]byte
			s := appendPadded(buf[:0], v, width)
			if len(s) > w {
				return fmt.Errorf("datagen: value %q exceeds char(%d)", s, w)
			}
			for i := copy(dst, s); i < w; i++ {
				dst[i] = ' '
			}
		}
	}
	return nil
}

func pow10(n int) int {
	p := 1
	for i := 0; i < n && i < 9; i++ {
		p *= 10
	}
	return p
}

// RefEngine decodes the generated load into a naive reference engine for
// differential testing. Each table's values share one backing array, and
// each distinct char value is decoded into one string that every row
// holding it shares: generated columns draw from a domain of Domain
// values, so this keeps the oracle's heap near the size of the values
// themselves.
func (d *Dataset) RefEngine() (*ref.Engine, error) {
	e := ref.New(d.Sch)
	strs := map[string]string{} // trimmed char value -> its one copy
	for _, t := range d.Sch.Tables {
		ld := d.Load[t.Index]
		nc := len(t.Columns)
		vals := make([]schema.Value, ld.Rows*nc)
		for ci, col := range t.Columns {
			w := col.EncodedWidth()
			data := ld.Cols[ci].Data
			for i := 0; i < ld.Rows; i++ {
				enc := data[i*w : (i+1)*w]
				if col.Kind != schema.KindChar {
					v, err := schema.DecodeValue(enc, col.Kind)
					if err != nil {
						return nil, err
					}
					vals[i*nc+ci] = v
					continue
				}
				trimmed := bytes.TrimRight(enc, " ") // schema.DecodeValue's trim
				s, ok := strs[string(trimmed)]
				if !ok {
					s = string(trimmed)
					strs[s] = s
				}
				vals[i*nc+ci] = schema.CharVal(s)
			}
		}
		rows := make([]schema.Row, ld.Rows)
		for i := range rows {
			rows[i] = vals[i*nc : (i+1)*nc : (i+1)*nc]
		}
		e.Load(t.Index, rows, ld.FKs)
	}
	return e, nil
}

// NewDB builds and loads an exec.DB over this dataset.
func (d *Dataset) NewDB(opts exec.Options) (*exec.DB, error) {
	db, err := exec.NewDB(d.Sch, opts)
	if err != nil {
		return nil, err
	}
	if err := db.Load(d.Load); err != nil {
		return nil, err
	}
	return db, nil
}

// ForestDefs returns nTrees independent two-table trees S<k> -> C<k>,
// each with the synthetic attribute set (five visible + five hidden
// char(10) columns, hidden foreign key). Independent trees are the unit
// cross-token sharding places: a k-tree forest spread over k tokens
// gives every token its own private workload.
func ForestDefs(nTrees int) []schema.TableDef {
	attrs := func() []schema.Column {
		var cols []schema.Column
		for i := 1; i <= 5; i++ {
			cols = append(cols, schema.Column{Name: fmt.Sprintf("v%d", i), Kind: schema.KindChar, Width: PadWidth})
		}
		for i := 1; i <= 5; i++ {
			cols = append(cols, schema.Column{Name: fmt.Sprintf("h%d", i), Kind: schema.KindChar, Width: PadWidth, Hidden: true})
		}
		return cols
	}
	var defs []schema.TableDef
	for k := 0; k < nTrees; k++ {
		defs = append(defs,
			schema.TableDef{Name: fmt.Sprintf("S%d", k), Columns: attrs(), Refs: []schema.Ref{
				{FKColumn: fmt.Sprintf("fkc%d", k), Child: fmt.Sprintf("C%d", k), Hidden: true}}},
			schema.TableDef{Name: fmt.Sprintf("C%d", k), Columns: attrs()},
		)
	}
	return defs
}

// ForestCardinalities scales each tree's sizes by sf (roots 200K, leaves
// 20K at sf = 1, floored for tiny test scales).
func ForestCardinalities(sf float64, nTrees int) map[string]int {
	out := make(map[string]int, 2*nTrees)
	scale := func(base int) int {
		n := int(float64(base) * sf)
		if n < 20 {
			n = 20
		}
		return n
	}
	for k := 0; k < nTrees; k++ {
		out[fmt.Sprintf("S%d", k)] = scale(200_000)
		out[fmt.Sprintf("C%d", k)] = scale(20_000)
	}
	return out
}

// Forest generates the nTrees-tree dataset at scale sf.
func Forest(sf float64, seed int64, nTrees int) (*Dataset, error) {
	sch, err := schema.New(ForestDefs(nTrees))
	if err != nil {
		return nil, err
	}
	return generate(sch, ForestCardinalities(sf, nTrees), seed)
}
