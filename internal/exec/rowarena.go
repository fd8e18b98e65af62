package exec

import (
	"bytes"
	"strings"

	"ghostdb/internal/query"
	"ghostdb/internal/schema"
)

// rowArena builds the rows of one result with a fixed number of
// allocations, not one per row. It is the one row builder of the three
// producers (the final join, the brute-force projector and the
// visible-only path):
//
//   - it is sized once from the producer's bound on the rows it emits
//     (r.resN or len(vr.IDs)). The pass drops false positives, so the
//     bound can exceed the rows kept; slack reports what that costs;
//   - each row is a capped sub-slice of one []schema.Value, so an append
//     to a returned row reallocates instead of overwriting the next row;
//   - each char value is trimmed into one strings.Builder, grown once to
//     the bound's worst case, and its S is a substring of the builder's
//     String(). A char value kept by a caller keeps all of them alive.
type rowArena struct {
	width int             // values per row
	free  []schema.Value  // the uncarved tail
	rows  []schema.Row    // rows carved so far; capacity is the bound
	chars strings.Builder // every char value's bytes
}

// newRowArena sizes an arena for q's projection list; bound is an upper
// bound on the rows the producer emits.
func newRowArena(sch *schema.Schema, q *query.Query, bound int) *rowArena {
	charBytes := 0 // most char bytes one row holds
	for _, p := range q.Projections {
		if p.ColIdx == query.IDCol {
			continue
		}
		if col := sch.Tables[p.Table].Columns[p.ColIdx]; col.Kind == schema.KindChar {
			charBytes += col.EncodedWidth()
		}
	}
	w := len(q.Projections)
	a := &rowArena{
		width: w,
		free:  make([]schema.Value, bound*w),
		rows:  make([]schema.Row, 0, bound),
	}
	a.chars.Grow(bound * charBytes)
	return a
}

// next carves the next row. The caller sets every value, char values
// through decode.
func (a *rowArena) next() schema.Row {
	row := a.free[:a.width:a.width]
	a.free = a.free[a.width:]
	a.rows = append(a.rows, row)
	return row
}

// decode sets *dst to the value encoded in src, as schema.DecodeValue
// would, with a char value's bytes stored in the arena.
func (a *rowArena) decode(dst *schema.Value, src []byte, k schema.Kind) error {
	if k != schema.KindChar {
		v, err := schema.DecodeValue(src, k)
		*dst = v
		return err
	}
	start := a.chars.Len()
	a.chars.Write(bytes.TrimRight(src, " "))
	*dst = schema.CharVal(a.chars.String()[start:])
	return nil
}

// finish hands the carved rows to res (nil when there are none) with the
// bytes they keep alive beyond their own, for Result.SizeBytes.
func (a *rowArena) finish(res *Result) {
	n := len(a.rows)
	if n == 0 {
		return
	}
	res.Rows = a.rows
	res.slack = int64(cap(a.rows)-n)*(rowBytes+int64(a.width)*valueBytes) +
		int64(a.chars.Cap()-a.chars.Len())
}
