package exec

import (
	"encoding/binary"
	"fmt"
	"strings"

	"ghostdb/internal/query"
	"ghostdb/internal/schema"
	"ghostdb/internal/sqlparse"
)

// Insert adds one tuple, maintaining the vertical partitioning and every
// index structure. Updates are deliberately simple — the paper's setting
// is mono-user with rare updates (§2.3) — but they are complete: the SKT
// of the table gains a row, its climbing indexes gain the new tuple, and
// the climbing indexes of every referenced descendant gain the new
// tuple's id at this table's level.
//
// Without an explicit column list, values are expected as the foreign
// keys (in declaration order) followed by the data columns (in
// declaration order).
//
// insertOn runs against the token owning the table (the caller routed
// it); every structure it maintains — untrusted store, hidden image,
// SKT, climbing indexes, row counts, retained spools — is that token's,
// so the caller must hold that token's admitted session.
//
//ghostdb:requires-slot
func (db *DB) insertOn(tok *Token, ins sqlparse.Insert) error {
	t, ok := db.Sch.Lookup(ins.Table)
	if !ok {
		return fmt.Errorf("exec: unknown table %q", ins.Table)
	}
	fks, vals, err := db.bindInsert(t, ins)
	if err != nil {
		return err
	}
	id := uint32(tok.rows[t.Index])

	// Referential integrity.
	for _, ref := range t.Refs {
		child, _ := db.Sch.Lookup(ref.Child)
		cid, ok := fks[child.Index]
		if !ok {
			return fmt.Errorf("exec: missing foreign key %s", ref.FKColumn)
		}
		if int(cid) >= tok.rows[child.Index] {
			return fmt.Errorf("exec: %s=%d references missing %s row", ref.FKColumn, cid, ref.Child)
		}
	}

	// Visible partition.
	var visible []schema.Value
	for ci, col := range t.Columns {
		if !col.Hidden {
			visible = append(visible, vals[ci])
		}
	}
	if err := tok.Untr.InsertRow(t.Index, visible); err != nil {
		return err
	}

	// Hidden image.
	img := tok.Hidden[t.Index]
	var hidRec []byte
	if img != nil {
		var hidden schema.Row
		for ci, col := range t.Columns {
			if col.Hidden {
				hidden = append(hidden, vals[ci])
			}
		}
		hidRec = make([]byte, img.Codec.Width())
		if err := img.Codec.Encode(hidRec, hidden); err != nil {
			return err
		}
		if err := img.File.Insert(hidRec); err != nil {
			return err
		}
	}

	// SKT row: descendant ids via the children's SKT rows.
	descIDs := map[int]uint32{}
	if len(t.Children()) > 0 {
		for _, c := range t.Children() {
			cid := fks[c]
			descIDs[c] = cid
			if cskt, ok := tok.Cat.SKTOf(c); ok {
				row := make([]uint32, len(cskt.Descendants()))
				if err := cskt.ReadRow(cid, row); err != nil {
					return err
				}
				for i, d := range cskt.Descendants() {
					descIDs[d] = row[i]
				}
			}
		}
		if skt, ok := tok.Cat.SKTOf(t.Index); ok {
			row := make([]uint32, len(skt.Descendants()))
			for i, d := range skt.Descendants() {
				row[i] = descIDs[d]
			}
			if err := skt.Insert(row); err != nil {
				return err
			}
		}
	}

	// Own attribute indexes: the new tuple at the self level.
	for ci, col := range t.Columns {
		if !col.Hidden {
			continue
		}
		cidx, ok := tok.Cat.AttrIndex(t.Index, ci)
		if !ok {
			continue
		}
		key := make([]byte, col.EncodedWidth())
		if err := schema.EncodeValue(key, vals[ci]); err != nil {
			return err
		}
		perLevel := make([]int64, len(cidx.Levels()))
		for i, lvl := range cidx.Levels() {
			if lvl == t.Index {
				perLevel[i] = int64(id)
			} else {
				perLevel[i] = -1
			}
		}
		if err := cidx.InsertEntry(key, perLevel); err != nil {
			return err
		}
	}

	// Descendant indexes gain the new tuple's id at this table's level.
	for d, did := range descIDs {
		dt := db.Sch.Tables[d]
		dimg := tok.Hidden[d]
		var drec []byte
		for ci, col := range dt.Columns {
			if !col.Hidden {
				continue
			}
			cidx, ok := tok.Cat.AttrIndex(d, ci)
			if !ok {
				continue
			}
			slot, ok := cidx.LevelOf(t.Index)
			if !ok {
				continue
			}
			if drec == nil {
				if dimg == nil {
					return fmt.Errorf("exec: no hidden image for %s", dt.Name)
				}
				drec = make([]byte, dimg.File.RowWidth())
				if err := dimg.File.ReadRow(did, drec); err != nil {
					return err
				}
			}
			o, w := dimg.Codec.ColumnRange(dimg.ColPos[ci])
			key := make([]byte, w)
			copy(key, drec[o:o+w])
			perLevel := make([]int64, len(cidx.Levels()))
			for i := range perLevel {
				perLevel[i] = -1
			}
			perLevel[slot] = int64(id)
			if err := cidx.InsertEntry(key, perLevel); err != nil {
				return err
			}
			_ = col
		}
		if idIdx, ok := tok.Cat.IDIndex(d); ok {
			if slot, ok := idIdx.LevelOf(t.Index); ok {
				var key [4]byte
				binary.BigEndian.PutUint32(key[:], did)
				perLevel := make([]int64, len(idIdx.Levels()))
				for i := range perLevel {
					perLevel[i] = -1
				}
				perLevel[slot] = int64(id)
				if err := idIdx.InsertEntry(key[:], perLevel); err != nil {
					return err
				}
			}
		}
	}

	tok.mu.Lock()
	tok.rows[t.Index]++
	tok.mu.Unlock()
	db.committed(tok)
	return nil
}

// bindInsert maps the INSERT's values onto foreign keys and data columns.
func (db *DB) bindInsert(t *schema.Table, ins sqlparse.Insert) (map[int]uint32, []schema.Value, error) {
	fks := map[int]uint32{}
	vals := make([]schema.Value, len(t.Columns))
	bound := make([]bool, len(t.Columns))

	bindFK := func(ref schema.Ref, v schema.Value) error {
		if v.Kind != schema.KindInt || v.I < 0 {
			return fmt.Errorf("exec: foreign key %s needs a non-negative int, got %s", ref.FKColumn, v)
		}
		child, _ := db.Sch.Lookup(ref.Child)
		fks[child.Index] = uint32(v.I)
		return nil
	}
	bindCol := func(ci int, v schema.Value) error {
		cv, err := coerceInsert(v, t.Columns[ci])
		if err != nil {
			return fmt.Errorf("exec: column %s: %w", t.Columns[ci].Name, err)
		}
		vals[ci] = cv
		bound[ci] = true
		return nil
	}

	if len(ins.Columns) > 0 {
		if len(ins.Columns) != len(ins.Values) {
			return nil, nil, fmt.Errorf("exec: %d columns but %d values", len(ins.Columns), len(ins.Values))
		}
		for i, name := range ins.Columns {
			matched := false
			for _, ref := range t.Refs {
				if strings.EqualFold(ref.FKColumn, name) {
					if err := bindFK(ref, ins.Values[i]); err != nil {
						return nil, nil, err
					}
					matched = true
					break
				}
			}
			if matched {
				continue
			}
			if _, ci, ok := t.Column(name); ok {
				if err := bindCol(ci, ins.Values[i]); err != nil {
					return nil, nil, err
				}
				continue
			}
			return nil, nil, fmt.Errorf("exec: unknown column %q in INSERT", name)
		}
	} else {
		want := len(t.Refs) + len(t.Columns)
		if len(ins.Values) != want {
			return nil, nil, fmt.Errorf("exec: INSERT into %s needs %d values (fks then columns), got %d",
				t.Name, want, len(ins.Values))
		}
		for i, ref := range t.Refs {
			if err := bindFK(ref, ins.Values[i]); err != nil {
				return nil, nil, err
			}
		}
		for ci := range t.Columns {
			if err := bindCol(ci, ins.Values[len(t.Refs)+ci]); err != nil {
				return nil, nil, err
			}
		}
	}
	for ci := range t.Columns {
		if !bound[ci] {
			return nil, nil, fmt.Errorf("exec: column %s has no value (defaults are not supported)", t.Columns[ci].Name)
		}
	}
	if len(fks) != len(t.Refs) {
		return nil, nil, fmt.Errorf("exec: INSERT into %s must provide all foreign keys", t.Name)
	}
	return fks, vals, nil
}

func coerceInsert(v schema.Value, col schema.Column) (schema.Value, error) {
	switch col.Kind {
	case schema.KindInt:
		if v.Kind == schema.KindInt {
			return v, nil
		}
	case schema.KindFloat:
		if v.Kind == schema.KindFloat {
			return v, nil
		}
		if v.Kind == schema.KindInt {
			return schema.FloatVal(float64(v.I)), nil
		}
	case schema.KindChar:
		if v.Kind == schema.KindChar {
			if len(v.S) > col.Width {
				return schema.Value{}, fmt.Errorf("string %q exceeds char(%d)", v.S, col.Width)
			}
			return v, nil
		}
	}
	return schema.Value{}, fmt.Errorf("value %s incompatible with %v", v, col.Kind)
}

var _ = query.IDCol // keep the import while insert uses only sibling files
