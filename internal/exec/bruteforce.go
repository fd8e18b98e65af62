package exec

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ghostdb/internal/query"
	"ghostdb/internal/ram"
	"ghostdb/internal/schema"
	"ghostdb/internal/store"
)

// bruteForce is the strawman projector of Figures 12–13: stream the QEPSJ
// result and fetch every attribute value with *random* flash accesses — a
// binary search over the spooled visible rows and a direct row read in
// the hidden image, per tuple, per table. Visible-selection false
// positives are discarded when the binary search misses.
func (r *queryRun) bruteForce(res *Result) error {
	db, q := r.db, r.q
	anchor := q.Anchor

	// Column readers: anchor plus every table we must look at. Their
	// buffers are declared up front as one plan (the operator's
	// documented minimum: one buffer per open column reader).
	tables := map[int]bool{}
	for _, ti := range q.ProjTables() {
		if ti != anchor {
			tables[ti] = true
		}
	}
	for ti := range r.exactAtProject {
		tables[ti] = true
	}
	var order []int
	for ti := range tables {
		order = append(order, ti)
	}
	sort.Ints(order)

	resv, err := r.ram.Plan(ram.Claim{Name: "column-readers", Min: 1 + len(order), Want: 1 + len(order)})
	if err != nil {
		return fmt.Errorf("exec: brute-force projection: %w", err)
	}
	defer resv.Release()

	anchorCol := r.resCols[anchor]
	anchorRd := anchorCol.seg.NewRunReader(anchorCol.run)
	colRd := map[int]*store.RunReader{}
	for _, ti := range order {
		c, ok := r.resCols[ti]
		if !ok {
			return fmt.Errorf("exec: missing QEPSJ column for %s", db.Sch.Tables[ti].Name)
		}
		colRd[ti] = c.seg.NewRunReader(c.run)
	}

	projVis := r.projectedVisibleCols()
	spoolOff := map[int]map[int]int{} // table -> colIdx -> offset in spool row
	for ti, sp := range r.spool {
		offs := map[int]int{}
		off := store.IDBytes
		for _, c := range sp.cols {
			offs[c] = off
			off += db.Sch.Tables[ti].Columns[c].EncodedWidth()
		}
		spoolOff[ti] = offs
	}

	// One record buffer per table, made on first use and reused for every
	// tuple: spoolBuf for the binary search, hidBuf for the hidden row.
	check := append([]int{anchor}, order...)
	spoolBuf := map[int][]byte{}
	hidBuf := map[int][]byte{}
	ids := map[int]uint32{}
	visRec := map[int][]byte{}
	hidRec := map[int][]byte{}
	// r.resN bounds the rows: false positives are dropped in the pass.
	rows := newRowArena(db.Sch, q, r.resN)

	for pos := 0; pos < r.resN; pos++ {
		aid, ok, err := anchorRd.Next()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("exec: anchor column exhausted early")
		}
		ids[anchor] = aid
		for _, ti := range order {
			v, ok, err := colRd[ti].Next()
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("exec: column of %s exhausted early", db.Sch.Tables[ti].Name)
			}
			ids[ti] = v
		}
		// Exact visible verification by random binary search.
		keep := true
		clear(visRec)
		clear(hidRec)
		for _, ti := range check {
			sp := r.spool[ti]
			needVis := len(projVis[ti]) > 0
			needExact := r.exactAtProject[ti]
			if sp == nil || (!needVis && !needExact) {
				continue
			}
			if spoolBuf[ti] == nil {
				spoolBuf[ti] = make([]byte, sp.file.RowWidth())
			}
			rec, found, err := spoolSearch(sp.file, ids[ti], spoolBuf[ti])
			if err != nil {
				return err
			}
			if !found {
				if needExact {
					keep = false
					break
				}
				return fmt.Errorf("exec: id %d of %s missing from Vis spool", ids[ti], db.Sch.Tables[ti].Name)
			}
			visRec[ti] = rec
		}
		if !keep {
			continue
		}
		// Assemble the row with random hidden-image reads.
		row := rows.next()
		for i, p := range q.Projections {
			if p.ColIdx == query.IDCol {
				row[i] = schema.IntVal(int64(ids[p.Table]))
				continue
			}
			col := db.Sch.Tables[p.Table].Columns[p.ColIdx]
			if !col.Hidden {
				rec := visRec[p.Table]
				if rec == nil {
					return fmt.Errorf("exec: no visible record for %s", db.Sch.Tables[p.Table].Name)
				}
				off := spoolOff[p.Table][p.ColIdx]
				if err := rows.decode(&row[i], rec[off:off+col.EncodedWidth()], col.Kind); err != nil {
					return err
				}
				continue
			}
			img := r.tok.Hidden[p.Table]
			if img == nil {
				return fmt.Errorf("exec: no hidden image for %s", db.Sch.Tables[p.Table].Name)
			}
			rec := hidRec[p.Table]
			if rec == nil {
				if hidBuf[p.Table] == nil {
					hidBuf[p.Table] = make([]byte, img.File.RowWidth())
				}
				rec = hidBuf[p.Table]
				if err := img.File.ReadRow(ids[p.Table], rec); err != nil {
					return err
				}
				// Delta overlay: upserted rows carry their latest values
				// in the overlay, not the immutable base image.
				if dl := r.tok.deltaOf(p.Table); dl != nil {
					if ov, ok := dl.Lookup(ids[p.Table]); ok {
						copy(rec, ov)
					}
				}
				hidRec[p.Table] = rec
			}
			o, w := img.Codec.ColumnRange(img.ColPos[p.ColIdx])
			if err := rows.decode(&row[i], rec[o:o+w], col.Kind); err != nil {
				return err
			}
		}
	}
	rows.finish(res)
	return nil
}

// spoolSearch binary-searches an id-sorted spool file, reading into rec
// (RowWidth bytes), which it returns on a hit; every probe is one random
// page read, the defining cost of the brute-force projector.
func spoolSearch(f *store.RowFile, id uint32, rec []byte) ([]byte, bool, error) {
	lo, hi := 0, f.Count()-1
	for lo <= hi {
		mid := (lo + hi) / 2
		if err := f.ReadRow(uint32(mid), rec); err != nil {
			return nil, false, err
		}
		got := binary.BigEndian.Uint32(rec)
		switch {
		case got == id:
			return rec, true, nil
		case got < id:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return nil, false, nil
}
