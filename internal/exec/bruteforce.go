package exec

import (
	"encoding/binary"
	"fmt"

	"ghostdb/internal/query"
	"ghostdb/internal/schema"
	"ghostdb/internal/store"
)

// bruteForce is the strawman projector of Figures 12–13: stream the QEPSJ
// result and fetch every attribute value with *random* flash accesses — a
// binary search over the spooled visible rows and a direct row read in
// the hidden image, per tuple, per table. Visible-selection false
// positives are discarded when the binary search misses.
func (r *queryRun) bruteForce(res *Result) error {
	db, q, sh := r.db, r.q, r.plan.shape
	anchor := q.Anchor

	// Column readers: anchor plus every table we must look at, declared
	// up front as one plan.
	check := append([]*projSpec{sh.specs[anchor]}, sh.proj...)
	resv, err := r.ram.Plan(sh.bruteClaims()...)
	if err != nil {
		return fmt.Errorf("exec: brute-force projection: %w", err)
	}
	defer resv.Release()

	anchorCol := r.resCols[anchor]
	var anchorRd runStream
	defer anchorRd.close()
	anchorRd.open(r.tok, anchorCol.seg, anchorCol.run)
	colRd := make([]runStream, len(sh.proj)) // aligned with sh.proj
	defer closeStreams(colRd)
	for i, s := range sh.proj {
		c, ok := r.resCols[s.table]
		if !ok {
			return fmt.Errorf("exec: missing QEPSJ column for %s", db.Sch.Tables[s.table].Name)
		}
		colRd[i].open(r.tok, c.seg, c.run)
	}

	// One record buffer per table, made on first use and reused for every
	// tuple: spoolBuf for the binary search, hidBuf for the hidden row.
	spoolBuf := map[int][]byte{}
	hidBuf := map[int][]byte{}
	ids := map[int]uint32{}
	visRec := map[int][]byte{}
	hidRec := map[int][]byte{}
	// r.resN bounds the rows: false positives are dropped in the pass.
	rows := newRowArena(db.Sch, q, r.resN)

	for pos := 0; pos < r.resN; pos++ {
		aid, ok, err := anchorRd.next()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("exec: anchor column exhausted early")
		}
		ids[anchor] = aid
		for i, s := range sh.proj {
			ti := s.table
			v, ok, err := colRd[i].next()
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
		for _, s := range check {
			ti, sp := s.table, r.spool[s.table]
			if sp == nil || (len(s.visCols) == 0 && !s.presence) {
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
				if s.presence {
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
				off := sh.specs[p.Table].off[p.ColIdx]
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
				// A random row read per tuple: the defining cost of
				// this projector.
				if err := img.row(nil, r.tok.deltaOf(p.Table), ids[p.Table], rec); err != nil {
					return err
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
