package exec

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ghostdb/internal/bloom"
	"ghostdb/internal/delta"
	"ghostdb/internal/ram"
	"ghostdb/internal/schema"
	"ghostdb/internal/store"
)

// tableProj is one run's projection work for one table: the plan's
// spec and the MJoin output this run writes, one position-sorted run of
// <pos, vlist, hlist> tuples per batch that matched.
type tableProj struct {
	*projSpec
	runs runSet
}

// project runs QEPP: σVH computation, MJoin batches and the final
// positional join, producing the result rows.
func (r *queryRun) project() (*Result, error) {
	db, q := r.db, r.q
	res := &Result{}
	for _, p := range q.Projections {
		res.Columns = append(res.Columns, db.columnLabel(p))
	}
	if r.resN == 0 {
		res.Rows = []schema.Row{}
		return res, nil
	}
	if r.cfg.Projector == ProjectBruteForce {
		claims := r.plan.shape.bruteClaims()
		return res, r.stage(spanProject, claims, func(*ram.Reservation) error { return r.bruteForce(res) })
	}

	var tps []*tableProj
	for _, s := range r.plan.shape.mjoin {
		tps = append(tps, &tableProj{projSpec: s, runs: runSet{tupleW: s.tupleW}})
	}
	for _, tp := range tps {
		if err := r.mjoinTable(tp); err != nil {
			return res, err
		}
	}
	return res, r.finalJoin(res, tps)
}

// sigmaVH computes σVH(Ti): the visible ids that can possibly appear in
// the result, per §4 — a Bloom filter over the QEPSJ.Ti.id column probed
// with the ids sent by Untrusted. Returns a temp run of sorted ids. A
// table with no visible data takes the column sort's stages instead.
// Otherwise its stage claims the spool reader, the output writer and,
// for the Bloom projector, the column reader; the filter takes a byte
// grant of its own.
func (r *queryRun) sigmaVH(tp *tableProj) (sublist, error) {
	col := r.resCols[tp.table]
	sp := r.spool[tp.table]
	if sp == nil {
		// No visible data for this table: derive the sorted distinct ids
		// of the column by chunked in-RAM sorting.
		return r.sortColumn(col)
	}
	bloomed := r.cfg.Projector == ProjectBloom
	claims := []ram.Claim{{Name: "spool", Min: 1, Want: 1}, {Name: "out", Min: 1, Want: 1}}
	if bloomed {
		claims = append(claims, ram.Claim{Name: "col", Min: 1, Want: 1})
	}
	var sig sublist
	err := r.stage(spanProject, claims, func(*ram.Reservation) error {
		var f *bloom.Filter
		if bloomed {
			// "The Bloom filter is calibrated by default to occupy the
			// entire RAM" (§5), minus a working buffer. The filter is a
			// pure optimization: when RAM is too tight for a useful one,
			// σVH proceeds unfiltered instead of failing.
			budget := r.ram.Available() - r.ram.BufferSize()
			if bp, err := bloom.PlanFor(r.resN, budget); err == nil {
				if g, err := r.ram.Alloc(bp.Bytes); err == nil {
					defer g.Release()
					f = bloom.New(bp, r.resN)
					var rd runStream
					defer rd.close()
					rd.open(r, col, store.IDBytes)
					for {
						v, ok, err := rd.next()
						if err != nil {
							return err
						}
						if !ok {
							break
						}
						f.Add(v)
					}
				}
			}
		}
		// Probe the spooled visible ids (sequential flash scan).
		out := r.newTemp()
		if err := out.BeginRun(); err != nil {
			return err
		}
		srd := sp.file.NewSeqReader()
		for {
			rec, _, ok, err := srd.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			id := binary.BigEndian.Uint32(rec)
			if f == nil || f.MayContain(id) {
				if err := out.Add(id); err != nil {
					return err
				}
			}
		}
		var err error
		sig, err = out.sealRun()
		return err
	})
	return sig, err
}

// sortColumn returns a temp run of the sorted distinct ids of a result
// column, built with grant-sized chunks and a union merge, in three
// kinds of stage: the chunking pass (chunk, reader and writer), the
// reduction passes, and the final union (output writer and one stream
// per chunk run). A small grant only means more chunks, consolidated by
// multi-pass unions; the minimum is 3 free buffers (chunk + reader +
// writer).
func (r *queryRun) sortColumn(col sublist) (sublist, error) {
	bufSize := r.ram.BufferSize()
	// The chunk claim wants the whole column and gets what the grant
	// leaves beside the reader and writer.
	want := max((col.run.Count*store.IDBytes+bufSize-1)/bufSize, 1)
	claims := []ram.Claim{
		{Name: "chunk", Min: 1, Want: want},
		{Name: "scan", Min: 1, Want: 1},
		{Name: "write", Min: 1, Want: 1},
	}
	var runs runSet
	err := r.stage(spanProject, claims, func(resv *ram.Reservation) error {
		chunks := r.newTemp()
		cap := resv.Bytes("chunk") / store.IDBytes
		var rd runStream
		defer rd.close()
		rd.open(r, col, store.IDBytes)
		buf := make([]uint32, 0, cap)
		flush := func() error {
			if len(buf) == 0 {
				return nil
			}
			slices.Sort(buf)
			buf = slices.Compact(buf)
			run, err := chunks.AppendRun(buf)
			if err != nil {
				return err
			}
			runs.add(&chunks.Segment, run)
			buf = buf[:0]
			return nil
		}
		for {
			v, ok, err := rd.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			buf = append(buf, v)
			if len(buf) == cap {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		if err := flush(); err != nil {
			return err
		}
		return chunks.Seal()
	})
	if err != nil {
		return sublist{}, err
	}

	// Union the chunk runs into the output run, reducing first when more
	// chunks exist than stream buffers (one is kept back for the output
	// writer, which the final union's stage opens).
	if err := r.consolidateRuns(&runs, r.ram.AvailableBuffers()-1, spanProject); err != nil {
		return sublist{}, err
	}
	claims = []ram.Claim{{Name: "write", Min: 1, Want: 1}, {Name: "streams", Min: runs.len(), Want: runs.len()}}
	var sorted sublist
	err = r.stage(spanProject, claims, func(*ram.Reservation) error {
		u, err := r.openUnion(&runs, nil, &r.union)
		if err != nil {
			return err
		}
		defer u.close()
		out := r.newTemp()
		if err := out.BeginRun(); err != nil {
			return err
		}
		for {
			v, ok, err := u.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if err := out.Add(v); err != nil {
				return err
			}
		}
		sorted, err = out.sealRun()
		return err
	})
	return sorted, err
}

// mjoinTable runs the MJoin of §4 for one table: σVH ids and their
// attribute values are staged in RAM batches; for each batch the
// QEPSJ.Ti.id column is scanned once and matching positions emit
// <pos, vlist, hlist> tuples to flash.
func (r *queryRun) mjoinTable(tp *tableProj) error {
	sig, err := r.sigmaVH(tp)
	if err != nil {
		return err
	}

	// The MJoin stage claims the table's buffer needs (its spec): a batch
	// staging area that wants every σVH tuple and gets what the grant
	// leaves beside the table's readers and writer ("RAM capacity minus
	// two buffers" in the paper, generalized to the table's true reader
	// set). A minimal batch grant only means more passes over the QEPSJ
	// column.
	bufSize := r.ram.BufferSize()
	wantBatch := (sig.run.Count*tp.tupleW + bufSize - 1) / bufSize
	return r.stage(spanProject, tp.mjoinClaims(wantBatch), func(resv *ram.Reservation) error {
		return r.mjoinBatches(tp, sig, resv.Bytes("batch"))
	})
}

// mjoinBatches is the MJoin stage's work: stage σVH ids and their values
// in batches of batchBytes and emit each batch's matches as one run.
func (r *queryRun) mjoinBatches(tp *tableProj, sig sublist, batchBytes int) error {
	db := r.db
	batchCap := batchBytes / tp.tupleW
	if batchCap < 1 {
		batchCap = 1
	}

	out := r.newTuples()
	var sigRd runStream
	defer sigRd.close()
	sigRd.open(r, sig, store.IDBytes)
	var spoolCur *spoolCursor
	if tp.visW > 0 {
		spoolCur = newSpoolCursor(r.spool[tp.table].file)
	}
	var hidRd *store.SortedReader
	var img *HiddenImage
	var hidRec []byte
	var dl *delta.Table
	if tp.hidW > 0 {
		img = r.tok.Hidden[tp.table]
		if img == nil {
			return fmt.Errorf("exec: no hidden image for %s", db.Sch.Tables[tp.table].Name)
		}
		hidRd = img.File.NewSortedReader()
		hidRec = make([]byte, img.File.RowWidth())
		dl = r.overlay(tp.table)
	}

	col := r.resCols[tp.table]
	batchIDs := make([]uint32, 0, batchCap)
	batchVals := make([]byte, 0, batchCap*(tp.visW+tp.hidW))
	valW := tp.visW + tp.hidW
	posBuf := make([]byte, 4)

	for {
		// Fill one batch from σVH.
		batchIDs = batchIDs[:0]
		batchVals = batchVals[:0]
		for len(batchIDs) < batchCap {
			id, ok, err := sigRd.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			batchIDs = append(batchIDs, id)
			if tp.visW > 0 {
				rec, err := spoolCur.seek(id)
				if err != nil {
					return err
				}
				if rec == nil {
					return fmt.Errorf("exec: σVH id %d missing from spool of %s",
						id, db.Sch.Tables[tp.table].Name)
				}
				// The spool row's values are the visible prefix of the tuple.
				batchVals = append(batchVals, rec[store.IDBytes:store.IDBytes+tp.visW]...)
			}
			if tp.hidW > 0 {
				if err := img.row(hidRd, dl, id, hidRec); err != nil {
					return err
				}
				for _, c := range tp.hidCols {
					o, w := img.Codec.ColumnRange(img.ColPos[c])
					batchVals = append(batchVals, hidRec[o:o+w]...)
				}
			}
		}
		if len(batchIDs) == 0 {
			break
		}
		// Scan the QEPSJ.Ti.id column and emit matches.
		start, count := out.Bytes(), 0
		err := r.scanPositions(col, batchIDs, func(pos uint32, i int) error {
			binary.BigEndian.PutUint32(posBuf, pos)
			if err := out.Append(posBuf); err != nil {
				return err
			}
			if valW > 0 {
				if err := out.Append(batchVals[i*valW : (i+1)*valW]); err != nil {
					return err
				}
			}
			count++
			return nil
		})
		if err != nil {
			return err
		}
		if count > 0 {
			tp.runs.add(&out.Segment, store.Run{Off: start, Count: count})
		}
	}
	return out.Seal()
}

// scanPositions is the one pass over a QEPSJ result column that an MJoin
// batch and a Post-Select chunk each make: it streams col and calls emit
// with the position of every id found in ids (staged, sorted) and the
// id's index in ids.
func (r *queryRun) scanPositions(col sublist, ids []uint32, emit func(pos uint32, i int) error) error {
	var rd runStream
	defer rd.close()
	rd.open(r, col, store.IDBytes)
	for pos := uint32(0); ; pos++ {
		v, ok, err := rd.next()
		if err != nil || !ok {
			return err
		}
		if i, found := slices.BinarySearch(ids, v); found {
			if err := emit(pos, i); err != nil {
				return err
			}
		}
	}
}

// spoolCursor is a sequential cursor over an id-sorted spool file with
// one-record pushback, so overshooting a missing id never loses a row.
type spoolCursor struct {
	rd   *store.SeqReader
	rec  []byte
	have bool
}

func newSpoolCursor(f *store.RowFile) *spoolCursor {
	return &spoolCursor{rd: f.NewSeqReader()}
}

// seek returns the row with the given id, or nil if absent. Requested ids
// must be non-decreasing across calls.
func (c *spoolCursor) seek(id uint32) ([]byte, error) {
	for {
		if !c.have {
			rec, _, ok, err := c.rd.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, nil
			}
			// Copy: the SeqReader reuses its page buffer.
			c.rec = append(c.rec[:0], rec...)
			c.have = true
		}
		got := binary.BigEndian.Uint32(c.rec)
		switch {
		case got == id:
			// Do not consume: several columns of the same row may be
			// fetched with repeated seeks to the same id.
			return c.rec, nil
		case got > id:
			return nil, nil // keep the record for the next seek
		default:
			c.have = false
		}
	}
}
