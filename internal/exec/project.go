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

// segRun locates one pos-sorted tuple run inside a tuple segment.
type segRun struct {
	seg   *store.Segment
	off   int
	count int
}

// tableProj is one run's projection work for one table: the plan's
// spec and the MJoin output this run writes.
type tableProj struct {
	*projSpec
	outSeg  *tempTuples
	outRuns []segRun
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
		err := r.col.Span(spanProject, func() error { return r.bruteForce(res) })
		return res, err
	}

	var tps []*tableProj
	for _, s := range r.plan.shape.mjoin {
		tps = append(tps, &tableProj{projSpec: s})
	}

	err := r.col.Span(spanProject, func() error {
		for _, tp := range tps {
			if err := r.mjoinTable(tp); err != nil {
				return err
			}
		}
		return r.finalJoin(res, tps)
	})
	return res, err
}

// sigmaVH computes σVH(Ti): the visible ids that can possibly appear in
// the result, per §4 — a Bloom filter over the QEPSJ.Ti.id column probed
// with the ids sent by Untrusted. Returns a temp run of sorted ids.
func (r *queryRun) sigmaVH(tp *tableProj) (*store.ListSegment, store.Run, error) {
	col := r.resCols[tp.table]
	sp := r.spool[tp.table]
	out := r.newTemp()
	if err := out.BeginRun(); err != nil {
		return nil, store.Run{}, err
	}

	if sp == nil {
		// No visible data for this table: derive the sorted distinct ids
		// of the column by chunked in-RAM sorting.
		if err := r.sortColumn(col, &out.ListSegment); err != nil {
			return nil, store.Run{}, err
		}
	} else {
		var f *bloom.Filter
		var grant *ram.Grant
		defer func() {
			if grant != nil {
				grant.Release()
			}
		}()
		if r.cfg.Projector == ProjectBloom {
			// "The Bloom filter is calibrated by default to occupy the
			// entire RAM" (§5), minus working buffers. The filter is a pure
			// optimization: when RAM is too tight for a useful one, σVH
			// proceeds unfiltered instead of failing.
			budget := r.ram.Available() - 4*r.ram.BufferSize()
			if bp, err := bloom.PlanFor(r.resN, budget); err == nil {
				if g, err := r.ram.Alloc(bp.Bytes); err == nil {
					grant = g
					f = bloom.New(bp, r.resN)
					var rd runStream
					defer rd.close()
					rd.open(r.tok, col.seg, col.run)
					for {
						v, ok, err := rd.next()
						if err != nil {
							return nil, store.Run{}, err
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
		srd := sp.file.NewSeqReader()
		for {
			rec, _, ok, err := srd.Next()
			if err != nil {
				return nil, store.Run{}, err
			}
			if !ok {
				break
			}
			id := binary.BigEndian.Uint32(rec)
			if f == nil || f.MayContain(id) {
				if err := out.Add(id); err != nil {
					return nil, store.Run{}, err
				}
			}
		}
	}
	run, err := out.EndRun()
	if err != nil {
		return nil, store.Run{}, err
	}
	if err := out.Seal(); err != nil {
		return nil, store.Run{}, err
	}
	return &out.ListSegment, run, nil
}

// sortColumn writes the sorted distinct ids of a result column into an
// open run, using grant-sized chunks and a union merge. A small grant
// only means more chunks, consolidated by multi-pass unions; the minimum
// is 3 free buffers (chunk + reader + writer).
func (r *queryRun) sortColumn(col resCol, out *store.ListSegment) error {
	bufSize := r.ram.BufferSize()
	want := (col.run.Count*store.IDBytes + bufSize - 1) / bufSize
	if want < 1 {
		want = 1
	}
	if want > r.bind.SortChunk {
		want = r.bind.SortChunk // chunk cap bound from the grant at admission
	}
	resv, err := r.ram.Plan(
		ram.Claim{Name: "chunk", Min: 1, Want: want},
		ram.Claim{Name: "scan", Min: 1, Want: 1},
		ram.Claim{Name: "write", Min: 1, Want: 1},
	)
	if err != nil {
		return fmt.Errorf("exec: column sort: %w", err)
	}
	cap := resv.Bytes("chunk") / store.IDBytes
	chunks := r.newTemp()
	var runs runSet
	chunkErr := func() error {
		var rd runStream
		defer rd.close()
		rd.open(r.tok, col.seg, col.run)
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
			runs.add(&chunks.ListSegment, run)
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
	}()
	resv.Release()
	if chunkErr != nil {
		return chunkErr
	}
	if runs.len() == 0 {
		return nil
	}

	// Union the chunk runs into the caller's open output run, reducing
	// first when more chunks exist than stream buffers (one is kept back
	// for the output writer).
	if err := r.consolidateRuns(&runs, r.ram.AvailableBuffers()-1, spanProject); err != nil {
		return err
	}
	wg, err := r.ram.ReserveBuffers(1, 1) // output writer
	if err != nil {
		return fmt.Errorf("exec: column sort: %w", err)
	}
	defer wg.Release()
	u, err := r.openUnion(&runs, nil, &r.union)
	if err != nil {
		return err
	}
	defer u.close()
	for {
		v, ok, err := u.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := out.Add(v); err != nil {
			return err
		}
	}
}

// mjoinTable runs the MJoin of §4 for one table: σVH ids and their
// attribute values are staged in RAM batches; for each batch the
// QEPSJ.Ti.id column is scanned once and matching positions emit
// <pos, vlist, hlist> tuples to flash.
func (r *queryRun) mjoinTable(tp *tableProj) error {
	db := r.db
	sigSeg, sigRun, err := r.sigmaVH(tp)
	if err != nil {
		return err
	}

	// Declare the pipeline's buffer needs up front (the table's spec): a
	// batch staging area capped by the binding derived from the session's
	// grant at admission ("RAM capacity minus two buffers" in the paper,
	// generalized to the table's true reader set). A minimal batch grant
	// only means more passes over the QEPSJ column.
	bufSize := r.ram.BufferSize()
	wantBatch := min((sigRun.Count*tp.tupleW+bufSize-1)/bufSize, r.bind.MJoinBatch[tp.table])
	resv, err := r.ram.Plan(tp.mjoinClaims(wantBatch)...)
	if err != nil {
		return fmt.Errorf("exec: MJoin: %w", err)
	}
	defer resv.Release()
	batchCap := resv.Bytes("batch") / tp.tupleW
	if batchCap < 1 {
		batchCap = 1
	}

	tp.outSeg = r.newTuples()
	var sig, rd runStream
	defer sig.close()
	defer rd.close()
	sig.open(r.tok, sigSeg, sigRun)
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
		dl = r.tok.deltaOf(tp.table)
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
			id, ok, err := sig.next()
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
		start := tp.outSeg.Bytes()
		count := 0
		rd.open(r.tok, col.seg, col.run)
		pos := uint32(0)
		for {
			v, ok, err := rd.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if i, found := slices.BinarySearch(batchIDs, v); found {
				binary.BigEndian.PutUint32(posBuf, pos)
				if err := tp.outSeg.Append(posBuf); err != nil {
					return err
				}
				if valW > 0 {
					if err := tp.outSeg.Append(batchVals[i*valW : (i+1)*valW]); err != nil {
						return err
					}
				}
				count++
			}
			pos++
		}
		tp.outRuns = append(tp.outRuns, segRun{seg: &tp.outSeg.Segment, off: start, count: count})
	}
	return tp.outSeg.Seal()
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
