package exec

import (
	"fmt"

	"ghostdb/internal/ram"
	"ghostdb/internal/store"
)

// applyPostSelect implements the Post-Select strategy of Figure 11: an
// *exact* selection on the materialized QEPSJ result. The visible id list
// is staged in RAM; when it does not fit the grant received, the result
// column is re-scanned once per chunk — which is precisely why the paper
// dismisses Post-Select as a relevant strategy. The operator never fails
// while its 3-buffer minimum (staging chunk + column reader + position
// writer) is free: a smaller staging grant only means more re-scans.
func (r *queryRun) applyPostSelect(tv int, visIDs []uint32) error {
	col, ok := r.resCols[tv]
	if !ok {
		return fmt.Errorf("exec: post-select table %s has no result column", r.db.Sch.Tables[tv].Name)
	}
	// Stage the id list in chunks: the staging claim wants the whole
	// list and gets what the grant leaves beside the reader and writer.
	bufSize := r.ram.BufferSize()
	wantStage := max((len(visIDs)*store.IDBytes+bufSize-1)/bufSize, 1)
	claims := []ram.Claim{
		{Name: "stage", Min: 1, Want: wantStage},
		{Name: "scan", Min: 1, Want: 1},
		{Name: "out", Min: 1, Want: 1},
	}
	var posRuns runSet
	err := r.stage(spanPostSelect, claims, func(resv *ram.Reservation) error {
		posSeg := r.newTemp()
		chunkCap := resv.Bytes("stage") / store.IDBytes
		for start := 0; start < len(visIDs); start += chunkCap {
			chunk := visIDs[start:min(start+chunkCap, len(visIDs))]
			if err := posSeg.BeginRun(); err != nil {
				return err
			}
			err := r.scanPositions(col, chunk, func(pos uint32, _ int) error { return posSeg.Add(pos) })
			if err != nil {
				return err
			}
			run, err := posSeg.EndRun()
			if err != nil {
				return err
			}
			posRuns.add(&posSeg.Segment, run)
		}
		return posSeg.Seal()
	})
	if err != nil {
		return err
	}

	// Rebuild every result column, keeping only selected positions. The
	// chunk runs hold disjoint position ranges; consolidate them first
	// when there are more than the stream buffers left after the
	// per-column reader and writer, which the rebuild stage claims beside
	// the position streams.
	if err := r.consolidateRuns(&posRuns, r.ram.AvailableBuffers()-2, spanPostSelect); err != nil {
		return err
	}
	claims = []ram.Claim{
		{Name: "scan", Min: 1, Want: 1},
		{Name: "out", Min: 1, Want: 1},
		{Name: "streams", Min: posRuns.len(), Want: posRuns.len()},
	}
	return r.stage(spanPostSelect, claims, func(*ram.Reservation) error {
		newCols := make(map[int]sublist, len(r.resCols))
		newN := 0
		var rd runStream
		defer rd.close()
		for ti, c := range r.resCols {
			ps, err := r.openUnion(&posRuns, nil, &r.union)
			if err != nil {
				return err
			}
			out := r.newTemp()
			kept, err := r.keepPositions(ps, &rd, c, out)
			ps.close()
			if err != nil {
				return err
			}
			if newCols[ti], err = out.sealRun(); err != nil {
				return err
			}
			newN = kept
		}
		r.resCols = newCols
		r.resN = newN
		return nil
	})
}

// keepPositions copies to a new run of out the ids of column c (read
// through rd) at the positions ps yields, ascending, and returns how
// many it kept.
func (r *queryRun) keepPositions(ps idStream, rd *runStream, c sublist, out *tempList) (int, error) {
	if err := out.BeginRun(); err != nil {
		return 0, err
	}
	rd.open(r, c, store.IDBytes)
	nextSel, selOK, err := ps.next()
	if err != nil {
		return 0, err
	}
	kept := 0
	for pos := uint32(0); selOK; pos++ {
		v, ok, err := rd.next()
		if err != nil || !ok {
			return kept, err
		}
		if pos == nextSel {
			if err := out.Add(v); err != nil {
				return kept, err
			}
			kept++
			if nextSel, selOK, err = ps.next(); err != nil {
				return kept, err
			}
		}
	}
	return kept, nil
}
