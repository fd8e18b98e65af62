package exec

import (
	"fmt"
	"slices"

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
	db := r.db
	return r.col.Span(spanPostSelect, func() error {
		col, ok := r.resCols[tv]
		if !ok {
			return fmt.Errorf("exec: post-select table %s has no result column", db.Sch.Tables[tv].Name)
		}
		// Stage the id list in chunks. The staging cap was bound from the
		// session's grant at admission time (grant minus the fixed reader
		// and writer); the data's own size can only shrink it.
		bufSize := r.ram.BufferSize()
		wantStage := (len(visIDs)*store.IDBytes + bufSize - 1) / bufSize
		if wantStage < 1 {
			wantStage = 1
		}
		if wantStage > r.bind.PostSelectStage {
			wantStage = r.bind.PostSelectStage
		}
		resv, err := r.ram.Plan(
			ram.Claim{Name: "stage", Min: 1, Want: wantStage},
			ram.Claim{Name: "scan", Min: 1, Want: 1},
			ram.Claim{Name: "out", Min: 1, Want: 1},
		)
		if err != nil {
			return fmt.Errorf("exec: post-select: %w", err)
		}
		chunkCap := resv.Bytes("stage") / store.IDBytes
		posSeg := r.newTemp()
		var posRuns runSet
		selErr := func() error {
			var rd runStream
			defer rd.close()
			for start := 0; start < len(visIDs); start += chunkCap {
				end := start + chunkCap
				if end > len(visIDs) {
					end = len(visIDs)
				}
				chunk := visIDs[start:end]
				if err := posSeg.BeginRun(); err != nil {
					return err
				}
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
					if _, found := slices.BinarySearch(chunk, v); found {
						if err := posSeg.Add(pos); err != nil {
							return err
						}
					}
					pos++
				}
				run, err := posSeg.EndRun()
				if err != nil {
					return err
				}
				posRuns.add(&posSeg.ListSegment, run)
			}
			return posSeg.Seal()
		}()
		resv.Release()
		if selErr != nil {
			return selErr
		}

		// Rebuild every result column, keeping only selected positions.
		// The chunk runs hold disjoint position ranges; consolidate them
		// first when there are more than the stream buffers left after
		// the per-column reader and writer.
		if err := r.consolidateRuns(&posRuns, r.ram.AvailableBuffers()-2, spanPostSelect); err != nil {
			return err
		}
		rw, err := r.ram.Plan(
			ram.Claim{Name: "scan", Min: 1, Want: 1},
			ram.Claim{Name: "out", Min: 1, Want: 1},
		)
		if err != nil {
			return fmt.Errorf("exec: post-select: %w", err)
		}
		defer rw.Release()

		newCols := make(map[int]resCol, len(r.resCols))
		newN := 0
		var rd runStream
		defer rd.close()
		for ti, c := range r.resCols {
			ps, err := r.openUnion(&posRuns, nil, &r.union)
			if err != nil {
				return err
			}
			out := r.newTemp()
			if err := out.BeginRun(); err != nil {
				ps.close()
				return err
			}
			rd.open(r.tok, c.seg, c.run)
			nextSel, selOK, err := ps.next()
			if err != nil {
				ps.close()
				return err
			}
			pos := uint32(0)
			kept := 0
			for selOK {
				v, ok, err := rd.next()
				if err != nil {
					ps.close()
					return err
				}
				if !ok {
					break
				}
				if pos == nextSel {
					if err := out.Add(v); err != nil {
						ps.close()
						return err
					}
					kept++
					nextSel, selOK, err = ps.next()
					if err != nil {
						ps.close()
						return err
					}
				}
				pos++
			}
			ps.close()
			run, err := out.EndRun()
			if err != nil {
				return err
			}
			if err := out.Seal(); err != nil {
				return err
			}
			newCols[ti] = resCol{seg: &out.ListSegment, run: run}
			newN = kept
		}
		r.resCols = newCols
		r.resN = newN
		return nil
	})
}
