package index

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"ghostdb/internal/btree"
	"ghostdb/internal/flash"
	"ghostdb/internal/schema"
	"ghostdb/internal/store"
)

// BuildReference is Build through buildClimbingRef.
func BuildReference(dev *flash.Device, sch *schema.Schema, inputs map[int]*TableInput, variant Variant) (*Catalog, error) {
	return build(dev, sch, inputs, variant, buildClimbingRef)
}

// buildClimbingRef is the reference climbing-index constructor: the same
// index as buildClimbing, built with comparison sorts — the key order by
// slices.SortFunc over (key bytes, row id), each level's (ordinal, id)
// pairs by slices.Sort over ord<<32|id composites.
func buildClimbingRef(dev *flash.Device, in climbingInput) (*Climbing, error) {
	c := &Climbing{
		table:  in.table,
		colIdx: in.colIdx,
		keyW:   in.keyW,
		levels: in.levels,
		lists:  store.NewListSegment(dev),
	}
	var distinct [][]byte
	var ordOfRow []uint32
	if in.colIdx >= 0 {
		order := refKeyOrder(in.vals, in.keyW, in.rows)
		ordOfRow = make([]uint32, in.rows)
		for _, r := range order {
			v := in.vals[int(r)*in.keyW : int(r+1)*in.keyW]
			if len(distinct) == 0 || !bytes.Equal(distinct[len(distinct)-1], v) {
				distinct = append(distinct, v)
			}
			ordOfRow[r] = uint32(len(distinct) - 1)
		}
		if in.rows > 0 {
			d := &keyDist{bulkTotal: in.rows}
			n := min(distSampleSize, in.rows)
			for s := 1; s <= n; s++ {
				row := order[(s*in.rows/(n+1))%in.rows]
				d.sample = append(d.sample,
					append([]byte(nil), in.vals[int(row)*in.keyW:int(row+1)*in.keyW]...))
			}
			c.dist = d
		}
	} else {
		distinct = make([][]byte, in.rows)
		keys := make([]byte, in.rows*4)
		for i := 0; i < in.rows; i++ {
			binary.BigEndian.PutUint32(keys[i*4:], uint32(i))
			distinct[i] = keys[i*4 : i*4+4]
		}
	}
	nvals := len(distinct)
	if c.dist != nil {
		c.dist.distinct = nvals
	}

	sorted := make([][]uint64, len(in.levels))
	for li, lvlTable := range in.levels {
		ords := make([]uint32, in.rows)
		for i := range ords {
			ords[i] = uint32(i)
		}
		if lvlTable != in.table {
			ords = slices.Clone(in.descOfLvl[li])
		}
		if in.colIdx >= 0 {
			for a, r := range ords {
				ords[a] = ordOfRow[r]
			}
		}
		sorted[li] = refGroupOrder(ords)
	}

	entries := make([]btree.Entry, 0, nvals)
	pos := make([]int, len(in.levels))
	payloadW := len(in.levels) * runDescWidth
	for ord := 0; ord < nvals; ord++ {
		payload := make([]byte, payloadW)
		for li := range in.levels {
			comp := sorted[li]
			p := pos[li]
			if err := c.lists.BeginRun(); err != nil {
				return nil, err
			}
			n := 0
			for p < len(comp) && int(comp[p]>>32) == ord {
				if err := c.lists.Add(uint32(comp[p])); err != nil {
					return nil, err
				}
				p++
				n++
			}
			pos[li] = p
			run, err := c.lists.EndRun()
			if err != nil {
				return nil, err
			}
			binary.BigEndian.PutUint32(payload[li*runDescWidth:], uint32(run.Off))
			binary.BigEndian.PutUint32(payload[li*runDescWidth+4:], uint32(n))
		}
		entries = append(entries, btree.Entry{Key: distinct[ord], Payload: payload})
	}
	if err := c.lists.Seal(); err != nil {
		return nil, err
	}
	tree, err := btree.Bulk(dev, in.keyW, payloadW, &btree.SliceSource{Entries: entries})
	if err != nil {
		return nil, err
	}
	c.tree = tree
	return c, nil
}

// refKeyOrder sorts the row ids by (key bytes, row id) with a comparison
// sort: the order sortRowsByKey must reproduce.
func refKeyOrder(vals []byte, keyW, rows int) []uint32 {
	order := make([]uint32, rows)
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(ra, rb uint32) int {
		if c := bytes.Compare(vals[int(ra)*keyW:int(ra+1)*keyW], vals[int(rb)*keyW:int(rb+1)*keyW]); c != 0 {
			return c
		}
		return cmp.Compare(ra, rb)
	})
	return order
}

// refGroupOrder sorts (ords[a], a) pairs as ord<<32|a composites: the
// order groupByOrdinal must reproduce.
func refGroupOrder(ords []uint32) []uint64 {
	comp := make([]uint64, len(ords))
	for a, o := range ords {
		comp[a] = uint64(o)<<32 | uint64(uint32(a))
	}
	slices.Sort(comp)
	return comp
}

// DiffCatalogs reports the first difference between two catalogs: the
// set of indexes, and per index its levels, entry keys, the sublist of
// every entry at every level, its key-distribution sample and its page
// count. nil means the catalogs are the same.
func DiffCatalogs(a, b *Catalog) error {
	if a.Storage() != b.Storage() {
		return fmt.Errorf("storage %+v vs %+v", a.Storage(), b.Storage())
	}
	if len(a.attrs) != len(b.attrs) || len(a.ids) != len(b.ids) || len(a.skts) != len(b.skts) {
		return fmt.Errorf("index counts differ")
	}
	for k, ca := range a.attrs {
		if err := diffClimbing(ca, b.attrs[k]); err != nil {
			return fmt.Errorf("attribute index %v: %w", k, err)
		}
	}
	for k, ca := range a.ids {
		if err := diffClimbing(ca, b.ids[k]); err != nil {
			return fmt.Errorf("id index of table %d: %w", k, err)
		}
	}
	return nil
}

func diffClimbing(a, b *Climbing) error {
	if b == nil {
		return fmt.Errorf("missing")
	}
	if a.table != b.table || a.colIdx != b.colIdx || a.keyW != b.keyW || !slices.Equal(a.levels, b.levels) {
		return fmt.Errorf("shape differs")
	}
	if a.Pages() != b.Pages() || a.tree.Count() != b.tree.Count() {
		return fmt.Errorf("pages %d vs %d, entries %d vs %d", a.Pages(), b.Pages(), a.tree.Count(), b.tree.Count())
	}
	if (a.dist == nil) != (b.dist == nil) {
		return fmt.Errorf("key distribution present on one side only")
	}
	if a.dist != nil {
		if a.dist.bulkTotal != b.dist.bulkTotal || a.dist.distinct != b.dist.distinct ||
			!slices.EqualFunc(a.dist.sample, b.dist.sample, bytes.Equal) {
			return fmt.Errorf("key distribution differs")
		}
	}
	ca, err := a.tree.First()
	if err != nil {
		return err
	}
	cb, err := b.tree.First()
	if err != nil {
		return err
	}
	for n := 0; ; n++ {
		ka, pa, oka, err := ca.Next()
		if err != nil {
			return err
		}
		kb, pb, okb, err := cb.Next()
		if err != nil {
			return err
		}
		if oka != okb {
			return fmt.Errorf("entry %d present on one side only", n)
		}
		if !oka {
			return nil
		}
		if !bytes.Equal(ka, kb) {
			return fmt.Errorf("entry %d: key %x vs %x", n, ka, kb)
		}
		for slot := range a.levels {
			ia, err := a.lists.ReadAll(a.decodeRun(pa, slot))
			if err != nil {
				return err
			}
			ib, err := b.lists.ReadAll(b.decodeRun(pb, slot))
			if err != nil {
				return err
			}
			if !slices.Equal(ia, ib) {
				return fmt.Errorf("entry %d level %d: sublist %v vs %v", n, slot, ia, ib)
			}
		}
	}
}
