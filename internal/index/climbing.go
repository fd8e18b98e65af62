package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"ghostdb/internal/btree"
	"ghostdb/internal/flash"
	"ghostdb/internal/store"
)

// runDescWidth is the encoded width of one per-level run descriptor in a
// climbing index payload: byte offset (4) + count (4).
const runDescWidth = 8

// Climbing is a climbing index on one attribute of one table (§3.2). Each
// distinct attribute value maps to one sorted ID sublist *per level*,
// where a level is the table itself or one of its ancestors up to the
// root. For root-table attributes (single level) it degenerates to a
// plain B+-tree, exactly as the paper notes.
//
// An index with colIdx < 0 is the table's ID index ("Climbing Index on
// T1.id" in Figure 4): keys are tuple identifiers and levels contain
// ancestor IDs only.
//
// The index keys and ID sublists are hidden data (they enumerate hidden
// attribute values); nothing derived from them may reach the untrusted
// side or an error/log string (ghostdb-lint trustboundary).
//
//ghostdb:hidden
type Climbing struct {
	table  int
	colIdx int // data-column position, or -1 for the id index
	keyW   int
	levels []int // table index per payload slot
	tree   *btree.Tree
	lists  *store.ListSegment
	dist   *keyDist // secure-side key distribution (attribute indexes)
}

// distSampleSize bounds the equi-depth boundary sample kept per
// attribute index: 128 boundaries of a char(10) key are ~1.3KB of token
// metadata — small against the index itself.
const distSampleSize = 128

// distExtraCap bounds the post-load inserted keys tracked exactly;
// beyond it, inserts still count toward the total (slightly diluting
// the per-key resolution, never the total-row denominator).
const distExtraCap = 4096

// keyDist is the secure-side distribution summary of one indexed
// attribute: equi-depth boundaries sampled from the bulk build plus the
// post-load inserted keys. It lives with the index on the token and is
// consulted only at plan time; the raw boundaries are never shipped to
// the untrusted side — only the derived scalar selectivity estimate
// appears in plans and EXPLAIN output.
//
// mu guards extra/extraN: planning deliberately runs outside the
// token's execution slot, so a concurrent INSERT (which holds the slot
// and calls add) would otherwise race the estimator's reads. The bulk
// fields (sample, bulkTotal, distinct) are written only during Build,
// before the index is published.
type keyDist struct {
	mu        sync.Mutex
	bulkTotal int
	distinct  int
	sample    [][]byte // ascending equi-depth boundaries (≤ distSampleSize)
	extra     [][]byte // sorted post-load keys (≤ distExtraCap)
	extraN    int      // all post-load inserts, tracked or not
}

func (d *keyDist) totalLocked() int { return d.bulkTotal + d.extraN }

func (d *keyDist) add(key []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.extraN++
	if len(d.extra) >= distExtraCap {
		return
	}
	k := append([]byte(nil), key...)
	i := sort.Search(len(d.extra), func(i int) bool { return bytes.Compare(d.extra[i], k) >= 0 })
	d.extra = append(d.extra, nil)
	copy(d.extra[i+1:], d.extra[i:])
	d.extra[i] = k
}

// fracBelow estimates the fraction of rows whose key sorts strictly
// before key.
func (d *keyDist) fracBelow(key []byte) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.totalLocked() == 0 {
		return 0
	}
	var est float64
	if d.bulkTotal > 0 && len(d.sample) > 0 {
		i := sort.Search(len(d.sample), func(i int) bool { return bytes.Compare(d.sample[i], key) >= 0 })
		est += float64(i) / float64(len(d.sample)+1) * float64(d.bulkTotal)
	}
	if len(d.extra) > 0 {
		i := sort.Search(len(d.extra), func(i int) bool { return bytes.Compare(d.extra[i], key) >= 0 })
		// Scale tracked extras up to all extras.
		est += float64(i) / float64(len(d.extra)) * float64(d.extraN)
	}
	f := est / float64(d.totalLocked())
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// fracEq estimates the fraction of rows carrying exactly one key value:
// the average bucket, 1/distinct.
func (d *keyDist) fracEq() float64 {
	if d.distinct <= 0 {
		return 0
	}
	return 1 / float64(d.distinct)
}

// EstimateFracBelow estimates the fraction of the table's rows whose
// indexed value sorts strictly below the encoded key, from the
// statistics kept on the token. ok=false when the index keeps none (id
// indexes — their key space is dense and exact math beats sampling).
func (c *Climbing) EstimateFracBelow(key []byte) (float64, bool) {
	if c.dist == nil {
		return 0, false
	}
	return c.dist.fracBelow(key), true
}

// EstimateFracEq estimates the fraction of rows equal to any one key.
func (c *Climbing) EstimateFracEq() (float64, bool) {
	if c.dist == nil {
		return 0, false
	}
	return c.dist.fracEq(), true
}

// EstimateEntries returns the number of tree entries and of rows they
// cover, from the statistics kept on the token: one entry per distinct
// bulk key holding that key's rows, plus one single-row entry per
// post-load insert. Their ratio is the expected size of one self-level
// sublist. ok=false when the index keeps no statistics (id indexes).
func (c *Climbing) EstimateEntries() (entries, rows int, ok bool) {
	if c.dist == nil {
		return 0, 0, false
	}
	d := c.dist
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.distinct + d.extraN, d.totalLocked(), true
}

// ErrNoLevel is returned when an index does not carry the requested level.
var ErrNoLevel = errors.New("index: level not present in climbing index")

// Table returns the indexed table.
func (c *Climbing) Table() int { return c.table }

// Levels returns the table index carried at each payload slot.
func (c *Climbing) Levels() []int { return c.levels }

// KeyWidth returns the encoded key width.
func (c *Climbing) KeyWidth() int { return c.keyW }

// Tree exposes the underlying B+-tree (its height bounds the RAM buffers
// a CI operator must reserve).
func (c *Climbing) Tree() *btree.Tree { return c.tree }

// Lists exposes the run store backing the sublists.
func (c *Climbing) Lists() *store.ListSegment { return c.lists }

// Pages returns the flash footprint of tree plus sublists.
func (c *Climbing) Pages() int { return c.tree.Pages() + c.lists.Pages() }

// LevelOf maps a table index to its payload slot.
func (c *Climbing) LevelOf(table int) (int, bool) {
	for i, t := range c.levels {
		if t == table {
			return i, true
		}
	}
	return 0, false
}

func (c *Climbing) decodeRun(payload []byte, slot int) store.Run {
	off := slot * runDescWidth
	return store.Run{
		Off:   int(binary.BigEndian.Uint32(payload[off:])),
		Count: int(binary.BigEndian.Uint32(payload[off+4:])),
	}
}

// RunsEq returns the sublists at the given level slot for all entries
// whose key equals key (bulk entries plus any post-load insert entries).
func (c *Climbing) RunsEq(key []byte, slot int) ([]store.Run, error) {
	if slot < 0 || slot >= len(c.levels) {
		return nil, ErrNoLevel
	}
	cur, err := c.tree.Seek(key)
	if err != nil {
		return nil, err
	}
	return c.collectEq(cur, key, slot, nil)
}

// collectEq appends to runs the non-empty sublists of the entries equal
// to key, starting from a cursor positioned by a Seek for that key.
func (c *Climbing) collectEq(cur *btree.Cursor, key []byte, slot int, runs []store.Run) ([]store.Run, error) {
	for {
		k, p, ok, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if !ok || !bytes.Equal(k, key) {
			return runs, nil
		}
		if r := c.decodeRun(p, slot); r.Count > 0 {
			runs = append(runs, r)
		}
	}
}

// RunsRange returns the sublists at the given level slot for all entries
// with lo <= key <= hi (nil bound = open). Bounds are encoded keys;
// strictness is handled by the caller nudging bounds, or via the loInc /
// hiInc flags.
func (c *Climbing) RunsRange(lo, hi []byte, loInc, hiInc bool, slot int) ([]store.Run, error) {
	if slot < 0 || slot >= len(c.levels) {
		return nil, ErrNoLevel
	}
	var cur *btree.Cursor
	var err error
	if lo == nil {
		cur, err = c.tree.First()
	} else {
		cur, err = c.tree.Seek(lo)
	}
	if err != nil {
		return nil, err
	}
	var runs []store.Run
	for {
		k, p, ok, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return runs, nil
		}
		if lo != nil && !loInc && bytes.Equal(k, lo) {
			continue
		}
		if hi != nil {
			cmp := bytes.Compare(k, hi)
			if cmp > 0 || (cmp == 0 && !hiInc) {
				return runs, nil
			}
		}
		if r := c.decodeRun(p, slot); r.Count > 0 {
			runs = append(runs, r)
		}
	}
}

// RunsForID is the ID-index lookup: one full tree descent per
// identifier. Pre-Filter makes "as many lookups on the T1.id index as
// there are tuples resulting from the Visible selection" (§3.3) through
// a Probe, which descends only when the next id leaves the leaf it holds.
func (c *Climbing) RunsForID(id uint32, slot int) ([]store.Run, error) {
	return c.NewProbe(nil).RunsForID(id, slot)
}

// Probe repeats RunsForID lookups on one ID index with the host state of
// a single lookup: the cursor's page buffer and the result slice are
// reused from call to call. The cursor keeps the leaf it last read, so a
// lookup whose id falls inside that leaf reads no page; ids probed in
// sorted order pay one descent per leaf they touch. Which lookups reuse
// the leaf depends only on the ids and on the shape of the dense id
// index. Hidden data, like the index it reads.
//
//ghostdb:hidden
type Probe struct {
	c    *Climbing
	cur  *btree.Cursor
	runs []store.Run
}

// NewProbe returns a probe whose cursor reads through a caller-owned
// page buffer (nil allocates one).
func (c *Climbing) NewProbe(buf []byte) *Probe {
	return &Probe{c: c, cur: c.tree.NewCursor(buf)}
}

// RunsForID is Climbing.RunsForID; the returned slice is only valid
// until the probe's next lookup.
func (p *Probe) RunsForID(id uint32, slot int) ([]store.Run, error) {
	if p.c.colIdx >= 0 {
		return nil, fmt.Errorf("index: RunsForID on attribute index")
	}
	if slot < 0 || slot >= len(p.c.levels) {
		return nil, ErrNoLevel
	}
	var key [4]byte
	binary.BigEndian.PutUint32(key[:], id)
	if err := p.cur.Seek(key[:]); err != nil {
		return nil, err
	}
	var err error
	p.runs, err = p.c.collectEq(p.cur, key[:], slot, p.runs[:0])
	return p.runs, err
}

// InsertEntry adds a post-load entry mapping key to one ID per level
// (levels without a contribution may pass no id via a negative sentinel).
// The new sublists are tiny runs appended to the list segment; lookups
// union them with the bulk runs.
func (c *Climbing) InsertEntry(key []byte, perLevel []int64) error {
	if len(perLevel) != len(c.levels) {
		// The level count is schema arity (ancestor chain length), not
		// data content — a reviewed declassification.
		//ghostdb:public
		return fmt.Errorf("index: InsertEntry has %d levels, want %d", len(perLevel), len(c.levels))
	}
	if err := c.lists.Reopen(); err != nil {
		return err
	}
	payload := make([]byte, len(c.levels)*runDescWidth)
	for i, v := range perLevel {
		if v < 0 {
			continue // empty run: Count stays 0
		}
		run, err := c.lists.AppendRun([]uint32{uint32(v)})
		if err != nil {
			return err
		}
		binary.BigEndian.PutUint32(payload[i*runDescWidth:], uint32(run.Off))
		binary.BigEndian.PutUint32(payload[i*runDescWidth+4:], uint32(run.Count))
	}
	if err := c.lists.Seal(); err != nil {
		return err
	}
	// Keep the token-side distribution current: a self-level
	// contribution is one new row carrying this key.
	if c.dist != nil {
		if slot, ok := c.LevelOf(c.table); ok && perLevel[slot] >= 0 {
			c.dist.add(key)
		}
	}
	return c.tree.Insert(key, payload)
}

// climbingInput is everything needed to build one climbing index.
type climbingInput struct {
	table  int
	colIdx int // -1 for id index
	keyW   int
	vals   []byte // encoded values, keyW bytes per row of the table (nil for id index)
	rows   int
	// perLevel[i] is nil for the self level; for ancestor level A it maps
	// each A-row to its descendant row in the indexed table.
	levels    []int
	descOfLvl [][]uint32
}

// buildClimbing constructs the index: it assigns an ordinal to each
// distinct value, groups each level's ids by the ordinal of the value
// they reach, packs the groups as runs in a list segment and bulk-loads
// the B+-tree. Both sorts are linear: a radix sort over the fixed-width
// keys and a counting sort by ordinal.
func buildClimbing(dev *flash.Device, in climbingInput) (*Climbing, error) {
	c := &Climbing{
		table:  in.table,
		colIdx: in.colIdx,
		keyW:   in.keyW,
		levels: in.levels,
		lists:  store.NewListSegment(dev),
	}
	var distinct [][]byte // ascending encoded keys
	var ordOfRow []uint32 // row -> ordinal
	if in.colIdx >= 0 {
		order := sortRowsByKey(in.vals, in.keyW, in.rows)
		ordOfRow = make([]uint32, in.rows)
		for _, r := range order {
			v := in.vals[int(r)*in.keyW : int(r+1)*in.keyW]
			if len(distinct) == 0 || !bytes.Equal(distinct[len(distinct)-1], v) {
				distinct = append(distinct, v)
			}
			ordOfRow[r] = uint32(len(distinct) - 1)
		}
		// Equi-depth boundary sample over the sorted rows: the token-side
		// statistics the planner's hidden-selectivity estimates come from.
		if in.rows > 0 {
			d := &keyDist{bulkTotal: in.rows}
			n := distSampleSize
			if n > in.rows {
				n = in.rows
			}
			for s := 1; s <= n; s++ {
				row := order[(s*in.rows/(n+1))%in.rows]
				// Copy the boundary key: aliasing in.vals would pin the
				// whole transient build column in memory for the DB's life.
				d.sample = append(d.sample,
					append([]byte(nil), in.vals[int(row)*in.keyW:int(row+1)*in.keyW]...))
			}
			c.dist = d
		}
	} else {
		// ID index: the key of row i is i itself; every id is distinct and
		// is its own ordinal.
		distinct = make([][]byte, in.rows)
		keys := make([]byte, in.rows*4)
		ordOfRow = make([]uint32, in.rows)
		for i := 0; i < in.rows; i++ {
			binary.BigEndian.PutUint32(keys[i*4:], uint32(i))
			distinct[i] = keys[i*4 : i*4+4]
			ordOfRow[i] = uint32(i)
		}
	}
	nvals := len(distinct)
	if c.dist != nil {
		c.dist.distinct = nvals
	}

	// Per level, the ordinal of the value each id reaches: its own on the
	// self level, its descendant row's on an ancestor level.
	groups := make([]levelGroups, len(in.levels))
	for li, lvlTable := range in.levels {
		ords := ordOfRow
		if lvlTable != in.table {
			ords = make([]uint32, len(in.descOfLvl[li]))
			for a, r := range in.descOfLvl[li] {
				ords[a] = ordOfRow[r]
			}
		}
		groups[li] = groupByOrdinal(ords, nvals)
	}

	// Pack runs value by value and assemble the tree entries; the
	// payloads are carved from one backing array.
	entries := make([]btree.Entry, nvals)
	payloadW := len(in.levels) * runDescWidth
	payloads := make([]byte, nvals*payloadW)
	for ord := range entries {
		payload := payloads[ord*payloadW : (ord+1)*payloadW : (ord+1)*payloadW]
		for li, g := range groups {
			run, err := c.lists.AppendRun(g.ids[g.start[ord]:g.start[ord+1]])
			if err != nil {
				return nil, err
			}
			binary.BigEndian.PutUint32(payload[li*runDescWidth:], uint32(run.Off))
			binary.BigEndian.PutUint32(payload[li*runDescWidth+4:], uint32(run.Count))
		}
		entries[ord] = btree.Entry{Key: distinct[ord], Payload: payload}
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

// sortRowsByKey returns the row ids 0..rows-1 in (key bytes, row id)
// order, where row r's key is vals[r*keyW:(r+1)*keyW]. It is a stable LSD
// radix sort, one counting pass per byte position from the last, started
// from ascending ids; positions where every row holds the same byte are
// skipped (zero-padded decimals share most of their leading bytes).
// Every key encoding is fixed-width and byte-comparable, so this is the
// order bytes.Compare with an id tie-break defines.
func sortRowsByKey(vals []byte, keyW, rows int) []uint32 {
	order := make([]uint32, rows)
	for i := range order {
		order[i] = uint32(i)
	}
	if rows < 2 {
		return order
	}
	counts := make([][256]uint32, keyW)
	for r := 0; r < rows; r++ {
		for p, b := range vals[r*keyW : (r+1)*keyW] {
			counts[p][b]++
		}
	}
	tmp := make([]uint32, rows)
	for p := keyW - 1; p >= 0; p-- {
		cnt := &counts[p]
		if cnt[vals[p]] == uint32(rows) {
			continue // row 0's byte is every row's byte
		}
		var next [256]uint32
		sum := uint32(0)
		for b, n := range cnt {
			next[b] = sum
			sum += n
		}
		for _, r := range order {
			b := vals[int(r)*keyW+p]
			tmp[next[b]] = r
			next[b]++
		}
		order, tmp = tmp, order
	}
	return order
}

// levelGroups is one level's ids grouped by ordinal: ids[start[o]:
// start[o+1]] are, ascending, the ids whose value has ordinal o.
type levelGroups struct {
	ids   []uint32
	start []uint32 // len nvals+1
}

// groupByOrdinal is a stable counting sort of a level's ids by ordinal,
// where id a's value has ordinal ords[a] < nvals. The ids enter in
// ascending order, so each group comes out ascending.
func groupByOrdinal(ords []uint32, nvals int) levelGroups {
	start := make([]uint32, nvals+1)
	for _, o := range ords {
		start[o+1]++
	}
	for o := 1; o <= nvals; o++ {
		start[o] += start[o-1]
	}
	next := slices.Clone(start[:nvals])
	ids := make([]uint32, len(ords))
	for a, o := range ords {
		ids[next[o]] = uint32(a)
		next[o]++
	}
	return levelGroups{ids: ids, start: start}
}
