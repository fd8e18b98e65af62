// Package btree implements the B+-tree used by GhostDB's selection and
// climbing indexes (§3.2: "All indexes in CI are implemented by means of
// B+-Trees, so that CI requires at most one buffer per B+-Tree level").
//
// Keys and payloads are fixed-width byte strings; keys use the
// order-preserving encodings of internal/schema so byte comparison equals
// value comparison. Duplicate keys are permitted (a climbing index entry
// inserted after bulk load adds a new duplicate-key entry rather than
// rewriting packed sublists). Trees are built by bulk loading from sorted
// input and support single-entry inserts afterwards.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"ghostdb/internal/flash"
)

const (
	nodeLeaf     = 1
	nodeInternal = 2

	hdrType  = 0 // 1 byte
	hdrCount = 1 // 2 bytes
	hdrNext  = 3 // 4 bytes (leaf only: next-leaf page)
	leafHdr  = 7
	intHdr   = 3

	childWidth = 4
)

// ErrNotFound is returned by Lookup when no entry matches.
var ErrNotFound = errors.New("btree: key not found")

// Tree is a B+-tree on a flash device. Not safe for concurrent use.
type Tree struct {
	dev    *flash.Device
	keyW   int
	payW   int
	root   flash.PageID
	height int // 1 = root is a leaf
	count  int
	pages  int
	writes int // Insert calls so far: a cursor trusts its held leaf only while this holds still
}

// New creates an empty tree with the given key and payload widths.
func New(dev *flash.Device, keyWidth, payloadWidth int) (*Tree, error) {
	t := &Tree{dev: dev, keyW: keyWidth, payW: payloadWidth}
	if err := t.validate(); err != nil {
		return nil, err
	}
	// Empty root leaf.
	pg, err := t.newPage()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, t.dev.PageSize())
	t.initLeaf(buf, 0, flash.InvalidPage)
	if err := t.dev.Write(pg, buf[:leafHdr]); err != nil {
		return nil, err
	}
	t.root = pg
	t.height = 1
	return t, nil
}

func (t *Tree) validate() error {
	if t.keyW <= 0 || t.payW < 0 {
		return fmt.Errorf("btree: bad widths key=%d payload=%d", t.keyW, t.payW)
	}
	if t.leafCap() < 2 || t.intCap() < 2 {
		return fmt.Errorf("btree: page too small for key width %d payload %d", t.keyW, t.payW)
	}
	return nil
}

func (t *Tree) leafCap() int { return (t.dev.PageSize() - leafHdr) / (t.keyW + t.payW) }
func (t *Tree) intCap() int  { return (t.dev.PageSize() - intHdr) / (t.keyW + childWidth) }

// KeyWidth and PayloadWidth report the entry geometry.
func (t *Tree) KeyWidth() int     { return t.keyW }
func (t *Tree) PayloadWidth() int { return t.payW }

// Count returns the number of entries.
func (t *Tree) Count() int { return t.count }

// Height returns the number of levels (1 = root leaf). CI operators
// reserve one RAM buffer per level.
func (t *Tree) Height() int { return t.height }

// Pages returns the number of flash pages owned by the tree.
func (t *Tree) Pages() int { return t.pages }

func (t *Tree) newPage() (flash.PageID, error) {
	pg, err := t.dev.Alloc()
	if err != nil {
		return flash.InvalidPage, err
	}
	t.pages++
	return pg, nil
}

func (t *Tree) initLeaf(buf []byte, n int, next flash.PageID) {
	buf[hdrType] = nodeLeaf
	binary.BigEndian.PutUint16(buf[hdrCount:], uint16(n))
	binary.BigEndian.PutUint32(buf[hdrNext:], uint32(next))
}

func (t *Tree) initInternal(buf []byte, n int) {
	buf[hdrType] = nodeInternal
	binary.BigEndian.PutUint16(buf[hdrCount:], uint16(n))
}

func nodeCount(buf []byte) int { return int(binary.BigEndian.Uint16(buf[hdrCount:])) }

func (t *Tree) leafEntry(buf []byte, i int) (key, pay []byte) {
	off := leafHdr + i*(t.keyW+t.payW)
	return buf[off : off+t.keyW], buf[off+t.keyW : off+t.keyW+t.payW]
}

func (t *Tree) intEntry(buf []byte, i int) (key []byte, child flash.PageID) {
	off := intHdr + i*(t.keyW+childWidth)
	key = buf[off : off+t.keyW]
	child = flash.PageID(binary.BigEndian.Uint32(buf[off+t.keyW:]))
	return key, child
}

func (t *Tree) setIntEntry(buf []byte, i int, key []byte, child flash.PageID) {
	off := intHdr + i*(t.keyW+childWidth)
	copy(buf[off:], key)
	binary.BigEndian.PutUint32(buf[off+t.keyW:], uint32(child))
}

func (t *Tree) leafBytes(n int) int { return leafHdr + n*(t.keyW+t.payW) }
func (t *Tree) intBytes(n int) int  { return intHdr + n*(t.keyW+childWidth) }

func (t *Tree) readNode(pg flash.PageID, buf []byte) error {
	// Read the full page; we cannot know the entry count beforehand.
	// Cost model: one page read plus a full transfer, matching "one
	// buffer per B+-Tree level".
	return t.dev.ReadFull(pg, buf)
}

// Entry is a key/payload pair produced by bulk loading or scans.
type Entry struct {
	Key     []byte
	Payload []byte
}

// EntrySource supplies entries in non-decreasing key order for bulk load.
type EntrySource interface {
	// NextEntry returns ok=false at the end of the input.
	NextEntry() (Entry, bool, error)
}

// SliceSource adapts a sorted []Entry to an EntrySource.
type SliceSource struct {
	Entries []Entry
	i       int
}

// NextEntry implements EntrySource.
func (s *SliceSource) NextEntry() (Entry, bool, error) {
	if s.i >= len(s.Entries) {
		return Entry{}, false, nil
	}
	e := s.Entries[s.i]
	s.i++
	return e, true, nil
}

// Bulk builds a tree from a sorted entry source, writing each page once.
func Bulk(dev *flash.Device, keyWidth, payloadWidth int, src EntrySource) (*Tree, error) {
	t := &Tree{dev: dev, keyW: keyWidth, payW: payloadWidth}
	if err := t.validate(); err != nil {
		return nil, err
	}
	type levelEntry struct {
		firstKey []byte
		page     flash.PageID
	}
	var level []levelEntry

	// Fill leaves to ~90% so post-load inserts don't split immediately.
	fill := t.leafCap() * 9 / 10
	if fill < 2 {
		fill = t.leafCap()
	}
	// Entries are assembled directly into the leaf image. A completed
	// leaf is held in RAM until its successor's page is allocated, so the
	// next-leaf pointer is set without re-reading: each page is written
	// exactly once during bulk load.
	cur := make([]byte, dev.PageSize())
	held := make([]byte, dev.PageSize())
	var heldPg flash.PageID
	var heldN int
	haveHeld := false
	curN := 0
	var lastKey []byte

	completeLeaf := func(final bool) error {
		if curN == 0 && !final {
			return nil
		}
		pg, err := t.newPage()
		if err != nil {
			return err
		}
		if haveHeld {
			binary.BigEndian.PutUint32(held[hdrNext:], uint32(pg))
			if err := t.dev.Write(heldPg, held[:t.leafBytes(heldN)]); err != nil {
				return err
			}
		}
		t.initLeaf(cur, curN, flash.InvalidPage)
		k, _ := t.leafEntry(cur, 0)
		level = append(level, levelEntry{firstKey: append([]byte(nil), k...), page: pg})
		cur, held = held, cur
		heldPg, heldN = pg, curN
		haveHeld = true
		curN = 0
		return nil
	}

	for {
		e, ok, err := src.NextEntry()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if len(e.Key) != keyWidth || len(e.Payload) != payloadWidth {
			return nil, fmt.Errorf("btree: entry widths %d/%d, want %d/%d",
				len(e.Key), len(e.Payload), keyWidth, payloadWidth)
		}
		if lastKey != nil && bytes.Compare(e.Key, lastKey) < 0 {
			return nil, fmt.Errorf("btree: bulk input not sorted")
		}
		lastKey = append(lastKey[:0], e.Key...)
		k, p := t.leafEntry(cur, curN)
		copy(k, e.Key)
		copy(p, e.Payload)
		curN++
		t.count++
		if curN == fill {
			if err := completeLeaf(false); err != nil {
				return nil, err
			}
		}
	}
	if curN > 0 {
		if err := completeLeaf(false); err != nil {
			return nil, err
		}
	}
	if haveHeld {
		if err := t.dev.Write(heldPg, held[:t.leafBytes(heldN)]); err != nil {
			return nil, err
		}
	}
	buf := cur // leaf assembly buffer is free now; reuse for upper levels
	if len(level) == 0 {
		// Empty input: single empty leaf root.
		pg, err := t.newPage()
		if err != nil {
			return nil, err
		}
		t.initLeaf(buf, 0, flash.InvalidPage)
		if err := t.dev.Write(pg, buf[:leafHdr]); err != nil {
			return nil, err
		}
		t.root = pg
		t.height = 1
		return t, nil
	}

	// Build internal levels bottom-up.
	t.height = 1
	intFill := t.intCap() * 9 / 10
	if intFill < 2 {
		intFill = t.intCap()
	}
	for len(level) > 1 {
		var upper []levelEntry
		for i := 0; i < len(level); i += intFill {
			end := i + intFill
			if end > len(level) {
				end = len(level)
			}
			group := level[i:end]
			pg, err := t.newPage()
			if err != nil {
				return nil, err
			}
			t.initInternal(buf, len(group))
			for j, le := range group {
				t.setIntEntry(buf, j, le.firstKey, le.page)
			}
			if err := t.dev.Write(pg, buf[:t.intBytes(len(group))]); err != nil {
				return nil, err
			}
			upper = append(upper, levelEntry{firstKey: group[0].firstKey, page: pg})
		}
		level = upper
		t.height++
	}
	t.root = level[0].page
	return t, nil
}

// descend returns the leaf page whose key range may contain key, along
// with the path of (page, childIndex) visited, for Insert.
//
// Internal entries hold the minimum key of their subtree. Two descent
// modes keep that invariant useful with duplicate keys:
//
//   - read mode ("leftmost"): follow the rightmost child whose key is
//     strictly below the target, so a Seek lands before any run of
//     duplicates, wherever the run starts;
//   - insert mode: follow the rightmost child whose key is <= the target
//     (appending new duplicates at the end of their run), and *lower* the
//     first entry's key when inserting below the current minimum, so
//     separators always stay sorted and <= their subtree minimum.
type pathStep struct {
	page flash.PageID
	idx  int
}

func (t *Tree) descend(key []byte, buf []byte, insert bool) (flash.PageID, []pathStep, error) {
	var path []pathStep
	pg := t.root
	for {
		if err := t.readNode(pg, buf); err != nil {
			return flash.InvalidPage, nil, err
		}
		if buf[hdrType] == nodeLeaf {
			return pg, path, nil
		}
		n := nodeCount(buf)
		if insert {
			if k0, c0 := t.intEntry(buf, 0); bytes.Compare(key, k0) < 0 {
				// New global minimum for this subtree: lower the bound.
				t.setIntEntry(buf, 0, key, c0)
				if err := t.dev.Write(pg, buf[:t.intBytes(n)]); err != nil {
					return flash.InvalidPage, nil, err
				}
			}
		}
		lo, hi := 0, n-1
		idx := 0
		for lo <= hi {
			mid := (lo + hi) / 2
			k, _ := t.intEntry(buf, mid)
			var follow bool
			if insert {
				follow = bytes.Compare(k, key) <= 0
			} else {
				follow = bytes.Compare(k, key) < 0
			}
			if follow {
				idx = mid
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
		_, child := t.intEntry(buf, idx)
		if insert {
			path = append(path, pathStep{page: pg, idx: idx})
		}
		pg = child
	}
}

// Lookup returns the payload of the first entry with exactly this key.
func (t *Tree) Lookup(key []byte) ([]byte, error) {
	cur, err := t.Seek(key)
	if err != nil {
		return nil, err
	}
	k, p, ok, err := cur.Next()
	if err != nil {
		return nil, err
	}
	if !ok || !bytes.Equal(k, key) {
		return nil, ErrNotFound
	}
	return p, nil
}

// Cursor iterates leaf entries in key order. Entries 0..n-1 of buf are
// the leaf it holds, read while the tree's write count was writes; n = 0
// means it holds none.
type Cursor struct {
	t      *Tree
	buf    []byte
	i      int
	n      int
	writes int
}

// Seek positions a new cursor at the first entry with key >= the given key.
func (t *Tree) Seek(key []byte) (*Cursor, error) {
	c := t.NewCursor(nil)
	if err := c.Seek(key); err != nil {
		return nil, err
	}
	return c, nil
}

// NewCursor returns an unpositioned cursor over a caller-owned page
// buffer of at least PageSize bytes (nil allocates one); position it
// with Seek. A caller probing the tree many times re-seeks one cursor
// instead of allocating a page buffer per probe.
func (t *Tree) NewCursor(buf []byte) *Cursor {
	if buf == nil {
		buf = make([]byte, t.dev.PageSize())
	}
	return &Cursor{t: t, buf: buf}
}

// Seek repositions the cursor at the first entry with key >= the given
// key. When the leaf the cursor holds now has first < key <= last and
// the tree has not been written since it was read, that leaf holds the
// answer (leaves are chained in key order, so no earlier leaf can hold
// an entry >= key): Seek searches it and reads no page. Otherwise it
// descends from the root, exactly as Tree.Seek. Sorted probes therefore
// pay one descent per leaf they touch, not one per key.
func (c *Cursor) Seek(key []byte) error {
	t := c.t
	if !c.holds(key) {
		// A descent reads inner nodes into buf: forget the held leaf
		// first, so a read error mid-descent leaves nothing to trust.
		c.n = 0
		if _, _, err := t.descend(key, c.buf, false); err != nil {
			return err
		}
		c.n, c.writes = nodeCount(c.buf), t.writes
	}
	lo, hi, pos := 0, c.n-1, c.n
	for lo <= hi {
		mid := (lo + hi) / 2
		k, _ := t.leafEntry(c.buf, mid)
		if bytes.Compare(k, key) >= 0 {
			pos = mid
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	// Because internal first-keys equal their subtree minimum, an exact
	// lower bound never requires stepping back; but an absent key can
	// leave us at the end of a leaf whose successor holds the answer.
	c.i = pos
	return nil
}

// holds reports whether the held leaf is current and has first < key <= last.
func (c *Cursor) holds(key []byte) bool {
	if c.n == 0 || c.writes != c.t.writes {
		return false
	}
	first, _ := c.t.leafEntry(c.buf, 0)
	last, _ := c.t.leafEntry(c.buf, c.n-1)
	return bytes.Compare(first, key) < 0 && bytes.Compare(key, last) <= 0
}

// First positions a cursor at the smallest entry.
func (t *Tree) First() (*Cursor, error) {
	buf := make([]byte, t.dev.PageSize())
	pg := t.root
	for {
		if err := t.readNode(pg, buf); err != nil {
			return nil, err
		}
		if buf[hdrType] == nodeLeaf {
			return &Cursor{t: t, buf: buf, n: nodeCount(buf), writes: t.writes}, nil
		}
		_, child := t.intEntry(buf, 0)
		pg = child
	}
}

// Next returns the current entry and advances. Returned slices are views
// into the cursor buffer, valid until the next call.
func (c *Cursor) Next() (key, payload []byte, ok bool, err error) {
	for c.i >= c.n {
		next := flash.PageID(binary.BigEndian.Uint32(c.buf[hdrNext:]))
		if next == flash.InvalidPage {
			return nil, nil, false, nil
		}
		c.n = 0
		if err := c.t.readNode(next, c.buf); err != nil {
			return nil, nil, false, err
		}
		c.i = 0
		c.n, c.writes = nodeCount(c.buf), c.t.writes
	}
	k, p := c.t.leafEntry(c.buf, c.i)
	c.i++
	return k, p, true, nil
}

// Insert adds an entry (duplicates allowed), splitting nodes as needed.
func (t *Tree) Insert(key, payload []byte) error {
	if len(key) != t.keyW || len(payload) != t.payW {
		return fmt.Errorf("btree: entry widths %d/%d, want %d/%d", len(key), len(payload), t.keyW, t.payW)
	}
	t.writes++
	buf := make([]byte, t.dev.PageSize())
	leaf, path, err := t.descend(key, buf, true)
	if err != nil {
		return err
	}
	n := nodeCount(buf)
	// Insert position: before the first entry > key.
	pos := n
	for i := 0; i < n; i++ {
		k, _ := t.leafEntry(buf, i)
		if bytes.Compare(k, key) > 0 {
			pos = i
			break
		}
	}
	ew := t.keyW + t.payW
	if n < t.leafCap() {
		copy(buf[leafHdr+(pos+1)*ew:leafHdr+(n+1)*ew], buf[leafHdr+pos*ew:leafHdr+n*ew])
		k, p := t.leafEntry(buf, pos)
		copy(k, key)
		copy(p, payload)
		binary.BigEndian.PutUint16(buf[hdrCount:], uint16(n+1))
		t.count++
		return t.dev.Write(leaf, buf[:t.leafBytes(n+1)])
	}
	// Split the leaf.
	entries := make([]Entry, 0, n+1)
	for i := 0; i < n; i++ {
		k, p := t.leafEntry(buf, i)
		entries = append(entries, Entry{Key: append([]byte(nil), k...), Payload: append([]byte(nil), p...)})
	}
	entries = append(entries[:pos:pos], append([]Entry{{Key: append([]byte(nil), key...), Payload: append([]byte(nil), payload...)}}, entries[pos:]...)...)
	mid := len(entries) / 2
	next := flash.PageID(binary.BigEndian.Uint32(buf[hdrNext:]))
	rightPg, err := t.newPage()
	if err != nil {
		return err
	}
	// Left half stays on the existing page; right half on the new page.
	writeLeaf := func(pg flash.PageID, es []Entry, nxt flash.PageID) error {
		t.initLeaf(buf, len(es), nxt)
		for i, e := range es {
			k, p := t.leafEntry(buf, i)
			copy(k, e.Key)
			copy(p, e.Payload)
		}
		return t.dev.Write(pg, buf[:t.leafBytes(len(es))])
	}
	if err := writeLeaf(rightPg, entries[mid:], next); err != nil {
		return err
	}
	if err := writeLeaf(leaf, entries[:mid], rightPg); err != nil {
		return err
	}
	t.count++
	return t.insertUp(path, entries[mid].Key, rightPg)
}

// insertUp inserts a separator (key -> child) into the parent chain.
func (t *Tree) insertUp(path []pathStep, key []byte, child flash.PageID) error {
	buf := make([]byte, t.dev.PageSize())
	for lvl := len(path) - 1; lvl >= 0; lvl-- {
		step := path[lvl]
		if err := t.readNode(step.page, buf); err != nil {
			return err
		}
		n := nodeCount(buf)
		pos := step.idx + 1
		ew := t.keyW + childWidth
		if n < t.intCap() {
			copy(buf[intHdr+(pos+1)*ew:intHdr+(n+1)*ew], buf[intHdr+pos*ew:intHdr+n*ew])
			t.setIntEntry(buf, pos, key, child)
			binary.BigEndian.PutUint16(buf[hdrCount:], uint16(n+1))
			return t.dev.Write(step.page, buf[:t.intBytes(n+1)])
		}
		// Split internal node.
		type ic struct {
			key   []byte
			child flash.PageID
		}
		ents := make([]ic, 0, n+1)
		for i := 0; i < n; i++ {
			k, c := t.intEntry(buf, i)
			ents = append(ents, ic{key: append([]byte(nil), k...), child: c})
		}
		ents = append(ents[:pos:pos], append([]ic{{key: append([]byte(nil), key...), child: child}}, ents[pos:]...)...)
		mid := len(ents) / 2
		rightPg, err := t.newPage()
		if err != nil {
			return err
		}
		writeInt := func(pg flash.PageID, es []ic) error {
			t.initInternal(buf, len(es))
			for i, e := range es {
				t.setIntEntry(buf, i, e.key, e.child)
			}
			return t.dev.Write(pg, buf[:t.intBytes(len(es))])
		}
		if err := writeInt(rightPg, ents[mid:]); err != nil {
			return err
		}
		if err := writeInt(step.page, ents[:mid]); err != nil {
			return err
		}
		key = ents[mid].key
		child = rightPg
	}
	// Root split: new root with two children.
	oldRoot := t.root
	// Recover the first key of the old root.
	if err := t.readNode(oldRoot, buf); err != nil {
		return err
	}
	var firstKey []byte
	if buf[hdrType] == nodeLeaf {
		k, _ := t.leafEntry(buf, 0)
		firstKey = append([]byte(nil), k...)
	} else {
		k, _ := t.intEntry(buf, 0)
		firstKey = append([]byte(nil), k...)
	}
	rootPg, err := t.newPage()
	if err != nil {
		return err
	}
	t.initInternal(buf, 2)
	t.setIntEntry(buf, 0, firstKey, oldRoot)
	t.setIntEntry(buf, 1, key, child)
	if err := t.dev.Write(rootPg, buf[:t.intBytes(2)]); err != nil {
		return err
	}
	t.root = rootPg
	t.height++
	return nil
}
