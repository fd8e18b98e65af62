// Package store is the fixture metered storage layer: the one place a
// raw flash read is legitimate, proving busmeter stays silent on the
// audited substrate.
package store

import "fixture/flash"

// Reader reads pages through the metered layer.
type Reader struct {
	dev *flash.Device
}

// ReadPage returns one page; the raw device call is fine here because
// store is in MeteredPkgs, and the constant make is fine because store
// is not the exec package.
func (r *Reader) ReadPage(page int) ([]byte, error) {
	buf := make([]byte, 4096)
	if err := r.dev.Read(page, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// SeqReader streams pages sequentially with an optional read-ahead
// window.
type SeqReader struct {
	dev   *flash.Device
	depth int
}

// SetReadAhead arms the read-ahead window; the depth must be a
// constant, which the prefetchdepth rule enforces at call sites.
func (r *SeqReader) SetReadAhead(depth int, staging [][]byte) {
	r.depth = depth
	_ = staging
}

// fill stages the next window through the batched device read — a
// legitimate raw call, store being a metered package.
func (r *SeqReader) fill(pages []int, staging [][]byte) error {
	return r.dev.ReadMulti(pages, staging)
}
