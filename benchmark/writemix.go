package main

import (
	"fmt"
	"math/rand"
	"strings"

	"ghostdb/internal/datagen"
	"ghostdb/internal/exec"
	"ghostdb/internal/schema"
)

// write-mix: reads beside writes on one token, in process, unpaced,
// caches off. Automatic compaction is off and the runner issues an
// explicit db.Compact after every 64 UPDATE/DELETE statements, so
// compaction is deterministic and timed as its own operation. The same
// flash, store, index and delta code serves the writes, the overlay
// reads and the compactions, so a read-path gain that costs writes,
// space or FTL garbage collection shows here and nowhere else.
//
//	35%  S-C joins with a visible and a hidden selection
//	25%  id lookups on S projecting a hidden attribute
//	15%  INSERT into S
//	15%  hidden range UPDATE (SET h1, which the reads project)
//	 5%  visible UPDATE by id range
//	 5%  DELETE of two rows by id range
//
// Sizing: datagen.Forest(0.1, seed, 1) is 20 000 S rows and 2 000 C
// rows, 1 185 flash pages loaded. The workload writes long-lived pages
// (inserted rows, delta log, compacted images) between its spools, so
// the engine is renewed every 1 000 statements and the device holds the
// image plus twice what an epoch was measured to program (54 pages per
// statement): the issue's "GC moves > 0" sizing cannot be met while the
// FTL corrupts what it relocates (closedDef.epoch).
const (
	writeMixScale       = 0.1
	writeMixDevicePages = 1200 + 2*54*1000
	writeMixTinyScale   = 0.01
	writeMixEpoch       = 1000
)

type writeMixStream struct {
	rng   *rand.Rand
	s, c  int // table indexes of S0 and C0
	sRows int // grows with the stream's own inserts
	cRows int
}

func newWriteMixStream(seed int64, fx *fixture) stream {
	sch := fx.db.Sch
	s, _ := sch.Lookup("S0")
	c, _ := sch.Lookup("C0")
	return &writeMixStream{rng: rand.New(rand.NewSource(seed ^ 0x77726974)),
		s: s.Index, c: c.Index, sRows: fx.db.Rows(s.Index), cRows: fx.db.Rows(c.Index)}
}

func (w *writeMixStream) next() stmt {
	pad := func() string { return datagen.PadValue(w.rng.Intn(datagen.Domain)) }
	switch u := w.rng.Float64(); {
	case u < 0.35:
		svs := []float64{0.01, 0.02, 0.05, 0.1}
		return stmt{kind: kSelect, table: w.s, sql: fmt.Sprintf(
			"SELECT S0.id, S0.v1, S0.h1, C0.v1 FROM S0, C0 WHERE S0.fkc0 = C0.id AND S0.v1 < '%s' AND C0.h2 < '%s'",
			datagen.SelValue(svs[w.rng.Intn(len(svs))]), datagen.SelValue(0.1))}
	case u < 0.60:
		return stmt{kind: kSelect, table: w.s, sql: fmt.Sprintf(
			"SELECT S0.id, S0.v1, S0.h1 FROM S0 WHERE S0.id = %d", w.rng.Intn(w.sRows))}
	case u < 0.75:
		fk := w.rng.Intn(w.cRows)
		row := make(schema.Row, 10)
		lits := make([]string, 10)
		for i := range row {
			v := pad()
			row[i], lits[i] = schema.CharVal(v), "'"+v+"'"
		}
		w.sRows++
		return stmt{kind: kInsert, table: w.s,
			sql:    fmt.Sprintf("INSERT INTO S0 VALUES (%d, %s)", fk, strings.Join(lits, ", ")),
			insRow: row, insFKs: map[int]uint32{w.c: uint32(fk)}}
	case u < 0.90:
		lo := w.rng.Intn(datagen.Domain - 5)
		return stmt{kind: kUpdate, table: w.s, sql: fmt.Sprintf(
			"UPDATE S0 SET h1 = '%s' WHERE S0.h5 BETWEEN '%s' AND '%s'",
			pad(), datagen.PadValue(lo), datagen.PadValue(lo+4))}
	case u < 0.95:
		lo := w.rng.Intn(w.sRows - 10)
		return stmt{kind: kUpdate, table: w.s, sql: fmt.Sprintf(
			"UPDATE S0 SET v2 = '%s' WHERE S0.id BETWEEN %d AND %d", pad(), lo, lo+9)}
	default:
		lo := w.rng.Intn(w.sRows - 2)
		return stmt{kind: kDelete, table: w.s, sql: fmt.Sprintf(
			"DELETE FROM S0 WHERE S0.id BETWEEN %d AND %d", lo, lo+1)}
	}
}

var writeMixDef = closedDef{
	name: "write-mix",
	build: func(tiny bool) (*fixture, error) {
		scale := writeMixScale
		if tiny {
			scale = writeMixTinyScale
		}
		return buildForest(scale, 1, writeMixDevicePages, exec.Options{CompactThreshold: -1})
	},
	newStream:    newWriteMixStream,
	chunk:        250,
	compactEvery: 64,
	epoch:        writeMixEpoch,
}

func runWriteMix(rc runConfig) (*report, error) { return runClosed(writeMixDef, rc) }
