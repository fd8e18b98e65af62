package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"ghostdb/internal/bloom"
	"ghostdb/internal/btree"
	"ghostdb/internal/bus"
	"ghostdb/internal/cache"
	"ghostdb/internal/datagen"
	"ghostdb/internal/delta"
	"ghostdb/internal/exec"
	"ghostdb/internal/flash"
	"ghostdb/internal/index"
	"ghostdb/internal/pagecache"
	"ghostdb/internal/query"
	"ghostdb/internal/ram"
	"ghostdb/internal/sched"
	"ghostdb/internal/schema"
	"ghostdb/internal/sqlparse"
	"ghostdb/internal/store"
	"ghostdb/internal/untrusted"
)

// The layer probes time calls into each layer's exported functions on
// stand-alone instances, from outside: no engine, no statement, one
// layer at a time. They are the same for every workload (the layers do
// not know which workload runs above them); only the front-end probes
// take the workload's own statements. The flash device is driven
// through internal/store and the bus through internal/untrusted,
// because the busmeter lint rule reserves the raw Device and Channel
// data methods for those packages.
//
// Code here handles //ghostdb:hidden types (index.SKT, index.Climbing,
// delta.Table). The trustboundary lint rule forbids anything derived
// from them, errors included, from reaching fmt or errors, so probe
// functions return such errors bare and runProbes names the probe.

// prober runs timed batches and records one span per probe.
type prober struct {
	rep   *report
	spans *spanLog
	rng   *rand.Rand
}

// time runs op n times per batch for five batches and returns the
// median nanoseconds per call. A batch is timed as a whole: the ops are
// far shorter than the clock's resolution.
func (p *prober) time(name string, n int, op func(i int) error) (float64, error) {
	const batches = 5
	per := make([]float64, 0, batches)
	start := time.Now()
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := op(b*n + i); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	p.spans.addCall("probe:"+name, start, time.Now())
	return median(per), nil
}

// runProbes runs every layer probe and stores its metrics. sample is a
// set of the workload's own statements for the front-end probes, fx the
// engine they are prepared against.
func runProbes(rep *report, rc runConfig, fx *fixture, sample []stmt) error {
	// Start from a collected heap: the traced pass before this left
	// hundreds of thousands of spans and a retired engine behind.
	runtime.GC()
	p := &prober{rep: rep, spans: rc.spans, rng: rand.New(rand.NewSource(rc.seed))}
	for _, probe := range []struct {
		name string
		run  func() error
	}{
		{"front-end", func() error { return p.frontEnd(fx, sample) }},
		{"flash", p.flash},
		{"store", p.store},
		{"btree", p.btree},
		{"index", p.index},
		{"bloom", p.bloom},
		{"untrusted+bus", p.untrusted},
		{"ram+sched", p.ramSched},
		{"cache", p.caches},
		{"delta", p.delta},
		{"server", p.server},
	} {
		if err := probe.run(); err != nil {
			return fmt.Errorf("%s probe: %w", probe.name, err)
		}
	}
	return nil
}

// frontEnd times parse, resolve and prepare over the workload's
// distinct statements.
func (p *prober) frontEnd(fx *fixture, sample []stmt) error {
	seen := map[string]bool{}
	var stmts []stmt
	for _, st := range sample {
		if st.kind != kCompact && !seen[st.sql] && len(stmts) < 200 {
			seen[st.sql] = true
			stmts = append(stmts, st)
		}
	}
	if len(stmts) == 0 {
		return nil
	}
	sch := fx.db.Sch
	parsed := make([]sqlparse.Statement, len(stmts))
	ns, err := p.time("sqlparse.Parse", len(stmts), func(i int) error {
		st, err := sqlparse.Parse(stmts[i%len(stmts)].sql)
		parsed[i%len(stmts)] = st
		return err
	})
	if err != nil {
		return err
	}
	p.rep.set("sqlparse.parse_us", ns/1e3)
	ns, err = p.time("query.Resolve", len(stmts), func(i int) error {
		sql := stmts[i%len(stmts)].sql
		var err error
		switch s := parsed[i%len(stmts)].(type) {
		case *sqlparse.Select:
			_, err = query.Resolve(sch, s, sql)
		case *sqlparse.Update:
			_, err = query.ResolveUpdate(sch, s, sql)
		case *sqlparse.Delete:
			_, err = query.ResolveDelete(sch, s, sql)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.rep.set("query.resolve_us", ns/1e3)
	ns, err = p.time("exec.Prepare", len(stmts), func(i int) error {
		st := stmts[i%len(stmts)]
		_, err := fx.db.Prepare(st.sql, st.cfg)
		return err
	})
	if err != nil {
		return err
	}
	p.rep.set("exec.prepare_us", ns/1e3)
	return nil
}

// flash drives a stand-alone device one page per row through
// store.RowFile: page programs, page reads, and programs on a device
// 90% full, where every 64th program makes the FTL find and erase a
// dead block. The live file fills whole blocks and the churn is whole
// files, so the collector never has a valid page to relocate.
func (p *prober) flash() error {
	const pages = 2048
	dev, err := flash.NewDevice(flashFor(8 * pages))
	if err != nil {
		return err
	}
	page := make([]byte, dev.PageSize())
	newFile := func(d *flash.Device, n int) (*store.RowFile, error) {
		f, err := store.NewRowFile(d, d.PageSize())
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if err := f.Append(page); err != nil {
				return nil, err
			}
		}
		return f, f.Seal()
	}
	var files []*store.RowFile
	ns, err := p.time("flash.write", 1, func(int) error {
		f, err := newFile(dev, pages)
		files = append(files, f)
		return err
	})
	if err != nil {
		return err
	}
	p.rep.set("flash.write_ns_per_page", ns/pages)
	f := files[0]
	ns, err = p.time("flash.read", pages, func(int) error {
		return f.ReadRow(uint32(p.rng.Intn(pages)), page)
	})
	if err != nil {
		return err
	}
	p.rep.set("flash.read_ns_per_page", ns)

	params := flash.DefaultParams()
	params.Blocks = 72 // 64 blocks of user capacity
	full, err := flash.NewDevice(params)
	if err != nil {
		return err
	}
	if _, err := newFile(full, 58*params.PagesPerBlock); err != nil { // 90.6% of capacity, whole blocks
		return err
	}
	ns, err = p.time("flash.write-full", 40, func(int) error {
		f, err := newFile(full, params.PagesPerBlock)
		if err != nil {
			return err
		}
		return f.Free()
	})
	if err != nil {
		return err
	}
	p.rep.set("flash.gc_write_ns_per_page", ns/float64(params.PagesPerBlock))
	c := full.Counters()
	if c.GCPageMoves != 0 || c.BlockErases == 0 {
		return fmt.Errorf("90%%-full device: %d GC moves (want 0), %d erases (want > 0)", c.GCPageMoves, c.BlockErases)
	}
	return nil
}

// store times the row-file and id-list primitives on 40-byte rows.
func (p *prober) store() error {
	const rows, width = 50000, 40
	dev, err := flash.NewDevice(flashFor(1 << 16))
	if err != nil {
		return err
	}
	rec := make([]byte, width)
	var files []*store.RowFile
	ns, err := p.time("store.RowFile.Append", 1, func(int) error {
		f, err := store.NewRowFile(dev, width)
		if err != nil {
			return err
		}
		files = append(files, f)
		for i := 0; i < rows; i++ {
			if err := f.Append(rec); err != nil {
				return err
			}
		}
		return f.Seal()
	})
	if err != nil {
		return err
	}
	f := files[0]
	p.rep.set("store.rowfile_append_ns_per_row", ns/rows)
	p.rep.set("store.pages_per_1k_rows", 1000*float64(f.Pages())/rows)

	scan := func(readAhead bool) func(int) error {
		return func(int) error {
			rd := f.NewSeqReader()
			if readAhead {
				staging := make([][]byte, 4)
				for i := range staging {
					staging[i] = make([]byte, dev.PageSize())
				}
				rd.SetReadAhead(4, staging, nil)
			}
			for {
				_, _, ok, err := rd.Next()
				if err != nil || !ok {
					return err
				}
			}
		}
	}
	if ns, err = p.time("store.SeqReader", 1, scan(false)); err != nil {
		return err
	}
	p.rep.set("store.seqread_ns_per_row", ns/rows)
	if ns, err = p.time("store.SeqReader+readahead", 1, scan(true)); err != nil {
		return err
	}
	p.rep.set("store.seqread_ra_ns_per_row", ns/rows)

	const ids = 100000
	list := store.NewListSegment(dev)
	var runs []store.Run
	ns, err = p.time("store.ListSegment.Add", 1, func(int) error {
		if err := list.BeginRun(); err != nil {
			return err
		}
		for i := 0; i < ids; i++ {
			if err := list.Add(uint32(i)); err != nil {
				return err
			}
		}
		run, err := list.EndRun()
		runs = append(runs, run)
		return err
	})
	if err != nil {
		return err
	}
	p.rep.set("store.idlist_add_ns_per_id", ns/ids)
	if err := list.Seal(); err != nil {
		return err
	}
	ns, err = p.time("store.RunReader", 1, func(b int) error {
		rd := list.NewRunReader(runs[b])
		for {
			_, ok, err := rd.Next()
			if err != nil || !ok {
				return err
			}
		}
	})
	if err != nil {
		return err
	}
	p.rep.set("store.runreader_ns_per_id", ns/ids)
	return nil
}

// btree times the B+-tree at the climbing index's geometry: 10-byte
// keys, 16-byte payloads.
func (p *prober) btree() error {
	const n, keyW, payW = 50000, 10, 16
	dev, err := flash.NewDevice(flashFor(1 << 15))
	if err != nil {
		return err
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("%0*d", keyW, i)) }
	entries := make([]btree.Entry, n)
	for i := range entries {
		entries[i] = btree.Entry{Key: key(2 * i), Payload: make([]byte, payW)}
	}
	var trees []*btree.Tree
	ns, err := p.time("btree.Bulk", 1, func(int) error {
		t, err := btree.Bulk(dev, keyW, payW, &btree.SliceSource{Entries: entries})
		trees = append(trees, t)
		return err
	})
	if err != nil {
		return err
	}
	t := trees[0]
	p.rep.set("btree.bulk_ns_per_entry", ns/n)

	before := dev.Counters()
	const lookups = 4000
	ns, err = p.time("btree.Lookup", lookups, func(int) error {
		_, err := t.Lookup(key(2 * p.rng.Intn(n)))
		return err
	})
	if err != nil {
		return err
	}
	p.rep.set("btree.lookup_ns", ns)
	p.rep.set("btree.lookup_pages", float64(dev.Counters().Sub(before).PageReads)/(5*lookups))

	ns, err = p.time("btree.Cursor", 1, func(int) error {
		cur, err := t.First()
		if err != nil {
			return err
		}
		for {
			_, _, ok, err := cur.Next()
			if err != nil || !ok {
				return err
			}
		}
	})
	if err != nil {
		return err
	}
	p.rep.set("btree.scan_ns_per_entry", ns/n)

	ns, err = p.time("btree.Insert", 400, func(int) error {
		return t.Insert(key(2*p.rng.Intn(n)+1), make([]byte, payW))
	})
	if err != nil {
		return err
	}
	p.rep.set("btree.insert_ns", ns)
	return nil
}

// index builds the catalog of a small synthetic dataset on its own
// device and times climbing-index and SKT access on it.
func (p *prober) index() error {
	ds, err := datagen.Synthetic(0.002, 1)
	if err != nil {
		return err
	}
	dev, err := flash.NewDevice(flashFor(1 << 16))
	if err != nil {
		return err
	}
	inputs := map[int]*index.TableInput{}
	for _, t := range ds.Sch.Tables {
		ld := ds.Load[t.Index]
		in := &index.TableInput{Rows: ld.Rows, FKs: ld.FKs}
		for ci, col := range t.Columns {
			if col.Hidden {
				in.Attrs = append(in.Attrs, index.AttrData{ColIdx: ci, Width: ld.Cols[ci].Width, Data: ld.Cols[ci].Data})
			}
		}
		inputs[t.Index] = in
	}
	start := time.Now()
	cat, err := index.Build(dev, ds.Sch, inputs, index.VariantFull)
	if err != nil {
		return err
	}
	p.spans.addCall("probe:index.Build", start, time.Now())
	p.rep.set("index.build_s", time.Since(start).Seconds())

	t12, _ := ds.Sch.Lookup("T12")
	t0, _ := ds.Sch.Lookup("T0")
	_, h2, _ := t12.Column("h2")
	eqNs, rangeNs, pagesPerProbe, sktNs, insertNs, err := p.indexAccess(cat, dev, t12.Index, h2, t0.Index, ds.Load[t0.Index].Rows)
	if err != nil {
		return err // bare: derived from hidden index types
	}
	p.rep.set("index.runs_eq_ns", eqNs)
	p.rep.set("index.runs_range_ns", rangeNs)
	p.rep.set("index.pages_per_probe", pagesPerProbe)
	p.rep.set("index.skt_readrow_ns", sktNs)
	p.rep.set("index.insert_entry_ns", insertNs)
	return nil
}

// indexAccess is the part of the index probe that holds hidden-typed
// values; it returns plain timings and bare errors.
func (p *prober) indexAccess(cat *index.Catalog, dev *flash.Device, table, col, root, rootRows int) (eqNs, rangeNs, pages, sktNs, insertNs float64, err error) {
	ci, ok := cat.AttrIndex(table, col)
	skt, ok2 := cat.SKTOf(root)
	if !ok || !ok2 {
		return 0, 0, 0, 0, 0, fmt.Errorf("catalog lacks the probed index")
	}
	key := func() []byte { return []byte(datagen.PadValue(p.rng.Intn(datagen.Domain))) }
	before := dev.Counters()
	const probes = 2000
	if eqNs, err = p.time("index.RunsEq", probes, func(int) error {
		_, err := ci.RunsEq(key(), 0)
		return err
	}); err != nil {
		return
	}
	pages = float64(dev.Counters().Sub(before).PageReads) / (5 * probes)
	if rangeNs, err = p.time("index.RunsRange", 200, func(int) error {
		_, err := ci.RunsRange(nil, []byte(datagen.SelValue(0.1)), true, false, 0)
		return err
	}); err != nil {
		return
	}
	row := make([]uint32, len(skt.Descendants()))
	if sktNs, err = p.time("index.SKT.ReadRow", probes, func(int) error {
		return skt.ReadRow(uint32(p.rng.Intn(rootRows)), row)
	}); err != nil {
		return
	}
	perLevel := make([]int64, len(ci.Levels()))
	insertNs, err = p.time("index.InsertEntry", 200, func(i int) error {
		for l := range perLevel {
			perLevel[l] = int64(i)
		}
		return ci.InsertEntry(key(), perLevel)
	})
	return
}

// bloom times the filter at the paper's 8 bits per element and measures
// its false-positive rate on ids it never saw.
func (p *prober) bloom() error {
	const n = 20000
	plan, err := bloom.PlanFor(n, 64<<10)
	if err != nil {
		return err
	}
	f := bloom.New(plan, n)
	ns, err := p.time("bloom.Add", n/5, func(i int) error {
		f.Add(uint32(2 * i))
		return nil
	})
	if err != nil {
		return err
	}
	p.rep.set("bloom.add_ns", ns)
	falsePos := 0
	ns, err = p.time("bloom.MayContain", n/5, func(i int) error {
		if f.MayContain(uint32(2*i + 1)) {
			falsePos++
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.rep.set("bloom.maycontain_ns", ns)
	p.rep.set("bloom.fpr", float64(falsePos)/n)
	return nil
}

// untrusted times the Vis operator and the planner's CountVis on one
// visible column of 20 000 rows, and one metered Down shipment.
func (p *prober) untrusted() error {
	const rows = 20000
	sch, err := schema.New(datagen.SyntheticDefs())
	if err != nil {
		return err
	}
	t0, _ := sch.Lookup("T0")
	e := untrusted.NewEngine(sch, bus.NewChannel(bus.DefaultThroughputMBps))
	for ci, col := range t0.Columns {
		if col.Hidden {
			continue
		}
		data := make([]byte, rows*col.EncodedWidth())
		for r := 0; r < rows; r++ {
			copy(data[r*col.EncodedWidth():], datagen.PadValue(p.rng.Intn(datagen.Domain)))
		}
		if err := e.LoadColumn(t0.Index, ci, col.EncodedWidth(), data); err != nil {
			return err
		}
	}
	if err := e.SetRows(t0.Index, rows); err != nil {
		return err
	}
	sql := fmt.Sprintf("SELECT T0.id, T0.v2 FROM T0 WHERE T0.v1 < '%s'", datagen.SelValue(0.05))
	parsed, err := sqlparse.Parse(sql)
	if err != nil {
		return err
	}
	q, err := query.Resolve(sch, parsed.(*sqlparse.Select), sql)
	if err != nil {
		return err
	}
	_, v2, _ := t0.Column("v2")
	ns, err := p.time("untrusted.Vis", 20, func(int) error {
		_, err := e.Vis(t0.Index, q.Preds, []int{v2})
		return err
	})
	if err != nil {
		return err
	}
	p.rep.set("untrusted.vis_ns_per_row", ns/rows)
	ns, err = p.time("untrusted.CountVis", 20, func(int) error {
		_, err := e.CountVis(t0.Index, q.Preds)
		return err
	})
	if err != nil {
		return err
	}
	p.rep.set("untrusted.countvis_ns_per_row", ns/rows)
	ns, err = p.time("untrusted.Ship", 20000, func(int) error { return e.Ship(e.ShipVisHeader(t0.Index)) })
	if err != nil {
		return err
	}
	p.rep.set("bus.ship_ns", ns)
	return nil
}

// ramSched times a reserve/release pair on the RAM manager and a whole
// uncontended admission (acquire, take the slot, release).
func (p *prober) ramSched() error {
	m := ram.NewManager(ram.DefaultBudget, flash.DefaultPageSize)
	ns, err := p.time("ram.ReserveBuffers", 20000, func(int) error {
		g, err := m.ReserveBuffers(2, 8)
		if err != nil {
			return err
		}
		g.Release()
		return nil
	})
	if err != nil {
		return err
	}
	p.rep.set("ram.reserve_release_ns", ns)
	s := sched.New(m, 4)
	ctx := context.Background()
	ns, err = p.time("sched.Acquire", 20000, func(int) error {
		sess, err := s.Acquire(ctx, sched.Request{MinBuffers: 2, WantBuffers: 8})
		if err != nil {
			return err
		}
		defer sess.Release()
		return sess.Exclusive(ctx, func() error { return nil })
	})
	if err != nil {
		return err
	}
	p.rep.set("sched.acquire_release_ns", ns)
	return nil
}

// caches times the two untrusted-side caches: stores into a full cache
// (so every store evicts) and hits.
func (p *prober) caches() error {
	const entries, size = 1024, 1 << 10
	keys := make([]string, 4*entries)
	for i := range keys {
		keys[i] = fmt.Sprintf("s0|p0|SELECT id FROM T WHERE id = %d", i)
	}
	rc := cache.New(entries * size)
	ns, err := p.time("cache.Put", len(keys), func(i int) error {
		rc.Put(keys[i%len(keys)], i, size, []int{0}, rc.Stamp([]int{0}))
		return nil
	})
	if err != nil {
		return err
	}
	p.rep.set("cache.put_ns", ns)
	hot := keys[len(keys)-entries/2:] // the most recently stored: resident
	misses := 0
	ns, err = p.time("cache.Get", 20000, func(i int) error {
		if _, ok := rc.Get(hot[i%len(hot)]); !ok {
			misses++
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.rep.set("cache.get_hit_ns", ns)

	pc := pagecache.New(entries*size, nil)
	ns, err = p.time("pagecache.Put", len(keys), func(i int) error {
		pc.Put(keys[i%len(keys)], i, size, []int{0}, pc.Stamp([]int{0}))
		return nil
	})
	if err != nil {
		return err
	}
	p.rep.set("pagecache.put_ns", ns)
	ns, err = p.time("pagecache.Acquire", 20000, func(i int) error {
		if _, release, ok := pc.Acquire(hot[i%len(hot)]); ok {
			release()
		} else {
			misses++
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.rep.set("pagecache.acquire_hit_ns", ns)
	if misses > 0 {
		return fmt.Errorf("%d lookups of resident keys missed", misses)
	}
	return nil
}

// delta times a 20-row hidden UPDATE's staging and commit on the delta
// log, and an overlay lookup.
func (p *prober) delta() error {
	dev, err := flash.NewDevice(flashFor(1 << 15))
	if err != nil {
		return err
	}
	commitNs, lookupNs, err := p.deltaAccess(dev)
	if err != nil {
		return err // bare: derived from the hidden delta type
	}
	p.rep.set("delta.commit_ns", commitNs)
	p.rep.set("delta.lookup_ns", lookupNs)
	return nil
}

func (p *prober) deltaAccess(dev *flash.Device) (commitNs, lookupNs float64, err error) {
	const rowW, perCommit = 50, 20
	t, err := delta.NewTable(dev, rowW)
	if err != nil {
		return
	}
	rec := make([]byte, rowW)
	if commitNs, err = p.time("delta.Commit", 200, func(i int) error {
		for r := 0; r < perCommit; r++ {
			binary.BigEndian.PutUint32(rec, uint32(i))
			if err := t.StageUpsert(uint32(p.rng.Intn(20000)), rec); err != nil {
				return err
			}
		}
		return t.Commit()
	}); err != nil {
		return
	}
	lookupNs, err = p.time("delta.Lookup", 20000, func(int) error {
		t.Lookup(uint32(p.rng.Intn(20000)))
		return nil
	})
	return
}

// server times the line protocol's cost over the same statement in
// process: a result-cache hit both ways, so the difference is the
// server and the loopback socket. The engine is the tiny oltp fixture.
func (p *prober) server() error {
	fx, err := buildOLTP(true)
	if err != nil {
		return err
	}
	defer func() { _ = fx.close() }()
	st := stmt{kind: kSelect, sql: "SELECT id, week, value FROM Measurements WHERE id = 7"}
	if _, err := fx.client.do(st); err != nil { // fills the result cache
		return err
	}
	lat := func(name string, op func() error) (float64, error) {
		const n = 1500
		samples := make([]float64, 0, n)
		start := time.Now()
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := op(); err != nil {
				return 0, err
			}
			samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		p.spans.addCall("probe:"+name, start, time.Now())
		sort.Float64s(samples)
		return quantile(samples, 0.5), nil
	}
	ctx := context.Background()
	inProc, err := lat("exec.RunCtx(cached)", func() error {
		_, err := fx.db.RunCtx(ctx, st.sql, exec.QueryConfig{})
		return err
	})
	if err != nil {
		return err
	}
	overTCP, err := lat("server.QUERY(cached)", func() error {
		out, err := fx.client.do(st)
		if err == nil && !out.hit {
			err = fmt.Errorf("cached statement missed the result cache")
		}
		return err
	})
	if err != nil {
		return err
	}
	ping, err := lat("server.PING", func() error {
		_, err := fx.client.roundTrip("PING")
		return err
	})
	if err != nil {
		return err
	}
	p.rep.set("server.roundtrip_us", overTCP-inProc)
	p.rep.set("server.ping_us", ping)
	return nil
}
