package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"ghostdb"
	"ghostdb/internal/datagen"
	"ghostdb/internal/ref"
	"ghostdb/internal/schema"
	"ghostdb/internal/server"
)

// oltp-server: short statements through internal/server's TCP line
// protocol on loopback, one connection, over the ghostdb-server demo
// schema (Doctors / Patients / Measurements plus the independent
// AuditLog tree) loaded with the public ghostdb.Loader on two tokens.
// The result cache (256 KB) and the page cache (1 MB) are both smaller
// than the result bytes of the Zipf tail, so eviction runs; the
// measured hit rates are per-layer metrics. The mirror image of paperq:
// parse, resolve, plan, the two caches and the server dominate.
//
//	60%  Zipf(1.1) id lookups on Measurements
//	20%  Patients-Doctors selections on a Zipf-drawn hidden literal
//	 5%  AuditLog selections on a Zipf-drawn hidden literal (the entries
//	     the INSERTs invalidate; the issue's mix had no AuditLog reads,
//	     which would have left that shard's invalidation unobservable)
//	10%  Measurements-Patients joins over 8 repeated visible predicates
//	     with a uniform hidden literal: page-cache hits under
//	     result-cache misses
//	 4%  INSERT into AuditLog (invalidates only its shard)
//	 1%  hidden UPDATE on Patients
//
// Automatic compaction is off and the runner compacts after every 64
// UPDATEs, so no background session races the one client and the exact
// counters stay exact.
//
// Sizing at scale 0.02: 90 doctors, 280 patients, 26 000 measurements,
// 800 audit rows, 501 flash pages loaded over the two tokens. INSERTs
// and delta commits leave long-lived pages between the spools, so the
// engine is renewed every 16 000 statements and each device holds the
// image plus twice what an epoch was measured to program (4.8 pages per
// statement); see closedDef.epoch.
const (
	oltpScale       = 0.02
	oltpDevicePages = 600 + 2*5*16000
	oltpTinyScale   = 0.002
	oltpEpoch       = 16000
	oltpResultKB    = 256
	oltpPageKB      = 1024
)

var oltpDDL = []string{
	`CREATE TABLE Doctors (id int, name char(10) HIDDEN, specialty char(10))`,
	`CREATE TABLE Patients (id int, doctor_id int REFERENCES Doctors HIDDEN,
	   zipcode char(10), diagnosis char(10) HIDDEN)`,
	`CREATE TABLE Measurements (id int, patient_id int REFERENCES Patients HIDDEN,
	   week char(10), value float HIDDEN)`,
	`CREATE TABLE AuditLog (id int, day char(10), event char(10) HIDDEN)`,
}

// oltpCards returns the demo cardinalities at a scale factor (the
// ghostdb-server demo's ratios and floors).
func oltpCards(sf float64) (doc, pat, meas, audit int) {
	scaled := func(full, floor int) int {
		return max(int(float64(full)*sf), floor)
	}
	return scaled(4500, 15), scaled(14000, 45), scaled(1_300_000, 400), scaled(40_000, 60)
}

// rowWidths returns each table's encoded row size: the data columns
// plus 4 bytes per foreign key.
func rowWidths(sch *schema.Schema) map[int]int {
	out := map[int]int{}
	for _, t := range sch.Tables {
		w := 4 * len(t.Refs)
		for _, c := range t.Columns {
			w += c.EncodedWidth()
		}
		out[t.Index] = w
	}
	return out
}

func buildOLTP(tiny bool) (*fixture, error) {
	sf := oltpScale
	if tiny {
		sf = oltpTinyScale
	}
	start := time.Now()
	db, err := ghostdb.Create(oltpDDL, ghostdb.Options{
		FlashBlocks:      flashFor(oltpDevicePages).Blocks,
		Shards:           2,
		ResultCacheBytes: oltpResultKB << 10,
		PageCacheBytes:   oltpPageKB << 10,
		BusAuditEntries:  -1,
		CompactThreshold: -1,
	})
	if err != nil {
		return nil, err
	}
	inner := db.Internal()
	sch := inner.Sch
	nDoc, nPat, nMeas, nAudit := oltpCards(sf)
	rng := rand.New(rand.NewSource(dataSeed))
	pad := func() string { return datagen.PadValue(rng.Intn(datagen.Domain)) }

	// Every row goes to the loader and, mirrored, to the oracle.
	ld := db.Loader()
	mirror := map[string][]schema.Row{}
	fks := map[string][]uint32{}
	appendRow := func(table string, r ghostdb.R, row schema.Row) error {
		mirror[table] = append(mirror[table], row)
		return ld.Append(table, r)
	}
	for i := 0; i < nDoc; i++ {
		name, spec := pad(), pad()
		if err := appendRow("Doctors", ghostdb.R{"name": name, "specialty": spec},
			schema.Row{schema.CharVal(name), schema.CharVal(spec)}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nPat; i++ {
		doc, zip, diag := rng.Intn(nDoc), pad(), pad()
		fks["Patients"] = append(fks["Patients"], uint32(doc))
		if err := appendRow("Patients", ghostdb.R{"doctor_id": doc, "zipcode": zip, "diagnosis": diag},
			schema.Row{schema.CharVal(zip), schema.CharVal(diag)}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nMeas; i++ {
		pat, week, val := rng.Intn(nPat), pad(), float64(rng.Intn(datagen.Domain))
		fks["Measurements"] = append(fks["Measurements"], uint32(pat))
		if err := appendRow("Measurements", ghostdb.R{"patient_id": pat, "week": week, "value": val},
			schema.Row{schema.CharVal(week), schema.FloatVal(val)}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nAudit; i++ {
		day, event := pad(), pad()
		if err := appendRow("AuditLog", ghostdb.R{"day": day, "event": event},
			schema.Row{schema.CharVal(day), schema.CharVal(event)}); err != nil {
			return nil, err
		}
	}
	if err := ld.Commit(); err != nil {
		return nil, err
	}

	srv := server.New(db, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		// Serve returns nil after Shutdown; an accept error surfaces as a
		// failed dial or a failed statement in the client.
		_ = srv.Serve(ln)
	}()
	client, err := dialLine(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	fx := &fixture{db: inner, client: client, srv: srv, rowBytes: rowWidths(sch), setup: time.Since(start)}

	orc := ref.New(sch)
	for _, t := range sch.Tables {
		tfks := map[int][]uint32{}
		for _, c := range t.Children() {
			tfks[c] = fks[t.Name]
		}
		orc.Load(t.Index, mirror[t.Name], tfks)
		fx.userBytes += int64(fx.rowBytes[t.Index]) * int64(len(mirror[t.Name]))
	}
	fx.oracle = orc
	for _, t := range fx.tokens() {
		fx.loadedPages += t.Dev.PagesUsed()
	}
	return fx, nil
}

// oltpStream draws the mix above from one seeded generator.
type oltpStream struct {
	rng      *rand.Rand
	idZipf   *rand.Zipf
	litZipf  *rand.Zipf
	meas     int // Measurements / Patients / AuditLog table indexes
	pat      int
	audit    int
	visPreds []string
}

func newOLTPStream(seed int64, fx *fixture) stream {
	rng := rand.New(rand.NewSource(seed ^ 0x6f6c7470)) // decorrelate from the data generator
	sch := fx.db.Sch
	meas, _ := sch.Lookup("Measurements")
	pat, _ := sch.Lookup("Patients")
	audit, _ := sch.Lookup("AuditLog")
	s := &oltpStream{rng: rng, meas: meas.Index, pat: pat.Index, audit: audit.Index,
		idZipf:  rand.NewZipf(rng, 1.1, 1, uint64(fx.db.Rows(meas.Index)-1)),
		litZipf: rand.NewZipf(rng, 1.1, 1, datagen.Domain-11),
	}
	for i := 1; i <= 8; i++ {
		s.visPreds = append(s.visPreds, datagen.SelValue(0.005*float64(i)))
	}
	return s
}

func (s *oltpStream) next() stmt {
	lit := func() string { return datagen.PadValue(10 + int(s.litZipf.Uint64())) }
	switch u := s.rng.Float64(); {
	case u < 0.60:
		return stmt{kind: kSelect, table: s.meas, sql: fmt.Sprintf(
			"SELECT id, week, value FROM Measurements WHERE id = %d", s.idZipf.Uint64())}
	case u < 0.80:
		return stmt{kind: kSelect, table: s.pat, sql: fmt.Sprintf(
			"SELECT Patients.id, Patients.zipcode, Doctors.specialty FROM Patients, Doctors "+
				"WHERE Patients.doctor_id = Doctors.id AND Patients.diagnosis < '%s'", lit())}
	case u < 0.85:
		return stmt{kind: kSelect, table: s.audit, sql: fmt.Sprintf(
			"SELECT id, day FROM AuditLog WHERE event < '%s'", lit())}
	case u < 0.95:
		return stmt{kind: kSelect, table: s.meas, sql: fmt.Sprintf(
			"SELECT Measurements.id, Measurements.week, Patients.zipcode FROM Measurements, Patients "+
				"WHERE Measurements.patient_id = Patients.id AND Patients.zipcode < '%s' AND Patients.diagnosis < '%s'",
			s.visPreds[s.rng.Intn(len(s.visPreds))], datagen.PadValue(50+s.rng.Intn(250)))}
	case u < 0.99:
		day, event := datagen.PadValue(s.rng.Intn(datagen.Domain)), datagen.PadValue(s.rng.Intn(datagen.Domain))
		return stmt{kind: kInsert, table: s.audit,
			sql:    fmt.Sprintf("INSERT INTO AuditLog VALUES ('%s', '%s')", day, event),
			insRow: schema.Row{schema.CharVal(day), schema.CharVal(event)}}
	default:
		lo := s.rng.Intn(datagen.Domain - 5)
		return stmt{kind: kUpdate, table: s.pat, sql: fmt.Sprintf(
			"UPDATE Patients SET diagnosis = '%s' WHERE Patients.diagnosis BETWEEN '%s' AND '%s'",
			datagen.PadValue(s.rng.Intn(datagen.Domain)), datagen.PadValue(lo), datagen.PadValue(lo+5))}
	}
}

var oltpDef = closedDef{
	name:         "oltp-server",
	build:        buildOLTP,
	newStream:    newOLTPStream,
	chunk:        250,
	compactEvery: 64,
	epoch:        oltpEpoch,
}

func runOLTPServer(rc runConfig) (*report, error) { return runClosed(oltpDef, rc) }
