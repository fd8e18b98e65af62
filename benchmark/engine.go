package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"ghostdb/internal/exec"
	"ghostdb/internal/flash"
	"ghostdb/internal/metrics"
	"ghostdb/internal/obs"
	"ghostdb/internal/ref"
	"ghostdb/internal/schema"
	"ghostdb/internal/server"
)

// dataSeed generates every workload's dataset. Only the statement
// stream follows --seed: over ten seeds the data's own variation (which
// ids are hot, how selective a literal is) moved the simulated cost per
// statement by 3-5% and host throughput by 8%, three times what the
// same seed shows from run to run, and a later change is judged against
// that spread.
const dataSeed = 1

// stmtKind classifies a statement for the ledger and the oracle.
type stmtKind int

const (
	kSelect stmtKind = iota
	kInsert
	kUpdate
	kDelete
	kCompact // the explicit db.Compact the runner issues every compactEvery writes
)

func (k stmtKind) String() string {
	return [...]string{"SELECT", "INSERT", "UPDATE", "DELETE", "COMPACT"}[k]
}

// stmt is one generated statement: its text, what the ledger and the
// oracle need to know about it, and (paperq only) the forced strategy.
type stmt struct {
	sql   string
	kind  stmtKind
	table int // a table of the statement's tree: routes the ledger to its token
	// scatter marks a SELECT over several trees: it runs one leg per
	// token, each uploading its own part of the query text.
	scatter bool
	cfg     exec.QueryConfig
	// ins mirrors an INSERT for the oracle (ref has no SQL front end for
	// inserts): the full row and its foreign keys.
	insRow schema.Row
	insFKs map[int]uint32
}

// stream yields the workload's statements; the sequence is a pure
// function of the seed it was built from.
type stream interface {
	next() stmt
}

// outcome is what one executed statement reported.
type outcome struct {
	// count is the result-row count of a SELECT (the counted value for
	// COUNT(*)), the affected-row count of an in-process UPDATE/DELETE,
	// and -1 when the transport does not report it (EXEC over TCP).
	count int64
	hit   bool // served by the result cache: no token work
	rows  []schema.Row
	wire  []string // TCP only: the ROW lines as received
	stats *exec.Stats
}

// fixture is one loaded engine with its oracle, as a workload's build
// function returns it. Everything build does counts as setup time.
type fixture struct {
	db     *exec.DB
	oracle *ref.Engine
	// client is the TCP connection of the server workload; nil runs
	// statements in process.
	client *lineClient
	srv    *server.Server
	// inProcess bypasses the client: the traced run compares a traced
	// and an untraced pass, and only in process can a statement carry a
	// trace.
	inProcess bool
	// userBytes is the encoded size of every loaded row (data columns
	// plus 4 bytes per foreign key); rowBytes gives the per-table row
	// size so inserts can be added to it.
	userBytes int64
	rowBytes  map[int]int
	// loadedPages is Σ PagesUsed over the tokens right after load — the
	// image the flash capacity is sized against.
	loadedPages int
	// setup is how long generating, loading, index building and server
	// start took; building the oracle is the benchmark's own cost and is
	// not part of it.
	setup time.Duration

	toks []*exec.Token // memoized by tokens()
}

// close stops the server side of a fixture (no-op in process).
func (fx *fixture) close() error {
	if fx.client != nil {
		fx.client.close()
	}
	if fx.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return fx.srv.Shutdown(ctx)
	}
	return nil
}

// tokens returns every secure token of the engine, shard order.
func (fx *fixture) tokens() []*exec.Token {
	if fx.toks != nil {
		return fx.toks
	}
	seen := map[*exec.Token]bool{}
	out := make([]*exec.Token, fx.db.Placement().Shards())
	for _, t := range fx.db.Sch.Tables {
		tok := fx.db.TokenOf(t.Index)
		if !seen[tok] {
			seen[tok] = true
			out[tok.TokenID()] = tok
		}
	}
	// A token with no tree placed on it never runs a session; drop it.
	for _, t := range out {
		if t != nil {
			fx.toks = append(fx.toks, t)
		}
	}
	return fx.toks
}

// flashBytesInUse is Σ mapped pages × page size over the tokens.
func (fx *fixture) flashBytesInUse() int64 {
	var n int64
	for _, t := range fx.tokens() {
		n += int64(t.Dev.PagesUsed()) * int64(t.Dev.PageSize())
	}
	return n
}

// indexPages is the flash footprint of every token's index catalog.
func (fx *fixture) indexPages() int {
	n := 0
	for _, t := range fx.tokens() {
		n += t.Cat.Storage().Total()
	}
	return n
}

// setAudit switches every token's uplink audit trail on (full) or off.
func (fx *fixture) setAudit(on bool) {
	limit := -1
	if on {
		limit = 0
	}
	for _, t := range fx.tokens() {
		t.Bus.SetAuditLimit(limit)
	}
}

// run executes one statement through the workload's transport. A trace
// can only be attached in process (the line protocol has no channel for
// one).
func (fx *fixture) run(ctx context.Context, st stmt, tr *obs.Trace) (outcome, error) {
	if st.kind == kCompact {
		return outcome{count: -1}, fx.db.Compact(ctx)
	}
	if fx.client != nil && !fx.inProcess {
		return fx.client.do(st)
	}
	cfg := st.cfg
	cfg.Trace = tr
	res, err := fx.db.RunCtx(ctx, st.sql, cfg)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{rows: res.Rows, stats: &res.Stats, hit: res.Stats.CacheHit || res.Stats.CacheShared}
	switch st.kind {
	case kSelect:
		out.count = int64(len(res.Rows))
		if len(res.Columns) == 1 && res.Columns[0] == "count(*)" && len(res.Rows) == 1 {
			out.count = res.Rows[0][0].I
		}
	case kUpdate, kDelete:
		out.count = res.Rows[0][0].I
	}
	return out, nil
}

// sample is the exact cost of some executed work under the Table 1
// model: the metered flash and bus counters plus the simulated time
// they price to.
type sample struct {
	metrics.Sample
	sim time.Duration
}

func (s *sample) add(o sample) {
	s.Sample = s.Sample.Add(o.Sample)
	s.sim += o.sim
}

// ledger derives each statement's exact flash and bus counters from
// outside the engine, with one client: SELECT/UPDATE/DELETE/COMPACT
// sessions zero their token's counters when they start, so what the
// device reads afterwards is that statement's own I/O; INSERT does not,
// so its I/O is the difference to the previous reading; a result-cache
// hit touches no token. With concurrent clients the readings would
// interleave, which is why only the one-client workloads use it.
type ledger struct {
	fx    *fixture
	model metrics.Model
	mbps  float64
	last  map[*exec.Token]metrics.Sample
	comps map[*exec.Token]uint64
}

func newLedger(fx *fixture) *ledger {
	l := &ledger{fx: fx, model: fx.db.Options().Model, mbps: fx.db.Options().ThroughputMBps,
		last: map[*exec.Token]metrics.Sample{}, comps: map[*exec.Token]uint64{}}
	for _, t := range fx.tokens() {
		l.last[t] = readToken(t)
		l.comps[t] = t.Compactions()
	}
	return l
}

func readToken(t *exec.Token) metrics.Sample {
	down, up := t.Bus.Counters()
	return metrics.Sample{Flash: t.Dev.Counters(), BusDown: down, BusUp: up}
}

// note returns the cost of the statement that just completed.
func (l *ledger) note(st stmt, out outcome) sample {
	var s metrics.Sample
	switch {
	case st.kind == kCompact:
		for _, t := range l.fx.tokens() {
			if c := t.Compactions(); c != l.comps[t] {
				l.comps[t] = c
				cur := readToken(t)
				s = s.Add(cur)
				l.last[t] = cur
			}
		}
	case out.hit:
	default:
		t := l.fx.db.TokenOf(st.table)
		cur := readToken(t)
		if st.kind == kInsert {
			s = cur.Sub(l.last[t])
		} else {
			s = cur
		}
		l.last[t] = cur
	}
	return sample{Sample: s, sim: l.model.Time(s, l.mbps)}
}

// lineClient is a minimal client of internal/server's line protocol.
type lineClient struct {
	conn net.Conn
	in   *bufio.Reader
	out  *bufio.Writer
}

func dialLine(addr string) (*lineClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &lineClient{conn: conn, in: bufio.NewReaderSize(conn, 64<<10), out: bufio.NewWriter(conn)}, nil
}

func (c *lineClient) close() {
	// Best-effort goodbye; the server closes idle clients on shutdown anyway.
	_, _ = c.roundTrip("QUIT")
	_ = c.conn.Close()
}

// roundTrip sends one command line and reads the response up to its
// OK/ERR terminator, returning the lines before it and the terminator.
func (c *lineClient) roundTrip(line string) ([]string, error) {
	if _, err := c.out.WriteString(line + "\n"); err != nil {
		return nil, err
	}
	if err := c.out.Flush(); err != nil {
		return nil, err
	}
	var lines []string
	for {
		l, err := c.in.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("read response: %w", err)
		}
		l = strings.TrimRight(l, "\r\n")
		lines = append(lines, l)
		if strings.HasPrefix(l, "OK") {
			return lines, nil
		}
		if strings.HasPrefix(l, "ERR") {
			return lines, errors.New(l)
		}
	}
}

// do runs one statement over the wire: QUERY for SELECT, EXEC otherwise.
func (c *lineClient) do(st stmt) (outcome, error) {
	verb := "EXEC "
	if st.kind == kSelect {
		verb = "QUERY "
	}
	lines, err := c.roundTrip(verb + st.sql)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{count: -1}
	if st.kind != kSelect {
		return out, nil
	}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "ROW\t"); ok {
			out.wire = append(out.wire, rest)
		}
	}
	for _, f := range strings.Fields(lines[len(lines)-1]) {
		if v, ok := strings.CutPrefix(f, "rows="); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return outcome{}, fmt.Errorf("bad OK line %q: %w", lines[len(lines)-1], err)
			}
			out.count = n
		}
		if f == "cache=hit" || f == "cache=shared" {
			out.hit = true
		}
	}
	if out.count != int64(len(out.wire)) {
		return outcome{}, fmt.Errorf("server said rows=%d but sent %d ROW lines", out.count, len(out.wire))
	}
	return out, nil
}

// wireRow renders an oracle row the way the server renders a result
// row (server.renderValue): char values Go-quoted, numerics plain.
func wireRow(row schema.Row) string {
	f := make([]string, len(row))
	for i, v := range row {
		if v.Kind == schema.KindChar {
			f[i] = strconv.Quote(v.S)
		} else {
			f[i] = v.String()
		}
	}
	return strings.Join(f, "\t")
}

// flashFor returns the Table 1 geometry with user capacity for at
// least the given number of pages. How many pages a workload gets is
// part of its definition: twice the loaded image where the device may
// fill (on a device sized far above its image the FTL log grows the Go
// heap towards device capacity and host time swings 3x between rounds),
// the image plus one epoch's writes where it must not (closedDef.epoch).
func flashFor(pages int) flash.Params {
	p := flash.DefaultParams()
	p.Blocks = (pages+p.PagesPerBlock-1)/p.PagesPerBlock + p.ReserveBlocks
	return p
}
