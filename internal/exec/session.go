package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"ghostdb/internal/bus"
	"ghostdb/internal/metrics"
	"ghostdb/internal/obs"
	"ghostdb/internal/ram"
	"ghostdb/internal/sched"
)

// session is one statement's admitted hold on its token: the scheduler
// session (grant, queue wait, execution slot), the exec span its work
// nests under and the admission floor its Stats report. db.admit is the
// only way onto a token and end the only way off; meter is the only
// metered step, and a SELECT's operators run inside it as stages
// (queryRun.stage). Every statement kind — SELECT (one per scatter leg),
// UPDATE/DELETE, INSERT and compaction — goes through them.
type session struct {
	db      *DB
	tok     *Token
	sess    *sched.Session
	span    *obs.Span
	planMin int
}

// admit queues req on tok's FIFO scheduler under an "admission" span,
// then opens the session's "exec" span. The caller must end the session.
// A failure is counted per shard as a clean up-front denial (plan floor
// over budget, tagged ErrBudgetTooSmall so callers can tell it from a
// mid-run exhaustion) or a load shed (predicted wait over the bound).
func (db *DB) admit(ctx context.Context, tok *Token, req sched.Request, parent *obs.Span) (session, error) {
	admSp := parent.Start("admission")
	sess, err := tok.sched.Acquire(ctx, req)
	admSp.End()
	switch {
	case errors.Is(err, sched.ErrNeverAdmissible):
		db.inst.rejections[tok.id].Inc()
		return session{}, fmt.Errorf("%w: %w", ErrBudgetTooSmall, err)
	case errors.Is(err, sched.ErrOverloaded):
		db.inst.sheds[tok.id].Inc()
	}
	if err != nil {
		return session{}, err
	}
	sp := parent.Start("exec")
	sp.SetNote(fmt.Sprintf("token %d, grant %d buffers", tok.id, sess.Buffers()))
	return session{db: db, tok: tok, sess: sess, span: sp, planMin: req.MinBuffers}, nil
}

// end closes the exec span and returns the grant.
func (s *session) end() {
	s.span.End()
	s.sess.Release()
}

// meter runs body as the session's metered statement. It zeroes the
// token's counters under a fresh collector (the slot is exclusively
// ours, so the collector's spans see only this statement's I/O) and
// uploads text — the only thing that ever leaves the secure perimeter
// (§1: "the only information revealed to a potential spy is which
// queries you pose"); compaction has none. After body it builds the
// session's Stats from the counters, hangs the per-operator costs under
// the exec span as sim-only children that sum to SimTime (the EXPLAIN
// ANALYZE contract), books the Stats into the token's totals and, in
// paced mode (Options.PaceSimulation), holds the slot for a real-time
// shadow of the simulated cost under a "pace" span.
//
//ghostdb:requires-slot
func (s *session) meter(text string, body func(col *metrics.Collector) error) (Stats, error) {
	db, tok := s.db, s.tok
	// The collector snapshots the link speed at construction: a
	// SetThroughput call during the run applies to later sessions only,
	// so this statement's CommTime is computed against one speed.
	col := metrics.NewCollector(tok.Dev, tok.Bus, db.opts.Model)
	col.Reset()
	if text != "" {
		if err := col.Span(spanBus, func() error {
			return tok.Bus.Transfer(bus.Up, "query", len(text), text)
		}); err != nil {
			return Stats{}, err
		}
	}
	if err := body(col); err != nil {
		return Stats{}, err
	}
	down, up := tok.Bus.Counters()
	total := metrics.Sample{Flash: tok.Dev.Counters(), BusDown: down, BusUp: up}
	st := Stats{
		IOTime:         db.opts.Model.IOTime(total),
		CommTime:       db.opts.Model.CommTime(total, col.ThroughputMBps()),
		Ops:            col.Ops(),
		Flash:          total.Flash,
		BusDown:        down,
		BusUp:          up,
		RAMHigh:        s.sess.RAM().HighWater(),
		QueueWait:      s.sess.QueueWait(),
		PlanMinBuffers: s.planMin,
		GrantBuffers:   s.sess.Buffers(),
		Shard:          tok.id,
	}
	st.SimTime = st.IOTime + st.CommTime
	tok.mergeTotals(st)
	if sp := s.span; sp != nil {
		for _, op := range st.Ops {
			sp.Add(op.Name, op.Sim)
		}
		sp.SetSim(st.SimTime)
	}
	if db.opts.PaceSimulation > 0 {
		sp := s.span.Start("pace")
		tok.pace(time.Duration(float64(st.SimTime) / db.opts.PaceSimulation))
		sp.End()
	}
	return st, nil
}

// stage runs one operator step: it opens the operator's cost span, takes
// the step's claims in one ram.Plan (no plan at all when there are
// none), runs run with that reservation and, on every exit path, returns
// the claims and closes the span. Every page an operator reads, writes or
// ships, stream opens and seals included, moves inside one of its stages,
// so the operators' samples add up to the statement's counters. A stage
// may nest another (a reduction pass inside a column sort); the inner
// one is charged its own I/O.
func (r *queryRun) stage(name string, claims []ram.Claim, run func(*ram.Reservation) error) error {
	return r.col.Span(name, func() error {
		if len(claims) == 0 {
			return run(nil)
		}
		resv, err := r.ram.Plan(claims...)
		if err != nil {
			names := make([]string, len(claims))
			for i, c := range claims {
				names[i] = c.Name
			}
			return fmt.Errorf("exec: %s claims %s: %w", name, strings.Join(names, ", "), err)
		}
		defer resv.Release()
		return run(resv)
	})
}
