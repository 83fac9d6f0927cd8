package proxy

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"qosres/internal/broker"
	"qosres/internal/topo"
	"qosres/internal/transport"
	"qosres/internal/wal"
)

// This file wires the write-ahead log through the 2PC paths and owns
// crash recovery:
//
//   - Participants journal prepare/commit/abort from their handlers, in
//     the order the book mutates, so log order matches commit order.
//   - The coordinator journals its commit point (a decide record) before
//     any participant learns of it: recovery presumes abort for a
//     prepare with no decide record.
//   - A session's reservationSet journals its lease renewals, releases
//     and shrinks itself, one record per share (request ID and host) —
//     each host's replay is self-contained.
//   - replayHost rebuilds one host's book from the log. Recover runs it
//     for every host of a dead process; CrashRestart runs it for a
//     single host while the rest of the runtime keeps serving,
//     reconciling in-doubt prepares against coordinator outcome tables
//     over the fabric.

// msgOutcome asks a coordinator whether a request ID reached its commit
// point; recovering participants send it to resolve in-doubt prepares.
const msgOutcome = "outcome"

// reconcileTimeout bounds each recovery outcome query over the fabric.
const reconcileTimeout = 250 * time.Millisecond

type outcomeRequest struct {
	id string
}

type outcomeReply struct {
	commit bool
	expiry broker.Time
}

// CloseWAL flushes and closes the write-ahead log; call after Stop when
// the process is done with the runtime. Safe when durability is off.
func (rt *Runtime) CloseWAL() error {
	if rt.wal == nil {
		return nil
	}
	return rt.wal.Close()
}

// CheckpointWAL compacts the log: the live book state — every pending
// entry on every host plus the coordinator decide table — is rewritten
// as a fresh snapshot segment and older segments are pruned, so replay
// cost tracks live state, not history. The pending tables are owned by
// the serve goroutines, so checkpointing requires a stopped (or
// not-yet-started) runtime — e.g. right after Recover, before Start.
func (rt *Runtime) CheckpointWAL() error {
	if rt.wal == nil {
		return errors.New("proxy: WAL not enabled")
	}
	rt.mu.Lock()
	started := rt.started
	proxies := make([]*QoSProxy, 0, len(rt.proxies))
	for _, p := range rt.proxies {
		proxies = append(proxies, p)
	}
	rt.mu.Unlock()
	if started {
		return errors.New("proxy: CheckpointWAL requires a stopped runtime")
	}
	var snap []wal.Record
	for _, p := range proxies {
		host := string(p.host)
		for _, id := range p.order {
			st, ok := p.pending[id]
			if !ok {
				continue
			}
			switch {
			case st.aborted:
				snap = append(snap, wal.Record{Type: wal.TypeAbort, Host: host, ID: id})
			case st.res == nil:
				// A refused prepare: never journaled, nothing to keep.
			default:
				exports := st.res.Export()
				if len(exports) == 0 {
					// Committed and released: keep the outcome (an empty
					// committed entry) so duplicate commits stay idempotent.
					snap = append(snap,
						wal.Record{Type: wal.TypePrepare, Host: host, ID: id},
						wal.Record{Type: wal.TypeCommit, Host: host, ID: id},
						wal.Record{Type: wal.TypeRelease, Host: host, ID: id})
					continue
				}
				expiry := exports[0].Expiry
				snap = append(snap, wal.Record{Type: wal.TypePrepare, Host: host, ID: id,
					Expiry: float64(expiry), Parts: partsFromExports(exports)})
				if st.committed {
					snap = append(snap, wal.Record{Type: wal.TypeCommit, Host: host, ID: id,
						Expiry: float64(expiry)})
				}
			}
		}
	}
	rt.decideMu.Lock()
	for id, exp := range rt.decided {
		host, ok := coordinatorOf(id)
		if !ok {
			continue
		}
		snap = append(snap, wal.Record{Type: wal.TypeDecide, Host: string(host), ID: id,
			Outcome: "commit", Expiry: float64(exp)})
	}
	rt.decideMu.Unlock()
	return rt.wal.Checkpoint(snap)
}

// appendWAL journals one record and counts it. A no-op when durability
// is off.
func (rt *Runtime) appendWAL(rec wal.Record) error {
	if rt.wal == nil {
		return nil
	}
	if err := rt.wal.Append(rec); err != nil {
		return err
	}
	rt.walMetrics.Appends.Inc()
	return nil
}

// recordDecide journals the coordinator's commit point for a request —
// appended and fsynced BEFORE the commit fan-out — and remembers it in
// the in-memory decide table that answers recovery outcome queries. A
// failed append means the decision is not durable: the table forgets it
// and the caller must abort, never commit — after a crash, recovery
// would presume abort and free holds the client was told it owns.
func (rt *Runtime) recordDecide(main topo.HostID, id string, expiry broker.Time) error {
	if rt.wal == nil {
		return nil
	}
	rt.decideMu.Lock()
	rt.decided[id] = expiry
	rt.decideMu.Unlock()
	err := rt.appendWAL(wal.Record{Type: wal.TypeDecide, Host: string(main), ID: id,
		Outcome: "commit", Expiry: float64(expiry)})
	if err != nil {
		rt.decideMu.Lock()
		delete(rt.decided, id)
		rt.decideMu.Unlock()
		return fmt.Errorf("proxy: journal commit decision %s: %w", id, err)
	}
	return nil
}

// lookupOutcome answers an outcome query from the decide table: absent
// means the commit point was never journaled — presumed abort.
func (rt *Runtime) lookupOutcome(id string) outcomeReply {
	rt.decideMu.Lock()
	defer rt.decideMu.Unlock()
	if exp, ok := rt.decided[id]; ok {
		return outcomeReply{commit: true, expiry: exp}
	}
	return outcomeReply{}
}

// handleOutcome serves msgOutcome for recovering participants.
func (p *QoSProxy) handleOutcome(req outcomeRequest) outcomeReply {
	return p.rt.lookupOutcome(req.id)
}

// logRecord journals one participant record, stamped with this proxy's
// host. A no-op when durability is off.
func (p *QoSProxy) logRecord(rec wal.Record) error {
	rec.Host = string(p.host)
	return p.rt.appendWAL(rec)
}

// partsFromReservation flattens a prepared multi-reservation's holds
// into journalable parts.
func partsFromReservation(res *broker.MultiReservation) []wal.Part {
	if res == nil {
		return nil
	}
	return partsFromExports(res.Export())
}

func partsFromExports(exs []broker.HoldExport) []wal.Part {
	out := make([]wal.Part, len(exs))
	for i, ex := range exs {
		p := wal.Part{Resource: ex.Resource, ID: uint64(ex.ID), Amount: ex.Amount}
		for _, l := range ex.Links {
			p.Links = append(p.Links, wal.Link{Resource: l.Resource, ID: uint64(l.ID)})
		}
		out[i] = p
	}
	return out
}

func exportsFromParts(parts []wal.Part, expiry broker.Time) []broker.HoldExport {
	out := make([]broker.HoldExport, len(parts))
	for i, p := range parts {
		ex := broker.HoldExport{Resource: p.Resource, ID: broker.ReservationID(p.ID),
			Amount: p.Amount, Expiry: expiry}
		for _, l := range p.Links {
			ex.Links = append(ex.Links, broker.LinkExport{Resource: l.Resource, ID: broker.ReservationID(l.ID)})
		}
		out[i] = ex
	}
	return out
}

// HoldExports snapshots the session's live holds in journalable form;
// nil once the session is no longer active.
func (s *Session) HoldExports() []broker.HoldExport {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateActive || s.reservation == nil {
		return nil
	}
	return s.reservation.exports()
}

// coordinatorOf parses the coordinating host out of a request ID
// ("<mainHost>#<n>", minted by commitPlan).
func coordinatorOf(id string) (topo.HostID, bool) {
	i := strings.IndexByte(id, '#')
	if i <= 0 {
		return "", false
	}
	return topo.HostID(id[:i]), true
}

// replayEntry is the per-request state reduced from one host's records.
type replayEntry struct {
	id    string
	parts []wal.Part
	// seen accumulates every part any prepare or shrink record named,
	// for ID retirement and the stranded-link cleanup in replayHost.
	seen      []wal.Part
	expiry    broker.Time
	committed bool
	aborted   bool
	released  bool
}

// reduceHost folds the log into per-request entries for one host, in
// first-appearance order, plus the host's journaled commit decisions
// and the number of records consumed.
func reduceHost(records []wal.Record, host string) (entries []*replayEntry, decided map[string]broker.Time, matched int) {
	byID := make(map[string]*replayEntry)
	decided = make(map[string]broker.Time)
	get := func(id string) *replayEntry {
		e, ok := byID[id]
		if !ok {
			e = &replayEntry{id: id}
			byID[id] = e
			entries = append(entries, e)
		}
		return e
	}
	for _, rec := range records {
		if rec.Host != host {
			continue
		}
		matched++
		switch rec.Type {
		case wal.TypeDecide:
			if rec.Outcome == "commit" {
				decided[rec.ID] = broker.Time(rec.Expiry)
			}
		case wal.TypePrepare:
			e := get(rec.ID)
			e.parts = rec.Parts
			e.seen = append(e.seen, rec.Parts...)
			e.expiry = broker.Time(rec.Expiry)
		case wal.TypeCommit:
			e := get(rec.ID)
			e.committed = true
			e.expiry = broker.Time(rec.Expiry)
		case wal.TypeAbort:
			e := get(rec.ID)
			e.aborted = true
			e.committed = false
			e.parts = nil
		case wal.TypeLease:
			if e, ok := byID[rec.ID]; ok && !e.aborted && !e.released {
				e.expiry = broker.Time(rec.Expiry)
			}
		case wal.TypeShrink:
			// A mid-session downgrade: the record carries the holds that
			// survived the shrink, replacing the prepare's parts whole. A
			// shrink that left nothing on this host reads as a release so
			// replay keeps an idempotent committed entry instead of
			// restoring phantom holds.
			if e, ok := byID[rec.ID]; ok && !e.aborted && !e.released {
				e.parts = rec.Parts
				e.seen = append(e.seen, rec.Parts...)
				if len(rec.Parts) == 0 {
					e.released = true
				}
			}
		case wal.TypeRelease:
			if e, ok := byID[rec.ID]; ok {
				e.released = true
			}
		}
	}
	return entries, decided, matched
}

// replayHost rebuilds one host from the log — the single replay routine
// behind Recover and CrashRestart. It reduces the host's records, merges
// its commit decisions into the decide table (keeping any decision
// already there), counts the records replayed, and restores the
// idempotency table and broker books with the exact pre-crash hold IDs.
// Must run while the host's serve goroutine is down. Returns the
// in-doubt request IDs, in log order: prepared, never committed, never
// aborted.
func (rt *Runtime) replayHost(p *QoSProxy, records []wal.Record, now broker.Time) (indoubt []string, err error) {
	entries, decided, matched := reduceHost(records, string(p.host))
	rt.decideMu.Lock()
	for id, exp := range decided {
		if _, ok := rt.decided[id]; !ok {
			rt.decided[id] = exp
		}
	}
	rt.decideMu.Unlock()
	rt.walMetrics.ReplayRecords.Add(float64(matched))
	resolve := func(r string) (broker.Broker, bool) {
		b, ok := p.brokers[r]
		return b, ok
	}
	for _, e := range entries {
		switch {
		case e.aborted:
			p.pending[e.id] = &prepState{aborted: true}
		case e.released:
			// Committed and cleanly torn down: the holds are gone. Keep a
			// committed entry owning an empty reservation so a duplicate
			// commit still answers idempotently.
			p.pending[e.id] = &prepState{res: &broker.MultiReservation{}, committed: true}
		case len(e.parts) == 0:
			// Commit or lease records without a prepare (lost to a torn
			// tail before this checkpoint): nothing restorable.
			continue
		default:
			res, rerr := broker.RestoreMulti(now, resolve, exportsFromParts(e.parts, e.expiry), e.expiry > 0)
			if rerr != nil {
				return nil, rerr
			}
			p.pending[e.id] = &prepState{res: res, committed: e.committed}
			if !e.committed {
				indoubt = append(indoubt, e.id)
			}
		}
		p.order = append(p.order, e.id)
	}
	// Retire every ID the log names before serving, so a fresh process
	// never reuses one. Then free stranded link holds: a release or
	// shrink that raced the crash found its network-level hold wiped and
	// journaled a teardown it never carried out on the links, which live
	// outside the host and survived. Replay restored no owner for them.
	for _, e := range entries {
		for _, ex := range exportsFromParts(e.seen, 0) {
			switch b := p.brokers[ex.Resource].(type) {
			case *broker.Local:
				b.RetireID(ex.ID)
			case *broker.Network:
				b.RetireIDs(ex)
				if len(ex.Links) > 0 {
					b.ReleaseStranded(now, ex)
				}
			}
		}
	}
	return indoubt, nil
}

// resolveInDoubt applies one reconciliation answer: a journaled commit
// decision re-arms the lease and commits the entry; no decision is
// presumed abort and releases the restored holds. The resolution is
// itself journaled so a second crash does not re-raise the doubt.
// Returns the outcome label for metrics.
func (rt *Runtime) resolveInDoubt(p *QoSProxy, st *prepState, id string, now broker.Time, rep outcomeReply) string {
	// A resolution record that fails to append re-raises the same doubt
	// after the next crash, where it resolves the same way.
	record := func(rec wal.Record) { _ = p.logRecord(rec) }
	if rep.commit {
		if st.res != nil {
			if err := st.res.SetLease(rep.expiry); err != nil {
				// The lease lapsed and was swept between prepare and this
				// resolution: the holds are gone, the admission is lost.
				st.aborted = true
				st.committed = false
				st.res = nil
				record(wal.Record{Type: wal.TypeAbort, ID: id})
				return "abort"
			}
		}
		st.committed = true
		record(wal.Record{Type: wal.TypeCommit, ID: id, Expiry: float64(rep.expiry)})
		return "commit"
	}
	st.aborted = true
	st.committed = false
	if st.res != nil {
		_ = st.res.Release(now)
		st.res = nil
	}
	record(wal.Record{Type: wal.TypeAbort, ID: id})
	return "abort"
}

// recoverySweep expires leases that lapsed while the host was down —
// exactly once, before the recovered proxy serves any new admission.
// Network books sweep first (releasing their surviving link holds),
// then locals, mirroring Pool.ExpireLeases.
func recoverySweep(now broker.Time, brokers map[string]broker.Broker) int {
	n := 0
	for _, b := range brokers {
		if nb, ok := b.(*broker.Network); ok {
			n += nb.ExpireLeases(now)
		}
	}
	for _, b := range brokers {
		if lb, ok := b.(*broker.Local); ok {
			n += lb.ExpireLeases(now)
		}
	}
	return n
}

// reconcile resolves a recovered host's in-doubt prepares against their
// coordinators' outcome tables (locally when this host coordinated the
// request or fabric is nil, over the fabric otherwise), then sweeps the
// leases that lapsed while the host was down. An unreachable
// coordinator leaves the prepare in doubt: its restored lease keeps the
// holds reclaimable by the ordinary sweep, so nothing leaks even if no
// answer ever comes.
func (rt *Runtime) reconcile(p *QoSProxy, fabric *transport.Fabric, indoubt []string, now broker.Time) {
	m := rt.walMetrics
	for _, id := range indoubt {
		st := p.pending[id]
		coord, ok := coordinatorOf(id)
		var rep outcomeReply
		var fail error
		switch {
		case !ok:
			fail = fmt.Errorf("proxy: malformed request ID %q", id)
		case coord == p.host || fabric == nil:
			rep = rt.lookupOutcome(id)
		default:
			ctx, cancel := context.WithTimeout(context.Background(), reconcileTimeout)
			resp, err := fabric.Call(ctx, p.addr(), transport.Addr(coord), msgOutcome, outcomeRequest{id: id})
			cancel()
			if err != nil {
				fail = err
			} else if r, okr := resp.(outcomeReply); okr {
				rep = r
			} else {
				fail = fmt.Errorf("proxy: unexpected outcome reply %T", resp)
			}
		}
		if fail != nil {
			m.InDoubt("unresolved")
			continue
		}
		m.InDoubt(rt.resolveInDoubt(p, st, id, now, rep))
	}
	if swept := recoverySweep(now, p.brokers); swept > 0 {
		m.LeasesSwept.Add(float64(swept))
	}
}

// Recover rebuilds every host's book from the write-ahead log of a dead
// process: replay checkpoint plus tail into broker holds (exact
// original IDs), idempotency tables, and lease expiries; resolve
// in-doubt prepares against the replayed coordinator decide tables
// (all local — the whole process restarted together); then sweep every
// lease that lapsed while down, exactly once, before Start can admit
// anything new. Must be called after deployment and before Start; the
// runtime clock says how long the process was down.
func (rt *Runtime) Recover() error {
	rt.mu.Lock()
	if rt.started {
		rt.mu.Unlock()
		return errors.New("proxy: Recover after Start")
	}
	proxies := make([]*QoSProxy, 0, len(rt.proxies))
	for _, p := range rt.proxies {
		proxies = append(proxies, p)
	}
	rt.mu.Unlock()
	if rt.wal == nil {
		return errors.New("proxy: WAL not enabled")
	}
	records, _, err := wal.Replay(rt.wal.Dir())
	if err != nil {
		return err
	}
	// Advance the request-ID sequence past everything in the log: a
	// fresh process restarts nextReq at zero, and without this bump its
	// first admission would mint an ID the replayed idempotency tables
	// already decided — handing the new session a reservation that was
	// restored (and possibly already swept) on behalf of its pre-crash
	// namesake.
	var maxSeq uint64
	for _, r := range records {
		if i := strings.LastIndexByte(r.ID, '#'); i >= 0 {
			if n, err := strconv.ParseUint(r.ID[i+1:], 10, 64); err == nil && n > maxSeq {
				maxSeq = n
			}
		}
	}
	if maxSeq > rt.nextReq.Load() {
		rt.nextReq.Store(maxSeq)
	}
	now := rt.clock.Now()
	indoubt := make([][]string, len(proxies))
	for i, p := range proxies {
		if indoubt[i], err = rt.replayHost(p, records, now); err != nil {
			return err
		}
	}
	// Reconcile after every host's decide records are merged: an
	// in-doubt prepare may be coordinated by any host in the log.
	for i, p := range proxies {
		rt.reconcile(p, nil, indoubt[i], now)
	}
	return nil
}

// CrashRestart kills one host's QoSProxy and recovers it from the
// write-ahead log while the rest of the runtime keeps serving: the
// endpoint drops off the fabric (in-flight calls to it fail), the
// in-memory book and idempotency table are wiped (crash amnesia), state
// is replayed from the log, in-doubt prepares are reconciled against
// their coordinators' outcome tables over the fabric, leases that
// lapsed while down are swept once, and the proxy rejoins the fabric on
// a fresh endpoint. The crash lands at a message boundary — the serve
// goroutine finishes its current handler before dying — so books never
// tear mid-handler; the WAL's torn-tail handling covers the mid-append
// window.
func (rt *Runtime) CrashRestart(host topo.HostID) error {
	rt.crashMu.Lock()
	defer rt.crashMu.Unlock()
	rt.mu.Lock()
	if !rt.started {
		rt.mu.Unlock()
		return errors.New("proxy: runtime not started")
	}
	p, ok := rt.proxies[host]
	if !ok {
		rt.mu.Unlock()
		return fmt.Errorf("proxy: no QoSProxy on host %s", host)
	}
	rt.mu.Unlock()
	if rt.wal == nil {
		return errors.New("proxy: WAL not enabled")
	}

	// Crash: stop serving and drop off the fabric.
	close(p.done)
	p.ep.Close()
	p.wg.Wait()

	// Amnesia: the process forgets its book and its idempotency table.
	// Link brokers are owned by no host and keep their holds.
	now := rt.clock.Now()
	p.pending = make(map[string]*prepState)
	p.order = nil
	for _, b := range p.brokers {
		switch br := b.(type) {
		case *broker.Local:
			br.Wipe(now)
		case *broker.Network:
			br.Wipe()
		}
	}

	// Recovery: replay the log into the book, reconcile, sweep — all
	// before the proxy can serve a single new message.
	records, _, err := wal.Replay(rt.wal.Dir())
	if err != nil {
		return err
	}
	indoubt, err := rt.replayHost(p, records, now)
	if err != nil {
		return err
	}
	rt.reconcile(p, rt.fabric, indoubt, now)

	// Rejoin the fabric: a fresh endpoint (the crashed one's queued
	// deliveries died with the process) and a fresh serve loop.
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !rt.started {
		return nil // the runtime stopped underneath the restart
	}
	p.ep = rt.fabric.Endpoint(p.addr(), 16)
	p.ep.SetHandler(msgAvailability, p.handleAvailabilityFast)
	p.done = make(chan struct{})
	p.wg.Add(1)
	go p.serve(p.ep, p.done)
	return nil
}
