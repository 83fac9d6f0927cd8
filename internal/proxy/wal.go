package proxy

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
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
//   - The first record a runtime appends is preceded by a deployment
//     record naming the runtime's deployment (fingerprintLocked), and
//     Recover refuses a log that names another.
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

// ErrForeignLog reports a write-ahead log written by another deployment:
// its deployment record names other hosts, resources, capacities or
// routes than the recovering runtime has. Replaying it would restore
// holds into books they were never admitted against.
var ErrForeignLog = errors.New("proxy: write-ahead log belongs to another deployment")

// fingerprintLocked returns the deployment's fingerprint, computing it
// on first use: a SHA-256 over every host, in order, with the resources
// deployed on it, in order — a local resource with its capacity, a
// network resource with its route's links and their capacities. Callers
// hold rt.mu.
func (rt *Runtime) fingerprintLocked() string {
	if rt.fingerprint != "" {
		return rt.fingerprint
	}
	hosts := make([]string, 0, len(rt.proxies))
	for h := range rt.proxies {
		hosts = append(hosts, string(h))
	}
	sort.Strings(hosts)
	h := sha256.New()
	capacity := func(c float64) string { return strconv.FormatFloat(c, 'g', -1, 64) }
	for _, host := range hosts {
		p := rt.proxies[topo.HostID(host)]
		fmt.Fprintf(h, "host %s\n", host)
		resources := make([]string, 0, len(p.brokers))
		for r := range p.brokers {
			resources = append(resources, r)
		}
		sort.Strings(resources)
		for _, r := range resources {
			switch b := p.brokers[r].(type) {
			case *broker.Network:
				fmt.Fprintf(h, "network %s", r)
				for _, l := range b.Links() {
					fmt.Fprintf(h, " %s %s", l.Resource(), capacity(l.Capacity()))
				}
				fmt.Fprintln(h)
			default:
				fmt.Fprintf(h, "local %s %s\n", r, capacity(b.Capacity()))
			}
		}
	}
	rt.fingerprint = hex.EncodeToString(h.Sum(nil))
	return rt.fingerprint
}

// stampWAL appends the deployment record once, ahead of the first
// record the runtime journals.
func (rt *Runtime) stampWAL() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.stamped.Load() {
		return nil
	}
	if err := rt.wal.Append(wal.Record{Type: wal.TypeDeployment, ID: rt.fingerprintLocked()}); err != nil {
		return err
	}
	rt.walMetrics.Appends.Inc()
	rt.stamped.Store(true)
	return nil
}

// CloseWAL flushes and closes the write-ahead log; call after Stop when
// the process is done with the runtime. Safe when durability is off.
func (rt *Runtime) CloseWAL() error {
	if rt.wal == nil {
		return nil
	}
	return rt.wal.Close()
}

// CheckpointWAL compacts the log: the deployment record and the live
// book state — every pending entry on every host plus the coordinator
// decide table — are rewritten
// as a fresh snapshot segment and older segments are pruned, so replay
// cost tracks live state, not history. The pending tables change under
// every admission, so checkpointing requires a stopped (or
// not-yet-started) runtime — e.g. right after Recover, before Start.
func (rt *Runtime) CheckpointWAL() error {
	if rt.wal == nil {
		return errors.New("proxy: WAL not enabled")
	}
	rt.mu.Lock()
	started := rt.live.Load() != nil
	proxies := make([]*QoSProxy, 0, len(rt.proxies))
	for _, p := range rt.proxies {
		proxies = append(proxies, p)
	}
	fp := rt.fingerprintLocked()
	rt.mu.Unlock()
	if started {
		return errors.New("proxy: CheckpointWAL requires a stopped runtime")
	}
	snap := []wal.Record{{Type: wal.TypeDeployment, ID: fp}}
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
	if err := rt.wal.Checkpoint(snap); err != nil {
		return err
	}
	rt.stamped.Store(true)
	return nil
}

// appendWAL journals one record and counts it, after the deployment
// record if the log does not carry it yet. A no-op when durability is
// off.
func (rt *Runtime) appendWAL(rec wal.Record) error {
	if rt.wal == nil {
		return nil
	}
	if !rt.stamped.Load() {
		if err := rt.stampWAL(); err != nil {
			return err
		}
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

// forgetDecisions drops the commit decisions of the requests the shares
// were prepared under, once their holds are gone: released with their
// session, or rolled back after a failed commit fan-out. A participant
// that later recovers one of those prepares in doubt is presumed
// aborted and releases holds that no longer exist, and the table stays
// as large as the set of live reservations instead of growing with
// every admission. Replay still rebuilds every decision in the log.
func (rt *Runtime) forgetDecisions(shares []share) {
	if rt.wal == nil || len(shares) == 0 {
		return
	}
	rt.decideMu.Lock()
	defer rt.decideMu.Unlock()
	for _, sh := range shares {
		delete(rt.decided, sh.id)
	}
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

// logRecord journals one participant record, stamped with this proxy's
// host. A no-op when durability is off.
func (p *QoSProxy) logRecord(rec wal.Record) error {
	rec.Host = string(p.host)
	return p.rt.appendWAL(rec)
}

func partsFromExports(exs []broker.HoldExport) []wal.Part {
	out := make([]wal.Part, len(exs))
	for i, ex := range exs {
		out[i] = wal.Part{Resource: ex.Resource, ID: uint64(ex.ID), Amount: ex.Amount}
	}
	return out
}

// exportsFromParts converts journaled parts to hold exports. A part
// written before network reservations were held as their links names a
// path hold and the per-link holds it owned (wal.Part.Links): each link
// hold carried the path's amount, and comes back as an export of its own.
func exportsFromParts(parts []wal.Part, expiry broker.Time) []broker.HoldExport {
	out := make([]broker.HoldExport, 0, len(parts))
	for _, p := range parts {
		if len(p.Links) == 0 {
			out = append(out, broker.HoldExport{Resource: p.Resource, ID: broker.ReservationID(p.ID), Amount: p.Amount, Expiry: expiry})
		}
		for _, l := range p.Links {
			out = append(out, broker.HoldExport{Resource: l.Resource, ID: broker.ReservationID(l.ID), Amount: p.Amount, Expiry: expiry})
		}
	}
	return out
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
	// for ID retirement in replayHost.
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
// A restart wiped only the host's own books, never a link book, so replay
// reattaches to the link holds still there (broker.RestoreMulti). Must run while no
// handler can reach the host's participant state: before Start, or under
// p.mu with the endpoint closed. Returns the in-doubt request IDs, in
// log order: prepared, never committed, never aborted.
func (rt *Runtime) replayHost(p *QoSProxy, records []wal.Record, now broker.Time, restart bool) (indoubt []string, err error) {
	entries, decided, matched := reduceHost(records, string(p.host))
	rt.decideMu.Lock()
	for id, exp := range decided {
		if _, ok := rt.decided[id]; !ok {
			rt.decided[id] = exp
		}
	}
	rt.decideMu.Unlock()
	rt.walMetrics.ReplayRecords.Add(float64(matched))
	resolve := func(r string) (b *broker.Local, survived, ok bool) {
		b, ok = p.books[r]
		_, own := p.brokers[r]
		return b, restart && (!own || broker.IsLinkResource(r)), ok
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
	// never reuses one.
	for _, e := range entries {
		for _, ex := range exportsFromParts(e.seen, 0) {
			if b, _, ok := resolve(ex.Resource); ok {
				b.RetireID(ex.ID)
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
// exactly once, before the recovered proxy serves any new admission —
// on every book the host holds capacity on.
func (p *QoSProxy) recoverySweep(now broker.Time) int {
	n := 0
	for _, b := range p.books {
		n += b.ExpireLeases(now)
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
	if swept := p.recoverySweep(now); swept > 0 {
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
// runtime clock says how long the process was down. A log whose
// deployment record names another deployment fails with ErrForeignLog
// before any book is touched; a log without one recovers as it is.
func (rt *Runtime) Recover() error {
	rt.mu.Lock()
	if rt.live.Load() != nil {
		rt.mu.Unlock()
		return errors.New("proxy: Recover after Start")
	}
	proxies := make([]*QoSProxy, 0, len(rt.proxies))
	for _, p := range rt.proxies {
		proxies = append(proxies, p)
	}
	fp := rt.fingerprintLocked()
	rt.mu.Unlock()
	if rt.wal == nil {
		return errors.New("proxy: WAL not enabled")
	}
	records, _, err := wal.Replay(rt.wal.Dir())
	if err != nil {
		return err
	}
	stamps := 0
	for _, r := range records {
		if r.Type != wal.TypeDeployment {
			continue
		}
		if r.ID != fp {
			return fmt.Errorf("%w: the log names deployment %.12s, this runtime is %.12s", ErrForeignLog, r.ID, fp)
		}
		stamps++
	}
	if stamps > 0 {
		rt.stamped.Store(true)
		rt.walMetrics.ReplayRecords.Add(float64(stamps))
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
		if indoubt[i], err = rt.replayHost(p, records, now, false); err != nil {
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
// a fresh endpoint. The crash lands at a message boundary — every
// two-phase handler already holding the participant lock finishes its
// message before the wipe, and later ones find the endpoint closed and
// drop theirs — so books never tear mid-handler; the WAL's torn-tail
// handling covers the mid-append window.
func (rt *Runtime) CrashRestart(host topo.HostID) error {
	rt.crashMu.Lock()
	defer rt.crashMu.Unlock()
	p, ok, started := rt.proxyOn(host)
	if !started {
		return errors.New("proxy: runtime not started")
	}
	if !ok {
		return fmt.Errorf("proxy: no QoSProxy on host %s", host)
	}
	if rt.wal == nil {
		return errors.New("proxy: WAL not enabled")
	}

	// Crash: stop serving and drop off the fabric.
	p.halt()
	if err := rt.recoverHost(p); err != nil {
		return err
	}

	// Rejoin the fabric: a fresh endpoint with fresh handlers (the
	// crashed one's deliveries in flight died with the process).
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.live.Load() == nil {
		return nil // the runtime stopped underneath the restart
	}
	p.listen()
	return nil
}

// recoverHost is the restart half of CrashRestart: wipe the host's book
// and idempotency table, replay the log, reconcile and sweep. It holds
// p.mu throughout, so a two-phase handler of the crashed endpoint that
// was still waiting for it finds the endpoint closed and drops its
// delivery. Outcome queries to other hosts read their decide tables
// under decideMu and never take a proxy's mu, so reconciling under it
// cannot deadlock.
func (rt *Runtime) recoverHost(p *QoSProxy) error {
	p.mu.Lock()
	defer p.mu.Unlock()

	// Amnesia: the process forgets its book and its idempotency table.
	// Link books are owned by no host and keep their holds, even one
	// deployed on this host as its own resource; network brokers hold
	// nothing.
	now := rt.clock.Now()
	p.pending = make(map[string]*prepState)
	p.order = nil
	for r, b := range p.brokers {
		if lb, ok := b.(*broker.Local); ok && !broker.IsLinkResource(r) {
			lb.Wipe(now)
		}
	}

	// Recovery: replay the log into the book, reconcile, sweep — all
	// before the proxy can serve a single new message.
	records, _, err := wal.Replay(rt.wal.Dir())
	if err != nil {
		return err
	}
	indoubt, err := rt.replayHost(p, records, now, true)
	if err != nil {
		return err
	}
	rt.reconcile(p, rt.fabric, indoubt, now)
	return nil
}
