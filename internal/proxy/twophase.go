package proxy

// Phase 3 as an idempotent two-phase commit over the transport fabric.
//
// The validate-at-commit protocol of PR 2 re-validates a plan against
// every broker's current availability before creating any hold. Under an
// in-process runtime that is a single atomic call; under a fallible
// transport it must be a distributed protocol. The commit therefore runs
// as a two-phase commit coordinated by the main QoSProxy:
//
//   prepare  — each participating proxy runs broker.ReserveAtomic over
//              its host's share of the plan's requirement: validate
//              against current availability under the package lock
//              order, create the holds all-or-nothing, and (when the
//              runtime leases) arm a prepare lease so an orphaned
//              prepare is reclaimed by the ordinary lease sweep.
//   commit   — once every participant prepared, ownership of the holds
//              transfers to the session; a leased prepare is re-armed as
//              the session lease (heartbeats keep it alive thereafter).
//   abort    — on any prepare refusal, transport failure, or commit
//              failure, the coordinator aborts every participant;
//              aborting a committed prepare rolls its holds back.
//
// Idempotency: every attempt carries a unique request ID, and each
// participant keeps a bounded per-ID state table. A duplicated or
// retried prepare/commit/abort replays the recorded outcome instead of
// re-executing, so the duplication knob of the fabric (or a retrying
// coordinator) can never double-reserve, double-release, or shorten a
// session lease. An abort for an ID never seen leaves a tombstone, so a
// delayed prepare landing after its abort is refused rather than
// stranding holds.
//
// Per-host atomicity is ReserveAtomic's; cross-host atomicity is the
// coordinator's abort-all. The failure window — a coordinator dying
// between prepare and commit/abort, or an abort message lost to the
// network — is covered by the prepare lease: the sweep reclaims the
// holds after the TTL. Without leasing (a perfect fabric, the default)
// no message is ever lost, so every prepare is resolved synchronously.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"qosres/internal/broker"
	"qosres/internal/obs"
	"qosres/internal/qos"
	"qosres/internal/topo"
	"qosres/internal/transport"
	"qosres/internal/wal"
)

// abortTimeout bounds the detached abort fan-out after a failed commit
// attempt: best-effort cleanup must not outlive the caller's patience
// (lost aborts are reclaimed by the lease sweep anyway).
const abortTimeout = 250 * time.Millisecond

// prepareRequest asks a participant to validate-and-hold its share of a
// plan. Expiry, when positive, leases the prepared holds until the
// coordinator resolves them.
type prepareRequest struct {
	id     string
	req    qos.ResourceVector
	expiry broker.Time
}

type prepareReply struct {
	res *broker.MultiReservation
	err error
}

// commitRequest resolves a prepare: the holds become the session's.
// Expiry, when positive, re-arms them as the session lease; zero makes
// them permanent.
type commitRequest struct {
	id     string
	expiry broker.Time
}

type commitReply struct {
	err error
}

// abortRequest rolls a prepare back (committed or not).
type abortRequest struct {
	id string
}

type abortReply struct{}

// prepState is one entry of a participant's idempotency table.
type prepState struct {
	res       *broker.MultiReservation
	prepErr   error
	committed bool
	aborted   bool
}

// resolved reports whether the entry needs no further coordinator
// action (GC eligibility).
func (st *prepState) resolved() bool {
	return st.prepErr != nil || st.committed || st.aborted
}

// maxPendingResolved bounds the resolved tail of the idempotency table;
// older resolved entries are forgotten. A duplicate arriving after its
// entry was forgotten re-executes — harmless for commit/abort (the
// reply reports an unknown ID) and covered by the prepare lease for a
// re-executed prepare.
const maxPendingResolved = 1024

// gcPending prunes the oldest resolved entries beyond the bound. Runs
// under p.mu. The sweep is amortized: it triggers only once
// the table doubles past the bound, so each protocol message pays O(1)
// on average instead of rescanning ~maxPendingResolved entries per
// message — resolved entries are kept at least as long as a per-message
// sweep would keep them, just up to twice as many at peak.
func (p *QoSProxy) gcPending() {
	if len(p.order) <= 2*maxPendingResolved {
		return
	}
	keep := p.order[:0]
	excess := len(p.order) - maxPendingResolved
	for _, id := range p.order {
		st, ok := p.pending[id]
		if !ok {
			continue
		}
		if excess > 0 && st.resolved() {
			delete(p.pending, id)
			excess--
			continue
		}
		keep = append(keep, id)
	}
	p.order = keep
}

// errUnknownPrepare reports a commit or abort for an ID the participant
// has no (live) prepare for — lost to the network, expired and swept,
// or already forgotten.
var errUnknownPrepare = errors.New("proxy: unknown prepare ID")

// ErrAborted reports a commit that lost its race against an abort of
// the same prepare. Under crash/restart injection this is the expected
// outcome of the recovery reconciliation window: a participant that
// replayed an undecided prepare asks its coordinator, presumes abort if
// the coordinator had not yet decided, and then refuses the (late)
// commit — the coordinator rolls back the other participants and the
// admission fails cleanly instead of half-committing.
var ErrAborted = errors.New("proxy: prepare aborted")

// handlePrepare runs under the participant's p.mu.
func (p *QoSProxy) handlePrepare(req prepareRequest) prepareReply {
	if st, ok := p.pending[req.id]; ok {
		// Duplicate (or post-abort straggler): replay the recorded
		// outcome; never reserve twice.
		if st.aborted {
			return prepareReply{err: fmt.Errorf("proxy %s: prepare %s already aborted", p.host, req.id)}
		}
		return prepareReply{res: st.res, err: st.prepErr}
	}
	resolve := func(r string) (broker.Broker, bool) {
		b, ok := p.brokers[r]
		return b, ok
	}
	res, err := broker.ReserveAtomic(p.rt.clock.Now(), resolve, req.req)
	st := &prepState{res: res, prepErr: err}
	if err == nil && req.expiry > 0 {
		if lerr := res.SetLease(req.expiry); lerr != nil {
			// A broker of the share does not support leasing; refuse the
			// prepare rather than hold unreclaimable capacity.
			_ = res.Release(p.rt.clock.Now())
			st = &prepState{prepErr: lerr}
		}
	}
	if st.prepErr == nil {
		st = p.journalPrepare(req.id, req.expiry, st)
	}
	p.pending[req.id] = st
	p.order = append(p.order, req.id)
	p.gcPending()
	return prepareReply{res: st.res, err: st.prepErr}
}

// journalPrepare journals a fresh prepare's holds before the reply
// leaves the host: a crash after this point recovers the prepare; a
// crash before it loses the reply too, so the coordinator aborts either
// way. A prepare that cannot be journaled is refused and its holds
// released — acknowledging it would let a commit build on holds that a
// crash forgets.
func (p *QoSProxy) journalPrepare(id string, expiry broker.Time, st *prepState) *prepState {
	if p.rt.wal == nil {
		return st
	}
	err := p.logRecord(wal.Record{Type: wal.TypePrepare, ID: id,
		Expiry: float64(expiry), Parts: partsFromExports(st.res.Export())})
	if err == nil {
		return st
	}
	_ = st.res.Release(p.rt.clock.Now())
	return &prepState{prepErr: fmt.Errorf("proxy %s: journal prepare %s: %w", p.host, id, err)}
}

// handleCommit runs under the participant's p.mu.
func (p *QoSProxy) handleCommit(req commitRequest) commitReply {
	st, ok := p.pending[req.id]
	if ok && st.aborted {
		// Aborted beats unknown: an abort (or recovery's presumed abort)
		// clears res, and the late commit must learn the prepare was
		// aborted, not that it never existed.
		return commitReply{err: fmt.Errorf("proxy %s: commit %s: %w", p.host, req.id, ErrAborted)}
	}
	if !ok || st.res == nil || st.prepErr != nil {
		return commitReply{err: fmt.Errorf("proxy %s: commit %s: %w", p.host, req.id, errUnknownPrepare)}
	}
	if st.committed {
		// Duplicate commit: the holds are the session's now — its
		// heartbeats may have extended the lease past req.expiry, so a
		// replay must not touch it.
		return commitReply{}
	}
	// The prepare lease may have expired and been swept between prepare
	// and commit; re-arming it then fails, and the coordinator must
	// treat the share as lost.
	if err := st.res.SetLease(req.expiry); err != nil {
		st.aborted = true
		st.res = nil
		return commitReply{err: fmt.Errorf("proxy %s: commit %s: %w", p.host, req.id, err)}
	}
	st.committed = true
	// A lost commit record is recoverable: replay finds the prepare
	// undecided and the coordinator's durable decide record resolves it.
	_ = p.logRecord(wal.Record{Type: wal.TypeCommit, ID: req.id, Expiry: float64(req.expiry)})
	return commitReply{}
}

// handleAbort runs under the participant's p.mu. Aborting is
// idempotent and total: unknown IDs leave a tombstone (so a delayed
// prepare cannot land after its abort), committed prepares roll back.
// A lost abort record is harmless: recovery presumes abort for a
// prepare without a decision.
func (p *QoSProxy) handleAbort(req abortRequest) abortReply {
	st, ok := p.pending[req.id]
	if !ok {
		p.pending[req.id] = &prepState{aborted: true}
		p.order = append(p.order, req.id)
		p.gcPending()
		_ = p.logRecord(wal.Record{Type: wal.TypeAbort, ID: req.id})
		return abortReply{}
	}
	if st.aborted {
		return abortReply{}
	}
	st.aborted = true
	st.committed = false
	if st.res != nil {
		// Release tolerates parts already reclaimed by a lease sweep.
		_ = st.res.Release(p.rt.clock.Now())
		st.res = nil
	}
	_ = p.logRecord(wal.Record{Type: wal.TypeAbort, ID: req.id})
	return abortReply{}
}

// share is one participating host's part of a committed plan: the holds
// the host prepared under two-phase-commit request id.
type share struct {
	host topo.HostID
	id   string
	res  *broker.MultiReservation
}

// reservationSet is everything a session holds: the shares of the plan
// it was admitted with, in host order, followed by the shares of each
// upgrade delta since. The request with sequence number seq admitted
// it. On a durable runtime the set journals its own lease renewals,
// releases and shrinks: one record per share, stamped with the share's
// request ID and host, so every host's replay is self-contained.
type reservationSet struct {
	rt     *Runtime
	seq    uint64
	shares []share
}

// Release releases every share; the first error wins, but every share
// is attempted and journaled — a part that failed to release was
// already reclaimed by a lease sweep, so replaying the release can only
// under-account, never resurrect a hold.
func (s *reservationSet) Release(now broker.Time) error {
	var firstErr error
	for _, sh := range s.shares {
		if err := sh.res.Release(now); err != nil && firstErr == nil {
			firstErr = err
		}
		s.journal(wal.TypeRelease, sh, 0)
	}
	s.rt.forgetDecisions(s.shares)
	return firstErr
}

// SetLease arms and journals every share's lease; the first error
// aborts (Heartbeat interprets ErrUnknownReservation as lease loss).
func (s *reservationSet) SetLease(expiry broker.Time) error {
	for _, sh := range s.shares {
		if err := sh.res.SetLease(expiry); err != nil {
			return err
		}
		s.journal(wal.TypeLease, sh, expiry)
	}
	return nil
}

// shrinkTo shrinks the shares in place to a plan requirement. Its
// per-book demand (Runtime.demand) is the budget the shares drain in
// order, so the kept holds go before an upgrade's delta. Each share's
// surviving holds are journaled even on partial error: a part a
// concurrent sweep already reclaimed can only under-account on replay,
// never resurrect capacity. An emptied share keeps its slot and
// journals an empty shrink, which replay reads as a release.
func (s *reservationSet) shrinkTo(now broker.Time, req qos.ResourceVector) error {
	budget, err := s.rt.demand(req)
	if err != nil {
		return err
	}
	var firstErr error
	for _, sh := range s.shares {
		if err := sh.res.ShrinkTo(now, budget); err != nil && firstErr == nil {
			firstErr = err
		}
		s.journal(wal.TypeShrink, sh, 0)
	}
	return firstErr
}

// exports flattens the shares' holds into journalable form.
func (s *reservationSet) exports() []broker.HoldExport {
	var out []broker.HoldExport
	for _, sh := range s.shares {
		out = append(out, sh.res.Export()...)
	}
	return out
}

// touchesAny reports whether some share holds capacity on a resource
// in set: route links stand in for the network resources they back.
func (s *reservationSet) touchesAny(set map[string]bool) bool {
	for _, sh := range s.shares {
		for _, r := range sh.res.Resources() {
			if set[r] {
				return true
			}
		}
	}
	return false
}

// journal appends one session-layer record for a share; a shrink record
// carries the share's current holds. A no-op when durability is off.
// Losing a record is safe: replay then keeps an older (shorter) lease,
// a released hold, or pre-downgrade amounts — all bounded by the lease
// sweep.
func (s *reservationSet) journal(typ string, sh share, expiry broker.Time) {
	if s.rt.wal == nil {
		return
	}
	rec := wal.Record{Type: typ, Host: string(sh.host), ID: sh.id, Expiry: float64(expiry)}
	if typ == wal.TypeShrink {
		rec.Parts = partsFromExports(sh.res.Export())
	}
	_ = s.rt.appendWAL(rec)
}

// demand expands a plan requirement to what it holds on each book: a
// network resource counts on every link of its route (broker.Demand),
// resolved through the resources' owning proxies.
func (rt *Runtime) demand(req qos.ResourceVector) (qos.ResourceVector, error) {
	return broker.Demand(func(r string) (broker.Broker, bool) {
		_, p, ok := rt.owning(r)
		if !ok {
			return nil, false
		}
		b, ok := p.brokers[r]
		return b, ok
	}, req)
}

// requestID names two-phase-commit request seq of the coordinator on
// mainHost: "<mainHost>#<seq>" (coordinatorOf parses it back).
func requestID(mainHost topo.HostID, seq uint64) string {
	var buf [64]byte
	b := append(buf[:0], mainHost...)
	b = append(b, '#')
	return string(strconv.AppendUint(b, seq, 10))
}

// hostShare is one owning host's share of a requirement, and the
// fabric call carrying it.
type hostShare struct {
	host topo.HostID
	need qos.ResourceVector
	call *transport.Pending
}

// split partitions a requirement along the route's legs, appending one
// share per host with a nonzero requirement, in host order. Each share
// is a fresh vector: a payload handed to the fabric must not change
// after it is sent, because armed routes delay and duplicate it.
func (r *route) split(req qos.ResourceVector, shares []hostShare) ([]hostShare, error) {
	if r.err != nil {
		return nil, r.err
	}
	placed := 0
	for _, l := range r.legs {
		var need qos.ResourceVector
		for _, res := range l.resources {
			if amt := req[res]; amt != 0 {
				if need == nil {
					need = make(qos.ResourceVector, len(l.resources))
				}
				need[res] = amt
				placed++
			}
		}
		if need != nil {
			shares = append(shares, hostShare{host: l.host, need: need})
		}
	}
	for _, amt := range req {
		if amt != 0 {
			placed--
		}
	}
	if placed != 0 {
		return nil, fmt.Errorf("proxy: requirement names resources outside the session's binding")
	}
	return shares, nil
}

// commitPlan is the coordinator: it runs the idempotent two-phase
// commit of a plan's requirement from the main proxy, along the route
// of the session's template. On success the returned reservation owns
// every created hold. On any failure every participant is aborted (best effort — a lost abort is reclaimed by
// the lease sweep) and no capacity is retained. A refusal because some
// share no longer fits current availability is broker.ErrInsufficient
// (retryable staleness); everything else is terminal for this attempt.
func (rt *Runtime) commitPlan(ctx context.Context, mainHost topo.HostID, rte *route, req qos.ResourceVector) (*reservationSet, error) {
	var buf [8]hostShare
	shares, err := rte.split(req, buf[:0])
	if err != nil {
		return nil, err
	}
	// Every request gets a sequence number, even one with nothing to
	// commit, so it can name the session it admits.
	seq := rt.nextReq.Add(1)
	if len(shares) == 0 {
		return &reservationSet{rt: rt, seq: seq}, nil
	}
	fabric := rt.fabric
	from := transport.Addr(mainHost)
	id := requestID(mainHost, seq)
	var expiry broker.Time
	if rt.leaseTTL > 0 {
		expiry = rt.clock.Now() + rt.leaseTTL
	}

	abortAll := func() {
		// Detached context: cleanup must proceed even when the caller's
		// deadline already expired, but stay bounded. The caller's trace
		// span carries over so abort calls stay inside the trace tree.
		actx, cancel := context.WithTimeout(context.Background(), abortTimeout)
		defer cancel()
		actx = obs.ContextWithSpan(actx, obs.SpanFromContext(ctx))
		for i, sh := range shares {
			shares[i].call = fabric.Go(actx, from, transport.Addr(sh.host), msgAbort, abortRequest{id: id})
		}
		for _, sh := range shares {
			_, _ = sh.call.Wait()
		}
	}

	// Prepare fan-out: every participating proxy validates and holds its
	// share; the requests all go out before the first reply is awaited.
	for i, sh := range shares {
		shares[i].call = fabric.Go(ctx, from, transport.Addr(sh.host), msgPrepare, prepareRequest{id: id, req: sh.need, expiry: expiry})
	}
	// Shares are in host order, so the set is too: neither its records
	// nor the order a shrink budget drains in depends on which prepare
	// replied first.
	prepared := make([]share, 0, len(shares))
	var refusal, failure error
	for _, l := range shares {
		var rep prepareReply
		resp, err := l.call.Wait()
		if err == nil {
			var ok bool
			if rep, ok = resp.(prepareReply); !ok {
				err = fmt.Errorf("proxy: unexpected prepare reply %T", resp)
			} else {
				err = rep.err
			}
		}
		switch {
		case err == nil:
			prepared = append(prepared, share{host: l.host, id: id, res: rep.res})
		case errors.Is(err, broker.ErrInsufficient):
			if refusal == nil {
				refusal = err
			}
		default:
			if failure == nil {
				failure = err
			}
		}
	}
	if refusal != nil || failure != nil {
		abortAll()
		if refusal != nil {
			return nil, refusal
		}
		return nil, failure
	}

	// Commit point: journal the decision before any participant learns
	// of it — recovery presumes abort for a prepare with no decide
	// record, so the fan-out below must never outrun the log, and a
	// decision that could not be made durable is no decision.
	if err := rt.recordDecide(mainHost, id, expiry); err != nil {
		abortAll()
		return nil, err
	}

	// Commit fan-out: transfer ownership of every prepared share.
	for i, sh := range shares {
		shares[i].call = fabric.Go(ctx, from, transport.Addr(sh.host), msgCommit, commitRequest{id: id, expiry: expiry})
	}
	var commitErr error
	for _, l := range shares {
		resp, err := l.call.Wait()
		if err == nil {
			if rep, ok := resp.(commitReply); !ok {
				err = fmt.Errorf("proxy: unexpected commit reply %T", resp)
			} else {
				err = rep.err
			}
		}
		if err != nil && commitErr == nil {
			commitErr = err
		}
	}
	if commitErr != nil {
		// Partial commit: roll everything back. Aborting a committed
		// share releases it; a share whose commit-ack merely got lost is
		// released the same way (the session never existed), and the
		// decision goes with it: a participant that recovers the prepare
		// in doubt is then presumed aborted.
		abortAll()
		rt.forgetDecisions(prepared)
		return nil, commitErr
	}
	return &reservationSet{rt: rt, seq: seq, shares: prepared}, nil
}
