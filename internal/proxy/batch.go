package proxy

// Batched group-commit admission: the front end that coalesces
// concurrent Establish calls into one commit round.
//
// Under serialized admission every session pays the full phase-3 price
// by itself: one prepare and one commit message per participating host,
// each crossing that host's single serve goroutine, plus one sweep over
// the affected brokers' lock stripes. Under concurrency the hot hosts'
// serve goroutines and the hot stripes convoy — k concurrent sessions
// pay k lock rounds and 2k messages per host.
//
// The batching front end funnels commit attempts through a collector
// goroutine instead. Attempts that arrive while a round is being formed
// join it (up to BatchPolicy.MaxBatch, optionally waiting
// BatchPolicy.Window for stragglers); the round then runs ONE batched
// two-phase commit: per participating host a single batch-prepare
// message carrying every member's share (the participant validates and
// commits the whole batch with broker.ReserveBatch — one sweep over the
// union of the members' stripes), then a single batch-commit (or
// batch-abort) per host. k members on h hosts cost 2h messages and h
// stripe sweeps instead of 2kh and kh.
//
// Members stay independent end to end: each keeps its own request ID,
// its own per-host prepare entries in the participants' idempotency
// tables, its own trace (a batch_commit child span under its reserve
// stage), its own deadline, and its own outcome. A member is admitted
// only when every host holding a share of its plan prepared it; a
// refused or failed member is aborted everywhere it prepared, without
// disturbing the other members of the round. Rounds are dispatched
// asynchronously, so a slow round never blocks the collector from
// forming the next one.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"qosres/internal/broker"
	"qosres/internal/obs"
	"qosres/internal/qos"
	"qosres/internal/topo"
	"qosres/internal/transport"
)

// Batched two-phase-commit message kinds. Named distinctly from the
// batch_commit stage span so a trace's participant spans (named by
// message kind) never collide with the member stage spans.
const (
	msgBatchPrepare = "prepare_batch"
	msgBatchCommit  = "commit_batch"
	msgBatchAbort   = "abort_batch"
)

// BatchPolicy configures the group-commit admission front end.
type BatchPolicy struct {
	// MaxBatch caps the members of one round. Values below 2 disable
	// batching (the default): commits run the serialized path.
	MaxBatch int
	// Window, when positive, is how long a forming round waits for
	// stragglers after its first member arrived. Zero (the default)
	// coalesces only the attempts already waiting — no added latency,
	// which is what deadline-bounded deployments want.
	Window time.Duration
}

// batchMemberShare is one member's share of one host's batch-prepare.
type batchMemberShare struct {
	id  string
	req qos.ResourceVector
}

// batchPrepareRequest asks a participant to validate-and-hold every
// member's share of a round in one sweep over its brokers' stripes.
type batchPrepareRequest struct {
	members []batchMemberShare
	expiry  broker.Time
}

// batchMemberResult is one member's prepare outcome at one host.
type batchMemberResult struct {
	id  string
	res *broker.MultiReservation
	err error
}

type batchPrepareReply struct {
	results []batchMemberResult
	stats   broker.BatchStats
}

// batchCommitRequest resolves a round's admitted prepares at one host.
type batchCommitRequest struct {
	ids    []string
	expiry broker.Time
}

type batchCommitReply struct {
	errs []error // parallel to ids
}

// batchAbortRequest rolls a round's failed members back at one host.
type batchAbortRequest struct {
	ids []string
}

type batchAbortReply struct{}

// handleBatchPrepare runs on the participant's serve goroutine: replay
// members already in the idempotency table, then validate-and-commit
// every fresh member in one broker.ReserveBatch round (one sweep over
// the union of their stripes). Lease arming and idempotency semantics
// match handlePrepare member for member.
func (p *QoSProxy) handleBatchPrepare(req batchPrepareRequest) batchPrepareReply {
	out := batchPrepareReply{results: make([]batchMemberResult, len(req.members))}
	var fresh []int
	var reqs []qos.ResourceVector
	for i, m := range req.members {
		out.results[i].id = m.id
		if st, ok := p.pending[m.id]; ok {
			if st.aborted {
				out.results[i].err = fmt.Errorf("proxy %s: prepare %s already aborted", p.host, m.id)
			} else {
				out.results[i].res, out.results[i].err = st.res, st.prepErr
			}
			continue
		}
		fresh = append(fresh, i)
		reqs = append(reqs, m.req)
	}
	if len(fresh) > 0 {
		resolve := func(r string) (broker.Broker, bool) {
			b, ok := p.brokers[r]
			return b, ok
		}
		now := p.rt.clock.Now()
		ress, errs, stats := broker.ReserveBatch(now, resolve, reqs)
		out.stats = stats
		for j, i := range fresh {
			st := &prepState{res: ress[j], prepErr: errs[j]}
			if st.prepErr == nil && req.expiry > 0 {
				if lerr := st.res.SetLease(req.expiry); lerr != nil {
					// A broker of the share does not support leasing; refuse
					// the member rather than hold unreclaimable capacity.
					_ = st.res.Release(now)
					st = &prepState{prepErr: lerr}
				}
			}
			if st.prepErr == nil {
				st = p.journalPrepare(req.members[i].id, req.expiry, st)
			}
			p.pending[req.members[i].id] = st
			p.order = append(p.order, req.members[i].id)
			out.results[i].res, out.results[i].err = st.res, st.prepErr
		}
		p.gcPending()
	}
	return out
}

// handleBatchCommit runs on the participant's serve goroutine: the
// per-member commit semantics (lease re-arm, duplicate replay, lost-
// lease abort) are exactly handleCommit's, applied to each ID.
func (p *QoSProxy) handleBatchCommit(req batchCommitRequest) batchCommitReply {
	errs := make([]error, len(req.ids))
	for i, id := range req.ids {
		errs[i] = p.handleCommit(commitRequest{id: id, expiry: req.expiry}).err
	}
	return batchCommitReply{errs: errs}
}

// handleBatchAbort runs on the participant's serve goroutine; aborting
// each ID is idempotent and tombstones unknown ones (see handleAbort).
func (p *QoSProxy) handleBatchAbort(req batchAbortRequest) batchAbortReply {
	for _, id := range req.ids {
		p.handleAbort(abortRequest{id: id})
	}
	return batchAbortReply{}
}

// errRuntimeStopped fails commit attempts caught in a stopping runtime.
var errRuntimeStopped = errors.New("proxy: runtime stopped")

// batchWork is one commit attempt waiting to join a round.
type batchWork struct {
	ctx  context.Context
	main topo.HostID
	req  qos.ResourceVector
	// span is the member's reserve-stage span; its batch_commit child
	// is opened by the round.
	span obs.ActiveSpan
	out  chan batchOutcome
}

type batchOutcome struct {
	res reservation
	err error
}

// maxInFlightRounds bounds the commit rounds running concurrently.
// This bound is what makes group commit actually group: while the
// slots are busy, newly arriving commits block at the collector, and
// the next gather scoops every one of them into a single round. Round
// size thus adapts to load — idle runtimes commit singletons with no
// added latency, loaded ones grow rounds in proportion to commit
// latency (the convoy works for us). Two slots keep a round forming
// while another is in flight, so the participants' serve goroutines
// never idle between rounds.
const maxInFlightRounds = 2

// admitBatcher is the collector: a goroutine forming rounds from
// concurrent commit attempts and dispatching them, at most
// maxInFlightRounds at a time.
type admitBatcher struct {
	rt     *Runtime
	max    int
	window time.Duration
	// in is deliberately unbuffered: a round coalesces exactly the
	// attempts blocked in commit() at collection time, and once done is
	// closed no send can succeed without a receiver, so every accepted
	// attempt gets exactly one outcome.
	in chan *batchWork
	// slots is the in-flight round semaphore.
	slots chan struct{}
	done  chan struct{}
	wg    sync.WaitGroup
}

func newAdmitBatcher(rt *Runtime, p BatchPolicy) *admitBatcher {
	return &admitBatcher{
		rt:     rt,
		max:    p.MaxBatch,
		window: p.Window,
		in:     make(chan *batchWork),
		slots:  make(chan struct{}, maxInFlightRounds),
		done:   make(chan struct{}),
	}
}

// commit submits one attempt to the batching front end and waits for
// its outcome, bounded by the attempt's context. An attempt abandoned
// at its deadline leaves a reaper for the round's eventual outcome, so
// a reservation committed after the caller left is released rather
// than leaked.
func (b *admitBatcher) commit(ctx context.Context, main topo.HostID, req qos.ResourceVector) (reservation, error) {
	w := &batchWork{ctx: ctx, main: main, req: req, span: obs.SpanFromContext(ctx), out: make(chan batchOutcome, 1)}
	select {
	case b.in <- w:
	case <-b.done:
		return nil, errRuntimeStopped
	case <-ctx.Done():
		return nil, fmt.Errorf("proxy: batched commit abandoned at deadline: %w", ctx.Err())
	}
	select {
	case o := <-w.out:
		return o.res, o.err
	case <-ctx.Done():
		go func() {
			if o := <-w.out; o.res != nil {
				_ = o.res.Release(b.rt.clock.Now())
			}
		}()
		return nil, fmt.Errorf("proxy: batched commit abandoned at deadline: %w", ctx.Err())
	}
}

// run is the collector loop: receive one attempt, wait for a round
// slot (attempts arriving meanwhile pile up as blocked senders), scoop
// everything waiting into one round, dispatch it.
func (b *admitBatcher) run() {
	defer b.wg.Done()
	for {
		select {
		case <-b.done:
			b.drainFail()
			return
		case w := <-b.in:
			select {
			case b.slots <- struct{}{}:
			case <-b.done:
				w.out <- batchOutcome{err: errRuntimeStopped}
				b.drainFail()
				return
			}
			batch := b.gather(w)
			b.wg.Add(1)
			go func() {
				defer b.wg.Done()
				defer func() { <-b.slots }()
				b.rt.commitBatch(batch)
			}()
		}
	}
}

// gather forms one round: the first member plus everything already
// waiting (and, with a positive window, stragglers arriving within it),
// capped at max.
func (b *admitBatcher) gather(first *batchWork) []*batchWork {
	batch := []*batchWork{first}
	if b.window <= 0 {
		for len(batch) < b.max {
			select {
			case w := <-b.in:
				batch = append(batch, w)
			default:
				return batch
			}
		}
		return batch
	}
	t := time.NewTimer(b.window)
	defer t.Stop()
	for len(batch) < b.max {
		select {
		case w := <-b.in:
			batch = append(batch, w)
		case <-t.C:
			return batch
		case <-b.done:
			return batch
		}
	}
	return batch
}

// drainFail answers attempts that were racing into the collector as it
// stopped. in is unbuffered, so only senders blocked right now can
// land here; anyone later is refused by commit's done case.
func (b *admitBatcher) drainFail() {
	for {
		select {
		case w := <-b.in:
			w.out <- batchOutcome{err: errRuntimeStopped}
		default:
			return
		}
	}
}

// stop terminates the collector and waits for it and every in-flight
// round to finish. Rounds still talking to participants finish against
// the still-running serve goroutines; Stop tears those down after.
func (b *admitBatcher) stop() {
	close(b.done)
	b.wg.Wait()
}

// batchMember is the coordinator's per-member state for one round.
type batchMember struct {
	w      *batchWork
	id     string
	shares map[topo.HostID]qos.ResourceVector
	res    map[topo.HostID]*broker.MultiReservation
	span   obs.ActiveSpan
	// refusal and failure split the member's prepare outcomes like
	// commitPlan: a refusal (ErrInsufficient, retryable staleness)
	// wins over a transport/participant failure when both occurred.
	refusal error
	failure error
	done    bool
}

// fail records the member's terminal error for this round.
func (m *batchMember) fail(err error) {
	if errors.Is(err, broker.ErrInsufficient) {
		if m.refusal == nil {
			m.refusal = err
		}
	} else if m.failure == nil {
		m.failure = err
	}
}

// err returns the member's terminal error, refusals first.
func (m *batchMember) err() error {
	if m.refusal != nil {
		return m.refusal
	}
	return m.failure
}

// finish delivers the member's outcome exactly once.
func (m *batchMember) finish(res reservation, err error) {
	if m.done {
		return
	}
	m.done = true
	if err != nil {
		m.span.EndErr(err, admitStatus(err))
	} else {
		m.span.End()
	}
	m.w.out <- batchOutcome{res: res, err: err}
}

// commitBatch runs one group-commit round: a batched idempotent
// two-phase commit of every member's plan, one batch-prepare and one
// batch-commit (or batch-abort) message per participating host. The
// round's fabric calls run under the first live member's context (the
// round leader) — each member's own deadline still bounds its wait in
// commit(). Per-member all-or-nothing and abort-all semantics match
// commitPlan exactly; members only share the messages and the
// participants' stripe sweeps.
func (rt *Runtime) commitBatch(batch []*batchWork) {
	admit := rt.admit
	admit.Batches.Inc()
	admit.BatchMembers.Add(float64(len(batch)))
	admit.BatchSize.Observe(float64(len(batch)))
	if len(batch) > 1 {
		admit.Coalesced.Add(float64(len(batch)))
	}

	var expiry broker.Time
	if rt.leaseTTL > 0 {
		expiry = rt.clock.Now() + rt.leaseTTL
	}

	// Split every member by owning host; members whose deadline already
	// passed (or whose plan cannot be split) fail fast and never join
	// the fan-out. The first live member leads: its context bounds the
	// round's fabric calls and its batch span parents them.
	members := make([]*batchMember, 0, len(batch))
	byID := make(map[string]*batchMember, len(batch))
	hosts := make(map[topo.HostID][]*batchMember)
	var leader *batchMember
	for _, w := range batch {
		m := &batchMember{w: w, id: rt.reqID(w.main), res: make(map[topo.HostID]*broker.MultiReservation)}
		m.span = w.span.Child(obs.StageBatchCommit, string(w.main))
		m.span.Event(obs.EventBatchRound, fmt.Sprintf("size %d", len(batch)))
		if err := w.ctx.Err(); err != nil {
			m.finish(nil, fmt.Errorf("proxy: batched commit abandoned at deadline: %w", err))
			continue
		}
		shares, err := rt.splitByHost(w.req)
		if err != nil {
			m.finish(nil, err)
			continue
		}
		if len(shares) == 0 {
			m.finish(&reservationSet{}, nil)
			continue
		}
		m.shares = shares
		members = append(members, m)
		byID[m.id] = m
		for h := range shares {
			hosts[h] = append(hosts[h], m)
		}
		if leader == nil {
			leader = m
		}
	}
	if leader == nil {
		return
	}
	ctx := obs.ContextWithSpan(leader.w.ctx, leader.span)
	from := transport.Addr(leader.w.main)
	fabric := rt.fabric

	// Batched prepare fan-out: one message per participating host
	// carrying every member's share there.
	type hostPrep struct {
		host  topo.HostID
		reply batchPrepareReply
		err   error
	}
	prepares := make(chan hostPrep, len(hosts))
	for h, ms := range hosts {
		go func(h topo.HostID, ms []*batchMember) {
			shares := make([]batchMemberShare, len(ms))
			for i, m := range ms {
				shares[i] = batchMemberShare{id: m.id, req: m.shares[h]}
			}
			resp, err := fabric.Call(ctx, from, transport.Addr(h), msgBatchPrepare,
				batchPrepareRequest{members: shares, expiry: expiry})
			if err != nil {
				prepares <- hostPrep{host: h, err: err}
				return
			}
			rep, ok := resp.(batchPrepareReply)
			if !ok {
				prepares <- hostPrep{host: h, err: fmt.Errorf("proxy: unexpected batch prepare reply %T", resp)}
				return
			}
			prepares <- hostPrep{host: h, reply: rep}
		}(h, ms)
	}
	for range hosts {
		r := <-prepares
		if r.err != nil {
			// The whole host call failed; every member with a share
			// there loses this round.
			for _, m := range hosts[r.host] {
				m.fail(r.err)
			}
			continue
		}
		admit.StripeLocks.Add(float64(r.reply.stats.StripesLocked))
		if saved := r.reply.stats.StripesSolo - r.reply.stats.StripesLocked; saved > 0 {
			admit.StripeAmortized.Add(float64(saved))
		}
		for _, mr := range r.reply.results {
			m := byID[mr.id]
			if m == nil {
				continue
			}
			if mr.err != nil {
				m.fail(mr.err)
			} else {
				m.res[r.host] = mr.res
			}
		}
	}

	// abortIDs sends one batch-abort per host covering the given
	// members' shares there. Detached context like commitPlan's
	// abortAll: cleanup proceeds past the leader's deadline, bounded,
	// and lost aborts are reclaimed by the lease sweep.
	abortIDs := func(failed []*batchMember) {
		perHost := make(map[topo.HostID][]string)
		for _, m := range failed {
			for h := range m.shares {
				perHost[h] = append(perHost[h], m.id)
			}
		}
		if len(perHost) == 0 {
			return
		}
		actx, cancel := context.WithTimeout(context.Background(), abortTimeout)
		defer cancel()
		actx = obs.ContextWithSpan(actx, obs.SpanFromContext(ctx))
		var wg sync.WaitGroup
		for h, ids := range perHost {
			wg.Add(1)
			go func(h topo.HostID, ids []string) {
				defer wg.Done()
				_, _ = fabric.Call(actx, from, transport.Addr(h), msgBatchAbort, batchAbortRequest{ids: ids})
			}(h, ids)
		}
		wg.Wait()
	}

	// Members that failed or were refused anywhere abort everywhere;
	// the rest move to commit.
	var aborting, committing []*batchMember
	for _, m := range members {
		if m.err() != nil {
			aborting = append(aborting, m)
		} else {
			committing = append(committing, m)
		}
	}
	abortIDs(aborting)
	for _, m := range aborting {
		m.finish(nil, m.err())
	}
	if len(committing) == 0 {
		return
	}

	// Commit point, per member: journal each decision before any
	// participant learns of it (recovery presumes abort otherwise). A
	// member whose decision could not be made durable fails here, is
	// left out of the commit fan-out, and is aborted everywhere with the
	// partial commits below.
	for _, m := range committing {
		if err := rt.recordDecide(m.w.main, m.id, expiry); err != nil {
			m.fail(err)
		}
	}

	// Batched commit fan-out: one message per host with the admitted
	// members' IDs there.
	commitHosts := make(map[topo.HostID][]*batchMember)
	for _, m := range committing {
		if m.err() != nil {
			continue
		}
		for h := range m.shares {
			commitHosts[h] = append(commitHosts[h], m)
		}
	}
	type hostCommit struct {
		host topo.HostID
		ms   []*batchMember
		errs []error
		err  error
	}
	commits := make(chan hostCommit, len(commitHosts))
	for h, ms := range commitHosts {
		go func(h topo.HostID, ms []*batchMember) {
			ids := make([]string, len(ms))
			for i, m := range ms {
				ids[i] = m.id
			}
			resp, err := fabric.Call(ctx, from, transport.Addr(h), msgBatchCommit,
				batchCommitRequest{ids: ids, expiry: expiry})
			if err != nil {
				commits <- hostCommit{host: h, ms: ms, err: err}
				return
			}
			rep, ok := resp.(batchCommitReply)
			if !ok {
				commits <- hostCommit{host: h, ms: ms, err: fmt.Errorf("proxy: unexpected batch commit reply %T", resp)}
				return
			}
			commits <- hostCommit{host: h, ms: ms, errs: rep.errs}
		}(h, ms)
	}
	for range commitHosts {
		r := <-commits
		for i, m := range r.ms {
			if r.err != nil {
				m.fail(r.err)
			} else if i < len(r.errs) && r.errs[i] != nil {
				m.fail(r.errs[i])
			}
		}
	}

	// A member whose commit partially failed rolls back everywhere
	// (aborting a committed share releases it); fully committed members
	// hand their shares to the session.
	var failed []*batchMember
	for _, m := range committing {
		if m.err() != nil {
			failed = append(failed, m)
		}
	}
	abortIDs(failed)
	for _, m := range committing {
		if err := m.err(); err != nil {
			m.finish(nil, err)
			continue
		}
		parts := make([]*broker.MultiReservation, 0, len(m.res))
		for _, h := range hostOrder(m.res) {
			parts = append(parts, m.res[h])
		}
		m.finish(rt.journal(&reservationSet{parts: parts}, m.id, hostOrder(m.res)), nil)
	}
}

// hostOrder returns the map's hosts in a deterministic order so a
// member's reservation parts don't depend on map iteration.
func hostOrder(m map[topo.HostID]*broker.MultiReservation) []topo.HostID {
	out := make([]topo.HostID, 0, len(m))
	for h := range m {
		out = append(out, h)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
