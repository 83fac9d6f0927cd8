// Command qosserved serves the QoSProxy runtime over HTTP/JSON: session
// establishment, heartbeat and teardown on internal/spec documents,
// plus /metrics, /snapshot and pprof. The reservation books are
// write-ahead-logged, so a restarted daemon pointed at the same -wal
// directory recovers its pre-crash reservations (-recover, on by
// default) instead of forgetting them.
//
// Endpoints:
//
//	GET  /spec            sample a paper-shaped session offer
//	POST /establish       admit a session (empty body: sample one)
//	POST /heartbeat?id=S  renew session S's leases
//	POST /renegotiate     move a session to another level (delta 2PC)
//	POST /teardown?id=S   release session S
//	GET  /metrics         Prometheus exposition
//	GET  /snapshot        JSON metrics snapshot
//	GET  /debug/pprof/    runtime profiles
//
// POST /establish accepts {"mainHost": "H1", "session": {...spec...}};
// the session document's availability snapshot is advisory (the
// three-phase protocol collects live availability over the fabric).
// The document's service model is interned by its bytes (spec.Catalog),
// so each distinct model is decoded, built and compiled once per
// process however many sessions carry it.
//
// A session is named by the sequence number of the two-phase-commit
// request that admitted it, which a -recover restart advances past
// every logged request: an ID handed out before a crash never names a
// session admitted after it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"qosres/internal/adapt"
	"qosres/internal/broker"
	"qosres/internal/obs"
	"qosres/internal/proxy"
	"qosres/internal/sim"
	"qosres/internal/spec"
	"qosres/internal/svc"
	"qosres/internal/topo"
)

// served is the HTTP front end's state: the deployment, the catalog of
// service models it has built, and the table of live sessions it handed
// out. The table is in-memory on purpose — after a restart the
// recovered holds are leased-but-unowned, and the lease sweep reclaims
// them unless their clients re-establish. That is the amnesia contract:
// books survive a crash, client handles do not.
type served struct {
	env    *sim.ServedEnv
	models *spec.Catalog

	mu       sync.Mutex
	sessions map[string]*proxy.Session
}

func newServed(env *sim.ServedEnv) *served {
	return &served{env: env, models: spec.NewCatalog(), sessions: map[string]*proxy.Session{}}
}

// planOf reports a session's live level. It is read from the session
// each time, not copied at admission: a renegotiation — client-driven
// via /renegotiate or controller-driven under -adapt — changes the level
// mid-flight, and a reply must report the level the books hold.
func planOf(sess *proxy.Session) (level string, rank int, psi float64) {
	p := sess.CurrentPlan()
	if p == nil {
		return "", 0, 0
	}
	return p.EndToEnd.Name, p.Rank, p.Psi
}

type establishRequest struct {
	MainHost string           `json:"mainHost"`
	Session  *spec.RawSession `json:"session"`
}

type establishReply struct {
	ID       string  `json:"id"`
	Service  string  `json:"service"`
	MainHost string  `json:"mainHost"`
	Level    string  `json:"level"`
	Rank     int     `json:"rank"`
	Psi      float64 `json:"psi"`
}

type specReply struct {
	MainHost string        `json:"mainHost"`
	Duration float64       `json:"duration"`
	Session  *spec.Session `json:"session"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *served) handleSpec(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	offer, err := s.env.SampleSession()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "sample: %v", err)
		return
	}
	writeJSON(w, specReply{
		MainHost: string(offer.MainHost),
		Duration: float64(offer.Duration),
		Session:  offer.Doc,
	})
}

func (s *served) handleEstablish(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var mainHost topo.HostID
	var service *svc.Service
	var binding svc.Binding
	if len(body) == 0 {
		// The environment's own model: no document to render or build.
		offer, err := s.env.SampleSession()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "sample: %v", err)
			return
		}
		mainHost, service, binding = offer.MainHost, offer.Service, offer.Binding
	} else {
		var req establishRequest
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, "parse: %v", err)
			return
		}
		if req.Session == nil || req.MainHost == "" {
			httpError(w, http.StatusBadRequest, "need mainHost and session")
			return
		}
		mainHost = topo.HostID(req.MainHost)
		service, binding, err = s.models.Build(req.Session)
		var typeErr *json.UnmarshalTypeError
		switch {
		case errors.As(err, &typeErr):
			httpError(w, http.StatusBadRequest, "parse: %v", err)
			return
		case err != nil:
			httpError(w, http.StatusConflict, "establish: %v", err)
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
	defer cancel()
	sess, err := s.env.EstablishModel(ctx, mainHost, service, binding)
	if err != nil {
		httpError(w, http.StatusConflict, "establish: %v", err)
		return
	}
	id := fmt.Sprintf("s-%d", sess.AdmissionSeq())
	s.mu.Lock()
	s.sessions[id] = sess
	s.mu.Unlock()
	level, rank, psi := planOf(sess)
	writeJSON(w, establishReply{
		ID:       id,
		Service:  service.Name,
		MainHost: string(mainHost),
		Level:    level,
		Rank:     rank,
		Psi:      psi,
	})
}

// handleRenegotiate moves an established session to the requested
// end-to-end level through the runtime's delta-reservation path: only
// the requirement difference is negotiated over the fabric, a refused
// upgrade leaves the session untouched at its old level, and the level
// change is WAL-journaled, so the books a -recover restart replays hold
// the renegotiated amounts.
func (s *served) handleRenegotiate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var req spec.RenegotiateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "parse: %v", err)
		return
	}
	if req.Session == "" || req.Level == "" {
		httpError(w, http.StatusBadRequest, "need session and level")
		return
	}
	s.mu.Lock()
	sess := s.sessions[req.Session]
	s.mu.Unlock()
	if sess == nil {
		httpError(w, http.StatusNotFound, "unknown session %s", req.Session)
		return
	}
	_, before, _ := planOf(sess)
	ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
	defer cancel()
	if err := s.env.Renegotiate(ctx, sess, req.Level); err != nil {
		httpError(w, http.StatusConflict, "renegotiate %s: %v", req.Session, err)
		return
	}
	level, rank, _ := planOf(sess)
	outcome := "unchanged"
	switch {
	case rank > before:
		outcome = "upgraded"
	case rank < before:
		outcome = "downgraded"
	}
	writeJSON(w, spec.RenegotiateReply{
		Session: req.Session,
		Level:   level,
		Rank:    rank,
		Outcome: outcome,
	})
}

// lookup pops nothing: the entry stays live until teardown.
func (s *served) lookup(w http.ResponseWriter, r *http.Request) (string, *proxy.Session) {
	id := r.URL.Query().Get("id")
	if id == "" {
		httpError(w, http.StatusBadRequest, "need id")
		return "", nil
	}
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		httpError(w, http.StatusNotFound, "unknown session %s", id)
		return "", nil
	}
	return id, sess
}

func (s *served) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	id, sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	if err := sess.Heartbeat(); err != nil {
		// The lease lapsed (or the host restarted) between heartbeats:
		// the holds are gone, so the handle is dead — drop it.
		s.mu.Lock()
		delete(s.sessions, id)
		s.mu.Unlock()
		httpError(w, http.StatusGone, "heartbeat %s: %v", id, err)
		return
	}
	writeJSON(w, map[string]string{"id": id, "status": "ok"})
}

func (s *served) handleTeardown(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	id, sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
	if err := sess.Release(); err != nil {
		httpError(w, http.StatusGone, "teardown %s: %v", id, err)
		return
	}
	writeJSON(w, map[string]string{"id": id, "status": "released"})
}

func main() {
	var (
		addr      = flag.String("addr", "localhost:8080", "listen address")
		walDir    = flag.String("wal", "qosserved-wal", "write-ahead-log directory (empty disables durability)")
		recoverFl = flag.Bool("recover", true, "replay an existing WAL on startup")
		seed      = flag.Int64("seed", 1, "environment seed (keep stable across restarts of one deployment)")
		lease     = flag.Float64("lease", 30, "session lease TTL in seconds (0 disables leasing)")
		rate      = flag.Float64("rate", 60, "sampled session mix rate (sessions per 60 TUs)")
		adaptOn   = flag.Bool("adapt", false, "run the mid-session adaptation controller")
		adaptHigh = flag.Float64("adapt-high", 0.85, "utilization at or above which brownout downgrades run")
		adaptLow  = flag.Float64("adapt-low", 0.55, "utilization below which upgrades run")
		adaptTick = flag.Duration("adapt-every", 5*time.Second, "adaptation controller tick interval")
	)
	flag.Parse()

	if *walDir != "" {
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			log.Fatalf("qosserved: %v", err)
		}
	}
	reg := obs.New()
	var policy *adapt.Policy
	if *adaptOn {
		p := adapt.DefaultPolicy()
		p.HighWater = *adaptHigh
		p.LowWater = *adaptLow
		// One cooldown covers a couple of controller ticks so a session
		// settles at a level before it is reconsidered.
		p.Cooldown = broker.Time(2 * adaptTick.Seconds())
		policy = &p
	}
	env, err := sim.NewServedEnv(sim.ServedOptions{
		Seed:     *seed,
		Rate:     *rate,
		LeaseTTL: broker.Time(*lease),
		WALDir:   *walDir,
		Recover:  *recoverFl && *walDir != "",
		Registry: reg,
		Adapt:    policy,
	})
	if err != nil {
		log.Fatalf("qosserved: %v", err)
	}

	s := newServed(env)
	mux := obs.NewMux(reg)
	mux.HandleFunc("/spec", s.handleSpec)
	mux.HandleFunc("/establish", s.handleEstablish)
	mux.HandleFunc("/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("/renegotiate", s.handleRenegotiate)
	mux.HandleFunc("/teardown", s.handleTeardown)

	stop := make(chan struct{})
	var sweeper sync.WaitGroup
	if ctrl := env.Controller(); ctrl != nil {
		sweeper.Add(1)
		go func() {
			defer sweeper.Done()
			tick := time.NewTicker(*adaptTick)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					actions := ctrl.Tick(context.Background(), env.Clock().Now())
					for _, a := range actions {
						if a.Err != nil {
							log.Printf("qosserved: adapt: renegotiate to %s refused: %v", a.Level, a.Err)
							continue
						}
						log.Printf("qosserved: adapt: session moved %d -> %d (%s)", a.FromRank, a.ToRank, a.Level)
					}
				case <-stop:
					return
				}
			}
		}()
	}
	if *lease > 0 {
		sweeper.Add(1)
		go func() {
			defer sweeper.Done()
			tick := time.NewTicker(time.Duration(*lease * float64(time.Second) / 2))
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if n := env.SweepLeases(); n > 0 {
						log.Printf("qosserved: lease sweep reclaimed %d holds", n)
					}
				case <-stop:
					return
				}
			}
		}()
	}

	// Catch the signals before the listener is up, so a stop that
	// arrives the moment the daemon answers still shuts down cleanly.
	// SIGTERM is what a service manager's stop (and plain kill) sends.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	srv := &http.Server{Addr: *addr, Handler: mux}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	log.Printf("qosserved: serving on %s (wal=%q recover=%v lease=%gs)",
		*addr, *walDir, *recoverFl && *walDir != "", *lease)

	select {
	case err := <-done:
		log.Fatalf("qosserved: %v", err)
	case <-sig:
	}
	close(stop)
	sweeper.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	if err := env.Close(); err != nil {
		log.Printf("qosserved: close: %v", err)
	}
}
