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
// The body is decoded in one pass by spec.EstablishRequest, which keeps
// the service model and binding as sub-slices of the body; they are
// interned by their bytes (spec.Catalog), so each distinct model is
// decoded, built and compiled once per process however many sessions
// carry it. A request body over 1 MiB is refused with 413. Replies are
// compact JSON.
//
// A session is named by the sequence number of the two-phase-commit
// request that admitted it, which a -recover restart advances past
// every logged request: an ID handed out before a crash never names a
// session admitted after it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

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
// each time, not copied at admission: a /renegotiate changes the level
// mid-flight, and a reply must report the level the books hold.
func planOf(sess *proxy.Session) (level string, rank int, psi float64) {
	p := sess.CurrentPlan()
	if p == nil {
		return "", 0, 0
	}
	return p.EndToEnd.Name, p.Rank, p.Psi
}

type establishReply struct {
	ID       string  `json:"id"`
	Service  string  `json:"service"`
	MainHost string  `json:"mainHost"`
	Level    string  `json:"level"`
	Rank     int     `json:"rank"`
	Psi      float64 `json:"psi"`
}

// statusReply answers heartbeat and teardown.
type statusReply struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

type specReply struct {
	MainHost string        `json:"mainHost"`
	Duration float64       `json:"duration"`
	Session  *spec.Session `json:"session"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// maxBody caps a request body; maxPooledBuf is the largest buffer a
// pool takes back, so one outsized body does not pin its memory.
const (
	maxBody      = 1 << 20
	maxPooledBuf = 64 << 10
)

// bodies recycles request-body buffers and replies encoded-reply
// buffers. They are two pools so that a small reply buffer is never
// handed out for a session document and grown again.
var bodies, replies bufPool

// establishes recycles decoded session requests. A decoded request
// aliases its body, so it goes back to its pool, reset, before the body
// goes back to bodies.
var establishes = sync.Pool{New: func() any { return new(spec.EstablishRequest) }}

func putEstablish(req *spec.EstablishRequest) {
	req.Reset()
	establishes.Put(req)
}

type bufPool struct{ pool sync.Pool }

func (p *bufPool) get() *bytes.Buffer {
	if buf, ok := p.pool.Get().(*bytes.Buffer); ok {
		buf.Reset()
		return buf
	}
	return new(bytes.Buffer)
}

func (p *bufPool) put(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		p.pool.Put(buf)
	}
}

// readBody reads r's body, capped at maxBody, into a pooled buffer
// presized from Content-Length; the caller returns it with bodies.put.
// On failure it has answered 413 for an oversized body and 400
// otherwise.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	buf := bodies.get()
	if n := r.ContentLength; n > 0 && n <= maxBody {
		// ReadFrom wants bytes.MinRead free before each read, the last
		// one that sees EOF included.
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		bodies.put(buf)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "read body: %v", err)
		} else {
			httpError(w, http.StatusBadRequest, "read body: %v", err)
		}
		return nil, false
	}
	return buf, true
}

// writeJSON encodes v compactly into a pooled buffer and sends it with
// one Write.
func writeJSON(w http.ResponseWriter, v any) {
	buf := replies.get()
	defer replies.put(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
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
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	defer bodies.put(body)
	var mainHost topo.HostID
	var service *svc.Service
	var binding svc.Binding
	if body.Len() == 0 {
		// The environment's own model: no document to render or build.
		offer, err := s.env.SampleSession()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "sample: %v", err)
			return
		}
		mainHost, service, binding = offer.MainHost, offer.Service, offer.Binding
	} else {
		req := establishes.Get().(*spec.EstablishRequest)
		defer putEstablish(req)
		if err := req.Decode(body.Bytes()); err != nil {
			httpError(w, http.StatusBadRequest, "parse: %v", err)
			return
		}
		if req.Session == nil || len(req.MainHost) == 0 {
			httpError(w, http.StatusBadRequest, "need mainHost and session")
			return
		}
		mainHost = topo.HostID(req.MainHost)
		var err error
		service, binding, err = s.models.Build(req.Session)
		if err != nil {
			var typeErr *json.UnmarshalTypeError
			if errors.As(err, &typeErr) {
				httpError(w, http.StatusBadRequest, "parse: %v", err)
			} else {
				httpError(w, http.StatusConflict, "establish: %v", err)
			}
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
	id := "s-" + strconv.FormatUint(sess.AdmissionSeq(), 10)
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
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	defer bodies.put(body)
	var req spec.RenegotiateRequest
	if err := req.Decode(body.Bytes()); err != nil {
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

// sessionID returns the first id value of a raw query, exactly as
// url.ParseQuery(query).Get("id") does but without building the
// url.Values: a part holding a semicolon, or whose key or value does
// not unescape, is skipped, and '+' is a space. It allocates only to
// unescape.
func sessionID(query string) string {
	for query != "" {
		var part string
		part, query, _ = strings.Cut(query, "&")
		if strings.Contains(part, ";") {
			continue
		}
		key, value, _ := strings.Cut(part, "=")
		if key, err := url.QueryUnescape(key); err != nil || key != "id" {
			continue
		}
		if value, err := url.QueryUnescape(value); err == nil {
			return value
		}
	}
	return ""
}

// lookup pops nothing: the entry stays live until teardown.
func (s *served) lookup(w http.ResponseWriter, r *http.Request) (string, *proxy.Session) {
	id := sessionID(r.URL.RawQuery)
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
	writeJSON(w, statusReply{ID: id, Status: "ok"})
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
	writeJSON(w, statusReply{ID: id, Status: "released"})
}

func main() {
	var (
		addr      = flag.String("addr", "localhost:8080", "listen address")
		walDir    = flag.String("wal", "qosserved-wal", "write-ahead-log directory (empty disables durability)")
		recoverFl = flag.Bool("recover", true, "replay an existing WAL on startup")
		seed      = flag.Int64("seed", 1, "environment seed (-recover refuses a log written under another)")
		lease     = flag.Float64("lease", 30, "session lease TTL in seconds (0 disables leasing)")
	)
	flag.Parse()

	if *walDir != "" {
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			log.Fatalf("qosserved: %v", err)
		}
	}
	reg := obs.New()
	env, err := sim.NewServedEnv(sim.ServedOptions{
		Seed:     *seed,
		LeaseTTL: broker.Time(*lease),
		WALDir:   *walDir,
		Recover:  *recoverFl && *walDir != "",
		Registry: reg,
	})
	if errors.Is(err, proxy.ErrForeignLog) {
		log.Fatalf("qosserved: %v: restart with the -seed that wrote %s, or point -wal elsewhere", err, *walDir)
	}
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
