package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"qosres/internal/broker"
	"qosres/internal/obs"
	"qosres/internal/sim"
	"qosres/internal/spec"
	"qosres/internal/wal"
)

// daemonArgsEnv, when set, turns the test binary into the daemon: its
// value is the qosserved command line. TestServedStopsCleanlyOnSIGTERM
// re-executes the binary this way to signal a real process.
const daemonArgsEnv = "QOSSERVED_TEST_DAEMON_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(daemonArgsEnv); ok {
		os.Args = append([]string{"qosserved"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// manualClock lets the test decide what time it is, so lease expiry is
// deterministic instead of wall-clock-raced.
type manualClock struct {
	mu sync.Mutex
	t  broker.Time
}

func (c *manualClock) Now() broker.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) advance(d broker.Time) {
	c.mu.Lock()
	c.t += d
	c.mu.Unlock()
}

// newTestServer builds a serving deployment over dir and fronts it with
// an httptest server wired exactly like main().
func newTestServer(t *testing.T, dir string, recov bool, clk *manualClock) (*served, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	env, err := sim.NewServedEnv(sim.ServedOptions{
		Seed:     7,
		LeaseTTL: 5,
		WALDir:   dir,
		Recover:  recov,
		Registry: reg,
		Clock:    clk,
	})
	if err != nil {
		t.Fatalf("NewServedEnv: %v", err)
	}
	s := newServed(env)
	mux := obs.NewMux(reg)
	mux.HandleFunc("/spec", s.handleSpec)
	mux.HandleFunc("/establish", s.handleEstablish)
	mux.HandleFunc("/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("/teardown", s.handleTeardown)
	return s, httptest.NewServer(mux), reg
}

func postJSON(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, out
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, out)
	}
	return string(out)
}

// TestServedLifecycle drives the full HTTP session lifecycle: sample a
// spec, establish it explicitly, heartbeat, tear down.
func TestServedLifecycle(t *testing.T) {
	clk := &manualClock{}
	s, srv, _ := newTestServer(t, t.TempDir(), false, clk)
	defer srv.Close()
	defer s.env.Close()

	var offer specReply
	if err := json.Unmarshal([]byte(getBody(t, srv.URL+"/spec")), &offer); err != nil {
		t.Fatalf("parse /spec: %v", err)
	}
	if offer.MainHost == "" || offer.Session == nil || offer.Duration <= 0 {
		t.Fatalf("incomplete offer: %+v", offer)
	}

	body, _ := json.Marshal(map[string]any{"mainHost": offer.MainHost, "session": offer.Session})
	code, reply := postJSON(t, srv.URL+"/establish", body)
	if code != http.StatusOK {
		t.Fatalf("establish: status %d: %s", code, reply)
	}
	var est establishReply
	if err := json.Unmarshal(reply, &est); err != nil {
		t.Fatalf("parse establish reply: %v", err)
	}
	if est.ID == "" || est.Level == "" || est.Service != offer.Session.Name {
		t.Fatalf("incomplete establish reply: %+v", est)
	}

	if code, out := postJSON(t, srv.URL+"/heartbeat?id="+est.ID, nil); code != http.StatusOK {
		t.Fatalf("heartbeat: status %d: %s", code, out)
	}
	if code, out := postJSON(t, srv.URL+"/teardown?id="+est.ID, nil); code != http.StatusOK {
		t.Fatalf("teardown: status %d: %s", code, out)
	}
	if code, _ := postJSON(t, srv.URL+"/teardown?id="+est.ID, nil); code != http.StatusNotFound {
		t.Fatalf("double teardown: status %d, want 404", code)
	}

	// Sampled establish: empty body makes the server draw the session.
	code, reply = postJSON(t, srv.URL+"/establish", nil)
	if code != http.StatusOK {
		t.Fatalf("sampled establish: status %d: %s", code, reply)
	}
}

// TestServedRestartRecovery is the crash-amnesia fix exercised over the
// wire: establish sessions, kill the server without teardown, restart a
// new deployment over the same WAL directory, and verify the books were
// replayed — the abandoned holds come back leased, lapse, and are swept
// rather than leaking, while new admissions proceed normally.
func TestServedRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	clk := &manualClock{}

	s1, srv1, _ := newTestServer(t, dir, false, clk)
	var ids []string
	for i := 0; i < 3; i++ {
		code, reply := postJSON(t, srv1.URL+"/establish", nil)
		if code != http.StatusOK {
			t.Fatalf("establish %d: status %d: %s", i, code, reply)
		}
		var est establishReply
		if err := json.Unmarshal(reply, &est); err != nil {
			t.Fatalf("parse establish reply: %v", err)
		}
		ids = append(ids, est.ID)
	}
	metrics := getBody(t, srv1.URL+"/metrics")
	if !strings.Contains(metrics, obs.MetricWALAppends) {
		t.Fatalf("no %s in exposition before restart", obs.MetricWALAppends)
	}
	// Crash: no teardown, no heartbeat — the daemon just goes away.
	srv1.Close()
	if err := s1.env.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Down long enough for every lease (TTL 5) to lapse.
	clk.advance(60)

	s2, srv2, _ := newTestServer(t, dir, true, clk)
	defer srv2.Close()
	defer s2.env.Close()

	metrics = getBody(t, srv2.URL+"/metrics")
	for _, want := range []string{obs.MetricWALReplayRecords, obs.MetricRecoveryLeasesSwept} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("no %s in exposition after recovery; got:\n%s", want, metrics)
		}
	}
	if strings.Contains(metrics, obs.MetricWALReplayRecords+" 0\n") {
		t.Fatalf("recovery replayed zero records")
	}
	if strings.Contains(metrics, obs.MetricRecoveryLeasesSwept+" 0\n") {
		t.Fatalf("recovery swept zero lapsed leases — pre-crash holds leaked or vanished")
	}

	// The recovered deployment admits new sessions...
	code, reply := postJSON(t, srv2.URL+"/establish", nil)
	if code != http.StatusOK {
		t.Fatalf("post-recovery establish: status %d: %s", code, reply)
	}
	var fresh establishReply
	if err := json.Unmarshal(reply, &fresh); err != nil {
		t.Fatalf("parse establish reply: %v", err)
	}
	// ...under IDs no pre-crash client holds: the session table did not
	// survive (the amnesia contract covers books, not client handles),
	// and a stale handle must never reach a session admitted since.
	for _, id := range ids {
		if id == fresh.ID {
			t.Fatalf("post-recovery session reuses pre-crash ID %s", id)
		}
		if code, _ := postJSON(t, srv2.URL+"/heartbeat?id="+id, nil); code != http.StatusNotFound {
			t.Fatalf("heartbeat of pre-crash session %s: status %d, want 404", id, code)
		}
		if code, _ := postJSON(t, srv2.URL+"/teardown?id="+id, nil); code != http.StatusNotFound {
			t.Fatalf("teardown of pre-crash session %s: status %d, want 404", id, code)
		}
	}
	if code, out := postJSON(t, srv2.URL+"/heartbeat?id="+fresh.ID, nil); code != http.StatusOK {
		t.Fatalf("heartbeat of post-recovery session: status %d: %s", code, out)
	}
	if n := s2.env.SweepLeases(); n != 0 {
		t.Fatalf("recovery left %d expired holds for the periodic sweep", n)
	}
}

// daemon is the test binary re-executed as a qosserved process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	logs *bytes.Buffer
	done chan struct{} // closed once the process has exited
	err  error         // its exit status, valid after done
}

// startDaemon runs qosserved with args on a free loopback port and
// returns once an empty-body establish succeeds, with that admission's
// reply; the admission also puts records in the log. The process is
// killed when the test ends.
func startDaemon(t *testing.T, args string) (*daemon, establishReply) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	d := &daemon{cmd: exec.Command(os.Args[0]), base: "http://" + addr, logs: &bytes.Buffer{}, done: make(chan struct{})}
	d.cmd.Env = append(os.Environ(), daemonArgsEnv+"=-addr "+addr+" "+args)
	d.cmd.Stderr = d.logs
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		_ = d.cmd.Process.Kill()
		<-d.done
	})

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(d.base+"/establish", "application/json", nil)
		if err == nil {
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("establish: status %d: %s (%v)", resp.StatusCode, body, err)
			}
			var est establishReply
			if err := json.Unmarshal(body, &est); err != nil || est.ID == "" {
				t.Fatalf("establish reply %s: %v", body, err)
			}
			return d, est
		}
		select {
		case <-d.done:
			t.Fatalf("daemon exited before serving: %v\n%s", d.err, d.logs.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never served on %s: %v\n%s", addr, err, d.logs.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServedStopsCleanlyOnSIGTERM is the service-manager stop: kill
// (SIGTERM) must run the same shutdown as Ctrl-C — sweeper down, HTTP
// drained, WAL closed — and exit 0, leaving a log that replays to its
// end with no torn tail.
func TestServedStopsCleanlyOnSIGTERM(t *testing.T) {
	dir := t.TempDir()
	d, _ := startDaemon(t, "-wal "+dir+" -lease 30")

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.done:
		if d.err != nil {
			t.Fatalf("daemon did not exit 0 on SIGTERM: %v\n%s", d.err, d.logs.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon still running 10s after SIGTERM\n%s", d.logs.String())
	}
	if strings.Contains(d.logs.String(), "qosserved: close:") {
		t.Errorf("shutdown reported a close error:\n%s", d.logs.String())
	}

	records, torn, err := wal.Replay(dir)
	if err != nil || torn {
		t.Fatalf("replay after clean stop: torn=%v err=%v", torn, err)
	}
	if len(records) == 0 {
		t.Fatal("the admitted session left no record in the log")
	}
}

// TestServedSessionIDsNeverRepeatAfterSIGKILL is the restart hazard of
// a per-boot session counter: a daemon SIGKILLed and restarted with
// -recover over the same log must never hand a pre-crash ID to a new
// session, or a stale client's heartbeat or teardown would act on it.
func TestServedSessionIDsNeverRepeatAfterSIGKILL(t *testing.T) {
	args := "-wal " + t.TempDir() + " -lease 30"
	d1, before := startDaemon(t, args)
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-d1.done

	d2, after := startDaemon(t, args+" -recover")
	if after.ID == before.ID {
		t.Fatalf("post-recovery session reuses pre-crash ID %s", before.ID)
	}
	if code, out := postJSON(t, d2.base+"/heartbeat?id="+before.ID, nil); code != http.StatusNotFound {
		t.Fatalf("heartbeat of pre-crash session %s: status %d, want 404: %s", before.ID, code, out)
	}
	if code, out := postJSON(t, d2.base+"/heartbeat?id="+after.ID, nil); code != http.StatusOK {
		t.Fatalf("heartbeat of post-recovery session %s: status %d: %s", after.ID, code, out)
	}
}

// failingReader stands in for a client connection that breaks mid-body.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

// TestServedBodyLimits: a body over the 1 MiB cap is refused with 413 by
// both endpoints that read one, whether or not the request declared its
// length; a body that fails to arrive is still a 400.
func TestServedBodyLimits(t *testing.T) {
	env, err := sim.NewServedEnv(sim.ServedOptions{Seed: 1, LeaseTTL: 600})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	s := newServed(env)
	oversized := bytes.Repeat([]byte(" "), maxBody+1)
	for _, ep := range []struct {
		path    string
		handler http.HandlerFunc
	}{
		{"/establish", s.handleEstablish},
		{"/renegotiate", s.handleRenegotiate},
	} {
		for _, tc := range []struct {
			name string
			body io.Reader
			want int
		}{
			{"declared length", bytes.NewReader(oversized), http.StatusRequestEntityTooLarge},
			{"undeclared length", io.MultiReader(bytes.NewReader(oversized)), http.StatusRequestEntityTooLarge},
			{"broken body", failingReader{}, http.StatusBadRequest},
		} {
			rec := httptest.NewRecorder()
			ep.handler(rec, httptest.NewRequest(http.MethodPost, ep.path, tc.body))
			if rec.Code != tc.want {
				t.Errorf("%s, %s: status %d, want %d: %s", ep.path, tc.name, rec.Code, tc.want, rec.Body)
			}
		}
	}
}

// wideFanInBody is an establish request of a few KB, placed on the
// offered main host and its resources, whose service is valid but joins
// five parallel components of sixteen output levels each in one fan-in:
// a million combinations of upstream levels.
func wideFanInBody(t *testing.T, offer specReply) []byte {
	t.Helper()
	var resource string
	for _, res := range offer.Session.Binding {
		for _, concrete := range res {
			resource = concrete
		}
	}
	cpu := map[string]float64{"cpu": 1}
	doc := &spec.Session{
		Name:         "wide",
		Ranking:      []string{"out"},
		Binding:      map[string]map[string]string{},
		Availability: map[string]float64{resource: 100},
		Components: []spec.Component{{
			ID: "src", In: map[string]map[string]float64{"raw": {"q": 0}},
			Out:       map[string]map[string]float64{"s": {"q": 0}},
			Table:     map[string]map[string]map[string]float64{"raw": {"s": cpu}},
			Resources: []string{"cpu"},
		}},
	}
	joined := map[string]float64{}
	for p := 0; p < 5; p++ {
		id := "p" + strconv.Itoa(p)
		out := map[string]map[string]float64{}
		row := map[string]map[string]float64{}
		for j := 0; j < 16; j++ {
			out["L"+strconv.Itoa(j)] = map[string]float64{"q": float64(j)}
			row["L"+strconv.Itoa(j)] = cpu
		}
		doc.Components = append(doc.Components, spec.Component{
			ID: id, In: map[string]map[string]float64{"s": {"q": 0}}, Out: out,
			Table: map[string]map[string]map[string]float64{"s": row}, Resources: []string{"cpu"},
		})
		doc.Edges = append(doc.Edges, spec.Edge{From: "src", To: id}, spec.Edge{From: id, To: "sink"})
		joined[id+".q"] = 0
	}
	doc.Components = append(doc.Components, spec.Component{
		ID: "sink", In: map[string]map[string]float64{"all": joined},
		Out:   map[string]map[string]float64{"out": {"q": 0}},
		Table: map[string]map[string]map[string]float64{"all": {"out": cpu}}, Resources: []string{"cpu"},
	})
	for _, c := range doc.Components {
		doc.Binding[c.ID] = map[string]string{"cpu": resource}
	}
	body, err := json.Marshal(map[string]any{"mainHost": offer.MainHost, "session": doc})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// wideComponentBody is an /establish body whose second component
// declares 100 input and 100 output levels: 10,000 requirement cells
// for the QRG compiler.
func wideComponentBody(t *testing.T, offer specReply) []byte {
	t.Helper()
	var resource string
	for _, res := range offer.Session.Binding {
		for _, concrete := range res {
			resource = concrete
		}
	}
	cpu := map[string]float64{"cpu": 1}
	in := map[string]map[string]float64{}
	out := map[string]map[string]float64{}
	var ranking []string
	for i := 0; i < 100; i++ {
		in["I"+strconv.Itoa(i)] = map[string]float64{"q": float64(i)}
		out["O"+strconv.Itoa(i)] = map[string]float64{"q": float64(i)}
		ranking = append(ranking, "O"+strconv.Itoa(i))
	}
	doc := &spec.Session{
		Name:         "wide",
		Ranking:      ranking,
		Availability: map[string]float64{resource: 100},
		Components: []spec.Component{{
			ID: "src", In: map[string]map[string]float64{"raw": {"q": 0}},
			Out:       map[string]map[string]float64{"s": {"q": 0}},
			Table:     map[string]map[string]map[string]float64{"raw": {"s": cpu}},
			Resources: []string{"cpu"},
		}, {
			ID: "big", In: in, Out: out,
			Table:     map[string]map[string]map[string]float64{"I0": {"O0": cpu}},
			Resources: []string{"cpu"},
		}},
		Edges:   []spec.Edge{{From: "src", To: "big"}},
		Binding: map[string]map[string]string{"src": {"cpu": resource}, "big": {"cpu": resource}},
	}
	body, err := json.Marshal(map[string]any{"mainHost": offer.MainHost, "session": doc})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestServedRefusesWideComponent posts a document whose one component
// would cost the QRG compiler a 10,000-cell requirement table: the
// daemon refuses it with 409, naming the component.
func TestServedRefusesWideComponent(t *testing.T) {
	s, srv, _ := newTestServer(t, t.TempDir(), false, &manualClock{})
	defer srv.Close()
	defer s.env.Close()

	var offer specReply
	if err := json.Unmarshal([]byte(getBody(t, srv.URL+"/spec")), &offer); err != nil {
		t.Fatalf("parse /spec: %v", err)
	}
	body := wideComponentBody(t, offer)
	code, reply := postJSON(t, srv.URL+"/establish", body)
	if code != http.StatusConflict || !strings.Contains(string(reply), "component big has 100 input × 100 output levels") {
		t.Fatalf("%d-byte wide component: status %d: %s", len(body), code, reply)
	}
}

// TestServedRefusesWideFanIn posts a small document whose fan-in would
// cost the QRG compiler a million-cell table: the daemon refuses it
// with 409 at once instead of stalling.
func TestServedRefusesWideFanIn(t *testing.T) {
	s, srv, _ := newTestServer(t, t.TempDir(), false, &manualClock{})
	defer srv.Close()
	defer s.env.Close()

	var offer specReply
	if err := json.Unmarshal([]byte(getBody(t, srv.URL+"/spec")), &offer); err != nil {
		t.Fatalf("parse /spec: %v", err)
	}
	body := wideFanInBody(t, offer)
	start := time.Now()
	code, reply := postJSON(t, srv.URL+"/establish", body)
	took := time.Since(start)
	if code != http.StatusConflict || !strings.Contains(string(reply), "fan-in component sink") {
		t.Fatalf("%d-byte wide fan-in: status %d: %s", len(body), code, reply)
	}
	if took > time.Second {
		t.Fatalf("%d-byte wide fan-in refused after %v, want under 1s", len(body), took)
	}
}
