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
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"qosres/internal/broker"
	"qosres/internal/obs"
	"qosres/internal/sim"
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
