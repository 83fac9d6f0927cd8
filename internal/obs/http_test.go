package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// populated builds a registry holding one of each metric type.
func populated() *Registry {
	r := New()
	r.Counter(MetricSessionEvents, "Session lifecycle events.", "event", "reserved").Add(3)
	r.Gauge(MetricUtilization, "Reserved fraction.", "resource", `cpu@H1`).Set(0.25)
	h := r.Histogram(MetricPlanStage, "Stage latency.", []float64{0.001, 0.01, 0.1}, "stage", StagePlan)
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5) // +Inf bucket
	return r
}

// TestMetricsEndpointPrometheusFormat is the acceptance criterion that
// /metrics serves well-formed Prometheus text format.
func TestMetricsEndpointPrometheusFormat(t *testing.T) {
	srv := httptest.NewServer(NewMux(populated()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)

	for _, want := range []string{
		"# HELP qosres_session_events_total Session lifecycle events.",
		"# TYPE qosres_session_events_total counter",
		`qosres_session_events_total{event="reserved"} 3`,
		"# TYPE qosres_resource_utilization gauge",
		`qosres_resource_utilization{resource="cpu@H1"} 0.25`,
		"# TYPE qosres_plan_stage_seconds histogram",
		`qosres_plan_stage_seconds_bucket{stage="plan",le="0.001"} 1`,
		`qosres_plan_stage_seconds_bucket{stage="plan",le="0.1"} 2`,
		`qosres_plan_stage_seconds_bucket{stage="plan",le="+Inf"} 3`,
		`qosres_plan_stage_seconds_count{stage="plan"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
	// Structural checks: every non-comment line is "name{labels} value",
	// and every sample's family has a preceding TYPE line.
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Errorf("unbalanced labels in %q", line)
			}
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Errorf("sample %q has no TYPE line", line)
		}
	}
}

// TestSnapshotEndpointJSON is the acceptance criterion that /snapshot
// serves valid JSON.
func TestSnapshotEndpointJSON(t *testing.T) {
	srv := httptest.NewServer(NewMux(populated()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var snap SnapshotData
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 3 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Labels["resource"] != "cpu@H1" {
		t.Fatalf("gauges = %+v", snap.Gauges)
	}
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}
	h := snap.Histograms[0]
	if h.Count != 3 || len(h.Buckets) != 3 || h.P50 <= 0 {
		t.Fatalf("histogram = %+v", h)
	}
}

func TestPprofEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewMux(New()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
}

func TestPrometheusEscaping(t *testing.T) {
	r := New()
	r.Gauge("weird", "help with\nnewline", "l", `va"l\ue`).Set(1)
	var sb strings.Builder
	if err := r.writePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# HELP weird help with\nnewline`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `weird{l="va\"l\\ue"} 1`) {
		t.Errorf("label not escaped:\n%s", out)
	}
}
