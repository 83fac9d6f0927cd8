package obs

// Snapshot renders the registry as plain data for JSON exposition and
// programmatic consumption (end-of-run tables, experiment rows).

// SnapshotData is a point-in-time copy of every metric.
type SnapshotData struct {
	Counters   []MetricValue    `json:"counters"`
	Gauges     []MetricValue    `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// MetricValue is one counter or gauge sample.
type MetricValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// HistogramValue is one histogram with its quantile summary. Buckets
// hold cumulative counts for the finite upper bounds; Count includes
// the +Inf overflow bucket.
type HistogramValue struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	P50     float64           `json:"p50"`
	P90     float64           `json:"p90"`
	P99     float64           `json:"p99"`
	Buckets []BucketValue     `json:"buckets"`
}

// BucketValue is one cumulative histogram bucket. Exemplar, when
// present, is the trace that most recently landed in this bucket.
type BucketValue struct {
	UpperBound float64   `json:"le"`
	Count      uint64    `json:"count"`
	Exemplar   *exemplar `json:"exemplar,omitempty"`
}

// Snapshot copies every metric out of the registry. A nil registry
// yields an empty (but non-nil-sliced) snapshot.
func (r *Registry) Snapshot() SnapshotData {
	snap := SnapshotData{
		Counters:   []MetricValue{},
		Gauges:     []MetricValue{},
		Histograms: []HistogramValue{},
	}
	r.visit(func(f *family, _ string, ch *child) {
		labels := labelMap(ch.labels)
		switch f.typ {
		case typeCounter:
			snap.Counters = append(snap.Counters, MetricValue{
				Name: f.name, Labels: labels, Value: ch.c.Value()})
		case typeGauge:
			snap.Gauges = append(snap.Gauges, MetricValue{
				Name: f.name, Labels: labels, Value: ch.g.value()})
		case typeHistogram:
			bounds, counts, sum, total := ch.h.snapshot()
			exemplars := ch.h.exemplarSnapshot()
			hv := HistogramValue{
				Name: f.name, Labels: labels, Count: total, Sum: sum,
				P50: ch.h.Quantile(0.50), P90: ch.h.Quantile(0.90), P99: ch.h.Quantile(0.99),
				Buckets: make([]BucketValue, 0, len(bounds)),
			}
			var cum uint64
			for i, b := range bounds {
				cum += counts[i]
				bv := BucketValue{UpperBound: b, Count: cum}
				if exemplars != nil && exemplars[i].TraceID != "" {
					ex := exemplars[i]
					bv.Exemplar = &ex
				}
				hv.Buckets = append(hv.Buckets, bv)
			}
			snap.Histograms = append(snap.Histograms, hv)
		}
	})
	return snap
}

func labelMap(pairs []labelPair) map[string]string {
	if len(pairs) == 0 {
		return nil
	}
	m := make(map[string]string, len(pairs))
	for _, p := range pairs {
		m[p.k] = p.v
	}
	return m
}
