package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// writePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, each preceded by its
// # HELP and # TYPE lines; histograms expand to cumulative _bucket
// samples (with an le label), plus _sum and _count. A nil registry
// writes nothing.
func (r *Registry) writePrometheus(w io.Writer) error {
	var err error
	lastFamily := ""
	r.visit(func(f *family, _ string, ch *child) {
		if err != nil {
			return
		}
		if f.name != lastFamily {
			lastFamily = f.name
			if f.help != "" {
				_, err = fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
				if err != nil {
					return
				}
			}
			if _, err = fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
				return
			}
		}
		switch f.typ {
		case typeCounter:
			err = writeSample(w, f.name, ch.labels, "", "", ch.c.Value())
		case typeGauge:
			err = writeSample(w, f.name, ch.labels, "", "", ch.g.value())
		case typeHistogram:
			bounds, counts, sum, total := ch.h.snapshot()
			var cum uint64
			for i, bound := range bounds {
				cum += counts[i]
				le := strconv.FormatFloat(bound, 'g', -1, 64)
				if err = writeSample(w, f.name+"_bucket", ch.labels, "le", le, float64(cum)); err != nil {
					return
				}
			}
			cum += counts[len(counts)-1]
			if err = writeSample(w, f.name+"_bucket", ch.labels, "le", "+Inf", float64(cum)); err != nil {
				return
			}
			if err = writeSample(w, f.name+"_sum", ch.labels, "", "", sum); err != nil {
				return
			}
			err = writeSample(w, f.name+"_count", ch.labels, "", "", float64(total))
		}
	})
	return err
}

// writeSample writes one sample line, rendering the child labels plus
// an optional extra label (the histogram le).
func writeSample(w io.Writer, name string, labels []labelPair, extraK, extraV string, value float64) error {
	var b strings.Builder
	b.WriteString(name)
	if len(labels) > 0 || extraK != "" {
		b.WriteByte('{')
		for i, p := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(p.k)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(p.v))
			b.WriteByte('"')
		}
		if extraK != "" {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(extraK)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(extraV))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	_, err := fmt.Fprintf(w, "%s %s\n", b.String(), strconv.FormatFloat(value, 'g', -1, 64))
	return err
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

func escapeHelp(s string) string { return helpEscaper.Replace(s) }
