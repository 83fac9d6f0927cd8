package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
)

// CSV writers for every experiment, for external plotting pipelines.
// Each writer emits a header row and one record per data point.

// WriteFig11CSV emits rate, algorithm, success_rate, avg_qos rows.
func WriteFig11CSV(w io.Writer, rows []Fig11Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"rate", "algorithm", "success_rate", "avg_qos"}); err != nil {
		return err
	}
	for _, r := range rows {
		cw.Write([]string{
			fmt.Sprintf("%g", r.Rate),
			string(r.Algorithm),
			fmt.Sprintf("%.6f", r.SuccessRate),
			fmt.Sprintf("%.6f", r.AvgQoS),
		})
	}
	cw.Flush()
	return cw.Error()
}

// WritePathTableCSV emits path, basic_percent, tradeoff_percent rows for
// table 1 or 2.
func WritePathTableCSV(w io.Writer, rows []PathRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"path", "basic_percent", "tradeoff_percent"}); err != nil {
		return err
	}
	for _, r := range rows {
		cw.Write([]string{r.Path, fmt.Sprintf("%.4f", r.Basic), fmt.Sprintf("%.4f", r.Tradeoff)})
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable34CSV emits class, rate, success_rate, avg_qos rows.
func WriteTable34CSV(w io.Writer, rows []ClassRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"class", "rate", "success_rate", "avg_qos"}); err != nil {
		return err
	}
	for _, r := range rows {
		cw.Write([]string{
			r.Class.String(),
			fmt.Sprintf("%g", r.Rate),
			fmt.Sprintf("%.6f", r.SuccessRate),
			fmt.Sprintf("%.6f", r.AvgQoS),
		})
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig12CSV emits algorithm, rate, stale_e, success_rate,
// reserve_failures rows.
func WriteFig12CSV(w io.Writer, rows []Fig12Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"algorithm", "rate", "stale_e", "success_rate", "reserve_failures"}); err != nil {
		return err
	}
	for _, r := range rows {
		cw.Write([]string{
			string(r.Algorithm),
			fmt.Sprintf("%g", r.Rate),
			fmt.Sprintf("%g", float64(r.StaleE)),
			fmt.Sprintf("%.6f", r.SuccessRate),
			fmt.Sprintf("%d", r.ReserveFailures),
		})
	}
	cw.Flush()
	return cw.Error()
}
