package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"

	"teleadjust/internal/stats"
)

// writeCSV writes the rows (header first) as one CSV file; name labels a
// write error.
func writeCSV(w io.Writer, name string, rows [][]string) error {
	if err := csv.NewWriter(w).WriteAll(rows); err != nil {
		return fmt.Errorf("%s csv: %w", name, err)
	}
	return nil
}

// fmtG formats a CSV float cell.
func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// byKeyRows appends one row per key of a per-hop series: the lead cells,
// then the key, the sample count and the mean.
func byKeyRows(rows [][]string, b *stats.ByKey, lead ...string) [][]string {
	for _, k := range b.Keys() {
		s := b.Get(k)
		rows = append(rows, slices.Concat(lead, []string{strconv.Itoa(k), strconv.Itoa(s.Count()), fmtG(s.Mean())}))
	}
	return rows
}

// WriteControlCSV exports every per-hop series of a control study with a
// figure label column, one file for all of Fig 7/8/10.
func WriteControlCSV(w io.Writer, res *ControlResult) error {
	rows := [][]string{{"figure", "protocol", "scenario", "key", "n", "mean"}}
	rows = byKeyRows(rows, res.PDRByHop, "fig7_pdr", res.Proto, res.Scenario)
	rows = byKeyRows(rows, res.LatencyByHop, "fig10_latency", res.Proto, res.Scenario)
	rows = byKeyRows(rows, res.ATHX.MeanYForX(), "fig8_athx", res.Proto, res.Scenario)
	sent := strconv.Itoa(res.Sent)
	rows = append(rows,
		[]string{"table3_tx", res.Proto, res.Scenario, "0", sent, fmtG(res.TxPerPacket)},
		[]string{"fig9_duty", res.Proto, res.Scenario, "0", sent, fmtG(res.AvgDutyCycle)})
	return writeCSV(w, "control", rows)
}

// WriteThroughputCSV exports a throughput sweep, one row per load point:
// the offered-load vs goodput curve with latency percentiles and the
// command plane's loss accounting.
func WriteThroughputCSV(w io.Writer, res *ThroughputResult) error {
	rows := [][]string{{"protocol", "scenario", "mode", "dist", "point",
		"ops", "ok", "failed", "unroutable", "rejected", "expired", "retries", "unresolved",
		"offered_ops_s", "goodput_ops_s", "lat_p50_s", "lat_p95_s", "lat_p99_s", "wait_mean_s"}}
	for _, pt := range res.Points {
		rows = append(rows, []string{res.Proto, res.Scenario, res.Mode, res.Dist, pt.Label,
			strconv.Itoa(pt.Ops), strconv.Itoa(pt.OK), strconv.Itoa(pt.Failed),
			strconv.Itoa(pt.Unroutable), strconv.Itoa(pt.Rejected), strconv.Itoa(pt.Expired),
			strconv.Itoa(pt.Retries), strconv.Itoa(pt.Unresolved),
			fmtG(pt.Offered), fmtG(pt.Goodput),
			fmtG(pt.Latency.P50()), fmtG(pt.Latency.P95()), fmtG(pt.Latency.P99()), fmtG(pt.QueueWait.Mean())})
	}
	return writeCSV(w, "throughput", rows)
}

// WriteServiceCSV exports a command-service study, one row per rate
// point with paired baseline/service columns.
func WriteServiceCSV(w io.Writer, res *ServiceResult) error {
	rows := [][]string{{"protocol", "scenario", "dist", "point", "ops",
		"offered_base_ops_s", "offered_svc_ops_s",
		"goodput_base_ops_s", "goodput_svc_ops_s", "speedup",
		"ok_base", "ok_svc", "failed_base", "failed_svc",
		"unresolved_base", "unresolved_svc",
		"shed", "delayed", "batches", "batched_cmds", "mean_batch",
		"cache_hits", "cache_misses", "cache_hit_rate",
		"lat_base_p50_s", "lat_svc_p50_s", "lat_base_p95_s", "lat_svc_p95_s"}}
	// Shed submissions are the service run's Rejected; failed is every
	// other unsuccessful outcome.
	failed := func(p *ThroughputPoint) string { return strconv.Itoa(p.Failed + p.Unroutable + p.Expired) }
	for _, pt := range res.Points {
		b, s := pt.Base, pt.Svc
		rows = append(rows, []string{res.Proto, res.Scenario, res.Dist, pt.Label,
			strconv.Itoa(b.Ops),
			fmtG(b.Offered), fmtG(s.Offered),
			fmtG(b.Goodput), fmtG(s.Goodput), fmtG(pt.Speedup()),
			strconv.Itoa(b.OK), strconv.Itoa(s.OK),
			failed(b), failed(s),
			strconv.Itoa(b.Unresolved), strconv.Itoa(s.Unresolved),
			strconv.Itoa(s.Rejected), strconv.Itoa(pt.Delayed),
			strconv.Itoa(pt.Batches), strconv.Itoa(pt.BatchedCmds), fmtG(pt.MeanBatch()),
			strconv.Itoa(pt.CacheHits), strconv.Itoa(pt.CacheMisses), fmtG(pt.CacheHitRate()),
			fmtG(b.Latency.P50()), fmtG(s.Latency.P50()),
			fmtG(b.Latency.P95()), fmtG(s.Latency.P95())})
	}
	return writeCSV(w, "service", rows)
}

// WriteCodingSchemesCSV exports codec comparisons under one header, one
// row per (scenario, codec) cell.
func WriteCodingSchemesCSV(w io.Writer, results ...*CodingSchemesResult) error {
	rows := [][]string{{"scenario", "codec", "converged",
		"len_p50", "len_p95", "len_max", "len_mean",
		"churn", "code_changes", "header_bytes", "control_sends", "hdr_bytes_per_send",
		"sent", "delivered", "skipped", "pdr"}}
	for _, res := range results {
		for _, c := range res.Codecs {
			rows = append(rows, []string{res.Scenario, c.Codec, fmtG(c.Converged),
				fmtG(c.CodeLen.P50()), fmtG(c.CodeLen.P95()), fmtG(c.CodeLen.Max()), fmtG(c.CodeLen.Mean()),
				strconv.FormatUint(c.Churn, 10), strconv.FormatUint(c.CodeChanges, 10),
				strconv.FormatUint(c.HeaderBytes, 10), strconv.FormatUint(c.ControlSends, 10),
				fmtG(c.HeaderBytesPerSend()),
				strconv.Itoa(c.Sent), strconv.Itoa(c.Delivered), strconv.Itoa(c.Skipped), fmtG(c.PDR())})
		}
	}
	return writeCSV(w, "coding schemes", rows)
}

// WriteCodingCSV exports a coding study's per-hop series.
func WriteCodingCSV(w io.Writer, res *CodingResult) error {
	rows := [][]string{{"figure", "scenario", "key", "n", "mean"}}
	rows = byKeyRows(rows, res.CodeLenByHop, "fig6a_codelen", res.Scenario)
	rows = byKeyRows(rows, res.ChildrenByHop, "fig6b_children", res.Scenario)
	rows = byKeyRows(rows, res.ReverseVsCTP.MeanYForX(), "fig6d_revhops", res.Scenario)
	rows = append(rows, []string{"fig6c_convergence", res.Scenario, "0",
		strconv.Itoa(res.ConvergenceBeacons.Count()), fmtG(res.ConvergenceBeacons.Mean())})
	return writeCSV(w, "coding", rows)
}
