package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"teleadjust/internal/stats"
)

// WriteControlCSV exports every per-hop series of a control study with a
// figure label column, one file for all of Fig 7/8/10.
func WriteControlCSV(w io.Writer, res *ControlResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"figure", "protocol", "scenario", "key", "n", "mean"}); err != nil {
		return err
	}
	emit := func(fig string, b *stats.ByKey) error {
		for _, k := range b.Keys() {
			s := b.Get(k)
			rec := []string{
				fig, res.Proto, res.Scenario,
				strconv.Itoa(k),
				strconv.Itoa(s.Count()),
				strconv.FormatFloat(s.Mean(), 'g', 6, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit("fig7_pdr", res.PDRByHop); err != nil {
		return err
	}
	if err := emit("fig10_latency", res.LatencyByHop); err != nil {
		return err
	}
	if err := emit("fig8_athx", res.ATHX.MeanYForX()); err != nil {
		return err
	}
	summary := []string{"table3_tx", res.Proto, res.Scenario, "0", strconv.Itoa(res.Sent),
		strconv.FormatFloat(res.TxPerPacket, 'g', 6, 64)}
	if err := cw.Write(summary); err != nil {
		return err
	}
	duty := []string{"fig9_duty", res.Proto, res.Scenario, "0", strconv.Itoa(res.Sent),
		strconv.FormatFloat(res.AvgDutyCycle, 'g', 6, 64)}
	if err := cw.Write(duty); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// WriteThroughputCSV exports a throughput sweep, one row per load point:
// the offered-load vs goodput curve with latency percentiles and the
// command plane's loss accounting.
func WriteThroughputCSV(w io.Writer, res *ThroughputResult) error {
	cw := csv.NewWriter(w)
	header := []string{"protocol", "scenario", "mode", "dist", "point",
		"ops", "ok", "failed", "unroutable", "rejected", "expired", "retries", "unresolved",
		"offered_ops_s", "goodput_ops_s", "lat_p50_s", "lat_p95_s", "lat_p99_s", "wait_mean_s"}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	for _, pt := range res.Points {
		rec := []string{res.Proto, res.Scenario, res.Mode, res.Dist, pt.Label,
			strconv.Itoa(pt.Ops), strconv.Itoa(pt.OK), strconv.Itoa(pt.Failed),
			strconv.Itoa(pt.Unroutable), strconv.Itoa(pt.Rejected), strconv.Itoa(pt.Expired),
			strconv.Itoa(pt.Retries), strconv.Itoa(pt.Unresolved),
			f(pt.Offered), f(pt.Goodput),
			f(pt.Latency.P50()), f(pt.Latency.P95()), f(pt.Latency.P99()), f(pt.QueueWait.Mean())}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("throughput csv: %w", err)
	}
	return nil
}

// WriteServiceCSV exports a command-service study, one row per rate
// point with paired baseline/service columns.
func WriteServiceCSV(w io.Writer, res *ServiceResult) error {
	cw := csv.NewWriter(w)
	header := []string{"protocol", "scenario", "dist", "point", "ops",
		"offered_base_ops_s", "offered_svc_ops_s",
		"goodput_base_ops_s", "goodput_svc_ops_s", "speedup",
		"ok_base", "ok_svc", "failed_base", "failed_svc",
		"unresolved_base", "unresolved_svc",
		"shed", "delayed", "batches", "batched_cmds", "mean_batch",
		"cache_hits", "cache_misses", "cache_hit_rate",
		"lat_base_p50_s", "lat_svc_p50_s", "lat_base_p95_s", "lat_svc_p95_s"}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	// Shed submissions are the service run's Rejected; failed is every
	// other unsuccessful outcome.
	failed := func(p *ThroughputPoint) string { return strconv.Itoa(p.Failed + p.Unroutable + p.Expired) }
	for _, pt := range res.Points {
		b, s := pt.Base, pt.Svc
		rec := []string{res.Proto, res.Scenario, res.Dist, pt.Label,
			strconv.Itoa(b.Ops),
			f(b.Offered), f(s.Offered),
			f(b.Goodput), f(s.Goodput), f(pt.Speedup()),
			strconv.Itoa(b.OK), strconv.Itoa(s.OK),
			failed(b), failed(s),
			strconv.Itoa(b.Unresolved), strconv.Itoa(s.Unresolved),
			strconv.Itoa(s.Rejected), strconv.Itoa(pt.Delayed),
			strconv.Itoa(pt.Batches), strconv.Itoa(pt.BatchedCmds), f(pt.MeanBatch()),
			strconv.Itoa(pt.CacheHits), strconv.Itoa(pt.CacheMisses), f(pt.CacheHitRate()),
			f(b.Latency.P50()), f(s.Latency.P50()),
			f(b.Latency.P95()), f(s.Latency.P95())}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("service csv: %w", err)
	}
	return nil
}

// WriteCodingSchemesCSV exports codec comparisons under one header, one
// row per (scenario, codec) cell.
func WriteCodingSchemesCSV(w io.Writer, results ...*CodingSchemesResult) error {
	cw := csv.NewWriter(w)
	header := []string{"scenario", "codec", "converged",
		"len_p50", "len_p95", "len_max", "len_mean",
		"churn", "code_changes", "header_bytes", "control_sends", "hdr_bytes_per_send",
		"sent", "delivered", "skipped", "pdr"}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	for _, res := range results {
		for _, c := range res.Codecs {
			rec := []string{res.Scenario, c.Codec, f(c.Converged),
				f(c.CodeLen.P50()), f(c.CodeLen.P95()), f(c.CodeLen.Max()), f(c.CodeLen.Mean()),
				strconv.FormatUint(c.Churn, 10), strconv.FormatUint(c.CodeChanges, 10),
				strconv.FormatUint(c.HeaderBytes, 10), strconv.FormatUint(c.ControlSends, 10),
				f(c.HeaderBytesPerSend()),
				strconv.Itoa(c.Sent), strconv.Itoa(c.Delivered), strconv.Itoa(c.Skipped), f(c.PDR())}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("coding schemes csv: %w", err)
	}
	return nil
}

// WriteCodingCSV exports a coding study's per-hop series.
func WriteCodingCSV(w io.Writer, res *CodingResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"figure", "scenario", "key", "n", "mean"}); err != nil {
		return err
	}
	emit := func(fig string, b *stats.ByKey) error {
		for _, k := range b.Keys() {
			s := b.Get(k)
			rec := []string{
				fig, res.Scenario,
				strconv.Itoa(k),
				strconv.Itoa(s.Count()),
				strconv.FormatFloat(s.Mean(), 'g', 6, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit("fig6a_codelen", res.CodeLenByHop); err != nil {
		return err
	}
	if err := emit("fig6b_children", res.ChildrenByHop); err != nil {
		return err
	}
	if err := emit("fig6d_revhops", res.ReverseVsCTP.MeanYForX()); err != nil {
		return err
	}
	row := []string{"fig6c_convergence", res.Scenario, "0",
		strconv.Itoa(res.ConvergenceBeacons.Count()),
		strconv.FormatFloat(res.ConvergenceBeacons.Mean(), 'g', 6, 64)}
	if err := cw.Write(row); err != nil {
		return err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("coding csv: %w", err)
	}
	return nil
}
