package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"teleadjust/internal/stats"
)

// WriteCodingReport renders a coding study in the layout of the paper's
// Fig. 6 panels and Table II.
func WriteCodingReport(w io.Writer, res *CodingResult) {
	fmt.Fprintf(w, "=== Coding study: %s ===\n", res.Scenario)
	fmt.Fprintf(w, "converged: %.1f%% of nodes hold a path code\n\n", 100*res.Converged)
	fmt.Fprintln(w, "Fig 6a / Table II — path code length (bits) by CTP hop count:")
	fmt.Fprint(w, res.CodeLenByHop.Table("hops", "bits"))
	fmt.Fprintln(w, "\nFig 6b — children per node by hop:")
	fmt.Fprint(w, res.ChildrenByHop.Table("hops", "children"))
	if res.ConvergenceBeacons.Count() == 0 {
		fmt.Fprintln(w, "\nFig 6c — convergence: n=0 mean=n/a beacons p90=n/a max=n/a (no node converged)")
	} else {
		fmt.Fprintf(w, "\nFig 6c — convergence: n=%d mean=%.1f beacons p90=%.1f max=%.1f (paper: most <10, all ≤20)\n",
			res.ConvergenceBeacons.Count(), res.ConvergenceBeacons.Mean(),
			res.ConvergenceBeacons.Percentile(90), res.ConvergenceBeacons.Max())
	}
	fmt.Fprintf(w, "\nFig 6d — reverse vs CTP hop count: ratio=%.3f (paper: 1.08)\n", res.HopRatio)
	fmt.Fprint(w, res.ReverseVsCTP.MeanYForX().Table("ctp-hops", "rev-hops"))
}

// WriteControlReport renders one control study (one row of Fig. 7–10 and
// Table III).
func WriteControlReport(w io.Writer, res *ControlResult) {
	fmt.Fprintf(w, "=== Control study: %s on %s ===\n", res.Proto, res.Scenario)
	fmt.Fprintf(w, "sent=%d delivered=%d unroutable=%d PDR=%.1f%%\n",
		res.Sent, res.Delivered, res.Skipped, 100*res.PDR())
	fmt.Fprintln(w, "\nFig 7 — PDR by destination hop count:")
	fmt.Fprint(w, res.PDRByHop.Table("hops", "PDR"))
	fmt.Fprint(w, BarTable(res.PDRByHop, 1))
	fmt.Fprintln(w, "\nFig 10 — one-way latency (s) by hop:")
	fmt.Fprint(w, res.LatencyByHop.Table("hops", "latency"))
	fmt.Fprintf(w, "\nTable III — transmissions per control packet: %.2f\n", res.TxPerPacket)
	fmt.Fprintf(w, "Fig 9 — average radio duty cycle: %.2f%%\n", 100*res.AvgDutyCycle)
	fmt.Fprintf(w, "Fig 8 — ATHX (%d samples), mean transmissions travelled by receiver hop:\n", res.ATHX.Len())
	fmt.Fprint(w, res.ATHX.MeanYForX().Table("ctp-hops", "athx"))
	if len(res.Detail) > 0 {
		fmt.Fprintln(w, "diagnostics:")
		keys := make([]string, 0, len(res.Detail))
		for k := range res.Detail {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-22s %.3f\n", k, res.Detail[k])
		}
	}
}

// WriteComparisonSummary renders the cross-protocol summary rows the
// paper's Fig 7/9/10 and Table III compare.
func WriteComparisonSummary(w io.Writer, results []*ControlResult) {
	if len(results) == 0 {
		return
	}
	fmt.Fprintf(w, "--- %s: protocol comparison ---\n", results[0].Scenario)
	fmt.Fprintf(w, "%-12s %8s %10s %10s %10s\n", "protocol", "PDR", "tx/packet", "duty", "latency")
	for _, r := range results {
		lat, n := 0.0, 0
		for _, k := range r.LatencyByHop.Keys() {
			s := r.LatencyByHop.Get(k)
			lat += s.Mean() * float64(s.Count())
			n += s.Count()
		}
		avgLat := 0.0
		if n > 0 {
			avgLat = lat / float64(n)
		}
		fmt.Fprintf(w, "%-12s %7.1f%% %10.2f %9.2f%% %9.2fs\n",
			r.Proto, 100*r.PDR(), r.TxPerPacket, 100*r.AvgDutyCycle, avgLat)
	}
}

// WriteThroughputReport renders a throughput sweep: offered load vs
// goodput and latency percentiles per load point, plus the command
// plane's loss accounting.
func WriteThroughputReport(w io.Writer, res *ThroughputResult) {
	fmt.Fprintf(w, "=== Throughput study: %s on %s (%s loop, %s destinations) ===\n",
		res.Proto, res.Scenario, res.Mode, res.Dist)
	fmt.Fprintf(w, "%-10s %8s %9s %9s %8s %8s %8s %9s\n",
		"point", "ops", "offered", "goodput", "lat-p50", "lat-p95", "lat-p99", "wait-mean")
	for _, pt := range res.Points {
		fmt.Fprintf(w, "%-10s %8d %8.3f/s %8.3f/s %7.2fs %7.2fs %7.2fs %8.2fs\n",
			pt.Label, pt.Ops, pt.Offered, pt.Goodput,
			pt.Latency.P50(), pt.Latency.P95(), pt.Latency.P99(), pt.QueueWait.Mean())
	}
	fmt.Fprintln(w, "\nloss accounting per point:")
	fmt.Fprintf(w, "%-10s %6s %6s %8s %8s %8s %8s %8s\n",
		"point", "ok", "fail", "unroute", "reject", "expire", "retries", "pending")
	for _, pt := range res.Points {
		fmt.Fprintf(w, "%-10s %6d %6d %8d %8d %8d %8d %8d\n",
			pt.Label, pt.OK, pt.Failed, pt.Unroutable, pt.Rejected, pt.Expired, pt.Retries, pt.Unresolved)
	}
}

// WriteServiceReport renders a command-service study: per rate point the
// baseline-vs-service goodput comparison, then the service-side detail
// (admission decisions, batching, cache effectiveness).
func WriteServiceReport(w io.Writer, res *ServiceResult) {
	fmt.Fprintf(w, "=== Command service study: %s on %s (open loop, %s destinations) ===\n",
		res.Proto, res.Scenario, res.Dist)
	fmt.Fprintf(w, "%-10s %8s %10s %10s %8s %9s %9s\n",
		"point", "ops", "base", "service", "speedup", "lat-base", "lat-svc")
	for _, pt := range res.Points {
		fmt.Fprintf(w, "%-10s %8d %9.3f/s %9.3f/s %7.2fx %8.2fs %8.2fs\n",
			pt.Label, pt.Base.Ops, pt.Base.Goodput, pt.Svc.Goodput, pt.Speedup(),
			pt.Base.Latency.P50(), pt.Svc.Latency.P50())
	}
	fmt.Fprintln(w, "\nservice detail per point:")
	fmt.Fprintf(w, "%-10s %6s %6s %6s %8s %9s %9s %8s\n",
		"point", "ok", "shed", "delay", "batches", "meanbatch", "cache-hit", "pending")
	for _, pt := range res.Points {
		fmt.Fprintf(w, "%-10s %6d %6d %6d %8d %9.2f %8.1f%% %8d\n",
			pt.Label, pt.Svc.OK, pt.Svc.Rejected, pt.Delayed, pt.Batches,
			pt.MeanBatch(), 100*pt.CacheHitRate(), pt.Svc.Unresolved)
	}
}

// WriteScopeReport renders a scoped-dissemination study.
func WriteScopeReport(w io.Writer, res *ScopeStudyResult) {
	fmt.Fprintf(w, "=== Scoped dissemination: %s ===\n", res.Scenario)
	fmt.Fprintf(w, "operations=%d members=%d acked=%d mean-coverage=%.1f%%\n",
		res.Operations, res.Members, res.Acked, 100*res.Coverage.Mean())
	fmt.Fprintf(w, "scoped flood:       %.2f tx per addressed member\n", res.TxPerMember)
	fmt.Fprintf(w, "per-member unicast: %.2f tx per addressed member\n", res.UnicastTxPerMember)
}

// WriteCodingSchemesReport renders the per-scenario codec comparison: one
// row per tree-coding scheme with code-length percentiles, churn, header
// cost on air, and probe delivery accuracy.
func WriteCodingSchemesReport(w io.Writer, res *CodingSchemesResult) {
	fmt.Fprintf(w, "=== Coding schemes: %s ===\n", res.Scenario)
	fmt.Fprintf(w, "%-14s %6s %8s %8s %8s %7s %8s %10s %8s\n",
		"codec", "conv", "len-p50", "len-p95", "len-max", "churn", "recodes", "hdrB/send", "PDR")
	for _, c := range res.Codecs {
		fmt.Fprintf(w, "%-14s %5.1f%% %8.1f %8.1f %8.1f %7d %8d %10.2f %7.1f%%\n",
			c.Codec, 100*c.Converged,
			c.CodeLen.P50(), c.CodeLen.P95(), c.CodeLen.Max(),
			c.Churn, c.CodeChanges, c.HeaderBytesPerSend(), 100*c.PDR())
	}
	fmt.Fprintln(w, "\nmean code length (bits):")
	maxMean := 0.0
	for _, c := range res.Codecs {
		if m := c.CodeLen.Mean(); m > maxMean {
			maxMean = m
		}
	}
	if maxMean <= 0 {
		maxMean = 1
	}
	const width = 30
	for _, c := range res.Codecs {
		m := c.CodeLen.Mean()
		n := int(m / maxMean * width)
		if n > width {
			n = width
		}
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(w, "%-14s %8.3f %s\n", c.Codec, m, strings.Repeat("█", n))
	}
}

// BarTable renders a grouped series as an aligned table with ASCII bars
// scaled to the maximum mean (or scaleMax when positive) — a text
// rendition of the paper's bar figures.
func BarTable(b *stats.ByKey, scaleMax float64) string {
	const width = 30
	var sb strings.Builder
	maxMean := scaleMax
	if maxMean <= 0 {
		for _, k := range b.Keys() {
			if m := b.Get(k).Mean(); m > maxMean {
				maxMean = m
			}
		}
	}
	if maxMean <= 0 {
		maxMean = 1
	}
	for _, k := range b.Keys() {
		m := b.Get(k).Mean()
		n := int(m / maxMean * width)
		if n > width {
			n = width
		}
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&sb, "%-8d %8.3f %s\n", k, m, strings.Repeat("█", n))
	}
	return sb.String()
}
