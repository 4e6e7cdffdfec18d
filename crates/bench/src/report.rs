//! Plain-text report rendering.

use std::fmt::Write as _;

/// A small line-oriented report builder. Every experiment produces one; the
/// `repro` binary prints it and optionally appends it to a results file.
#[derive(Debug, Default, Clone)]
pub struct Report {
    title: String,
    lines: Vec<String>,
}

impl Report {
    /// Creates a report with a title.
    pub(crate) fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            lines: Vec::new(),
        }
    }

    /// Appends one line.
    pub(crate) fn line(&mut self, line: impl Into<String>) -> &mut Self {
        self.lines.push(line.into());
        self
    }

    /// Appends a blank line.
    pub(crate) fn blank(&mut self) -> &mut Self {
        self.lines.push(String::new());
        self
    }

    /// Appends a formatted key/value row.
    pub(crate) fn kv(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.lines.push(format!("  {key:<42} {value}"));
        self
    }

    /// Renders the report to a string.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        let bar = "=".repeat(self.title.len().max(8));
        let _ = writeln!(out, "{bar}\n{}\n{bar}", self.title);
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        out
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a fraction as a percent with one decimal.
pub(crate) fn pct(fraction: f64) -> String {
    format!("{:5.1}%", 100.0 * fraction)
}

/// Appends the pg_meter-style per-transaction-type summary table: one row
/// per transaction type of the mix with its commits, aborts, retry
/// exhaustions, error rate and mean/p99 response time.
pub(crate) fn txn_stats_table(report: &mut Report, stats: &dora_workloads::WorkloadStats) {
    report.line(format!(
        "    {:<28} {:>9} {:>8} {:>8} {:>7} {:>10} {:>10}",
        "transaction type", "commits", "aborts", "gave-up", "err%", "mean(us)", "p99(us)"
    ));
    for (label, row) in stats.all_stats() {
        report.line(format!(
            "    {:<28} {:>9} {:>8} {:>8} {:>6.1}% {:>10} {:>10}",
            label,
            row.counts.committed,
            row.counts.aborted,
            row.counts.gave_up,
            100.0 * row.error_rate(),
            row.latency.mean().as_micros(),
            row.latency.percentile(99.0).as_micros(),
        ));
    }
}

/// Formats a stacked time-breakdown row the way the paper's figures label it.
pub(crate) fn breakdown_row(label: &str, breakdown: &dora_metrics::TimeBreakdown) -> String {
    format!(
        "  {label:<28} work {} | lockmgr-cont {} | lockmgr {} | other-cont {}",
        pct(breakdown.work_fraction()),
        pct(breakdown.lock_mgr_contention_fraction()),
        pct(breakdown.lock_mgr_work_fraction()),
        pct(breakdown.other_contention_fraction()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_title_and_lines() {
        let mut report = Report::new("Figure 1");
        report.line("hello").kv("throughput", 123.4).blank();
        let text = report.render();
        assert!(text.contains("Figure 1"));
        assert!(text.contains("hello"));
        assert!(text.contains("throughput"));
        assert_eq!(report.lines.len(), 3);
    }

    #[test]
    fn pct_formats_fractions() {
        assert_eq!(pct(0.5), " 50.0%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn txn_stats_table_renders_one_row_per_type() {
        use dora_common::TxnOutcome;
        use std::time::Duration;

        let stats = dora_workloads::WorkloadStats::new();
        stats.record_timed("payment", TxnOutcome::Committed, Duration::from_micros(120));
        stats.record_timed("payment", TxnOutcome::Aborted, Duration::from_micros(80));
        stats.record_timed(
            "new-order",
            TxnOutcome::Committed,
            Duration::from_micros(400),
        );
        let mut report = Report::new("per-type");
        txn_stats_table(&mut report, &stats);
        let text = report.render();
        assert!(text.contains("transaction type"), "{text}");
        assert!(text.contains("payment"), "{text}");
        assert!(text.contains("new-order"), "{text}");
        assert!(text.contains("50.0%"), "{text}");
    }
}
