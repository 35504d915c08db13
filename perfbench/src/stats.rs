//! Percentiles, process memory and the result record.

use std::time::Duration;

use crate::trace::Span;

/// Nearest-rank percentile `q` (0–100) of `xs`; 0 for an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Trials run (untraced; a traced run makes as many traced ones).
    pub trials: usize,
    /// Samples behind the `visible_*` percentiles.
    pub samples: usize,
    /// Operations attempted (updates and reads).
    pub attempted: u64,
    /// Operations that failed or were refused, plus failed checks.
    pub failed: u64,
    /// Descriptions of the failed checks.
    pub failures: Vec<String>,
    /// End-to-end metrics of the untraced run.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics of the traced run (empty when untraced).
    pub layer: Vec<Metric>,
    /// Human-readable lines (self times, tracing overhead).
    pub notes: Vec<String>,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
}

impl Report {
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.push(Metric::new(name, value, unit));
    }

    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
