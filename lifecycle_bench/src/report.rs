//! Sample statistics and the one-line JSON result.

use std::time::Duration;

/// Nearest-rank percentile `p` (0..=100) of `samples`, which it sorts.
///
/// # Panics
///
/// Panics when `samples` is empty: every caller measures at least one sample.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median (nearest rank) of `samples`.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Consecutive windows [`chunked`] cuts a sample stream into.
pub const WINDOWS: usize = 10;

/// Percentile `p` of each window. Each window must hold at least ten samples beyond it.
fn per_window(windows: &[Vec<f64>], p: f64) -> Vec<f64> {
    windows
        .iter()
        .map(|w| {
            assert!(
                w.len() as f64 * (1.0 - p / 100.0) >= 10.0,
                "{} samples are too few for a p{p}",
                w.len()
            );
            percentile(&mut w.clone(), p)
        })
        .collect()
}

/// Percentile `p` of each window, then the median of those. A stretch of interference
/// from outside the benchmark then moves one window's figure, not the reported one.
pub fn windowed(windows: &[Vec<f64>], p: f64) -> f64 {
    median(&mut per_window(windows, p))
}

/// [`windowed`] over `WINDOWS` consecutive windows of `samples`, in arrival order.
pub fn chunked(samples: &[f64], p: f64) -> f64 {
    let windows: Vec<Vec<f64>> =
        samples.chunks_exact(samples.len() / WINDOWS).map(<[f64]>::to_vec).collect();
    windowed(&windows, p)
}

/// Median of durations, in seconds.
pub fn median_secs(samples: &[Duration]) -> f64 {
    median(&mut samples.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Operations attempted and failed, metrics by name, and the checks that gate `correct`.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    checks_failed: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one operation, failed when `ok` is false.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `n` operations that all succeeded.
    pub fn ops_ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a correctness check; a failing one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            let what = what.into();
            eprintln!("check failed: {what}");
            self.checks_failed.push(what);
        }
    }

    /// Records a metric. A non-finite value is a bug in the benchmark.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric with its unit.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.checks_failed.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&mut [7.0], 99.0), 7.0);
    }

    #[test]
    fn windowed_tail_ignores_one_bad_window() {
        let mut v = vec![1.0; 10_000];
        v[..1000].iter_mut().for_each(|x| *x = 500.0);
        assert_eq!(chunked(&v, 99.0), 1.0);
        assert_eq!(percentile(&mut v.clone(), 99.0), 500.0);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.op(true);
        r.op(false);
        r.metric("setup_s", 0.25, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
