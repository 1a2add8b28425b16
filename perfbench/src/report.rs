//! The run's result record, its JSON line, and the small statistics the
//! workloads share.

use ff_nn::Sequential;

/// What one run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations the run attempted (timed steps or requests sent).
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    problems: Vec<String>,
}

impl Report {
    /// Records one metric. A non-finite value is itself a failed check.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.problems
                .push(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Records an output check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let message = what();
            eprintln!("ff-perfbench: check failed: {message}");
            self.problems.push(message);
        }
    }

    /// `true` when every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The contract's result line. Non-finite values print as `null`, so
    /// the line stays valid JSON even for a failed run.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `values` (mean of the middle pair for even counts); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of `values`. Infinite entries
/// (failed requests) sort last, so a failure counts as missing every
/// latency limit.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many consecutive windows `count` time-ordered samples split into
/// so that each window still has at least ten samples beyond percentile
/// `p`.
pub fn windows_for(count: usize, p: f64) -> usize {
    let per_window = (1000.0 / (100.0 - p)).ceil() as usize;
    (count / per_window.max(1)).max(1)
}

/// Median over `windows` consecutive, equal windows of the time-ordered
/// `values` of each window's percentile `p`. A disturbance confined to one
/// window moves one of the medianed values, not the result.
pub fn windowed_percentile(values: &[f64], p: f64, windows: usize) -> f64 {
    let size = values.len() / windows.max(1);
    if size == 0 {
        return percentile(values, p);
    }
    let per_window: Vec<f64> = values
        .chunks(size)
        .take(windows)
        .map(|window| percentile(window, p))
        .collect();
    median(&per_window)
}

/// Nanoseconds since `start`, saturating.
pub fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Restarts the process's peak-resident-set counter (`VmHWM`) from its
/// current resident set, so the next [`peak_rss_mb`] covers only what ran
/// in between.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set: {e}"))
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// FNV-1a over the bit patterns of every parameter: two nets hash equal
/// exactly when their weights are bit-identical.
pub fn weight_hash(net: &mut Sequential) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for param in net.params_mut() {
        for value in param.value.data() {
            for byte in value.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
    }

    #[test]
    fn failures_count_as_missing_every_limit() {
        let mut values = vec![1.0; 98];
        values.extend([f64::INFINITY, f64::INFINITY]);
        assert_eq!(percentile(&values, 98.0), 1.0);
        assert!(percentile(&values, 99.0).is_infinite());
    }

    #[test]
    fn windows_keep_ten_samples_beyond_the_percentile() {
        assert_eq!(windows_for(5000, 99.0), 5);
        assert_eq!(windows_for(400, 90.0), 4);
        assert_eq!(windows_for(80, 90.0), 1);
        // A burst confined to one window does not move the median of the
        // window percentiles.
        let mut values = vec![1.0; 400];
        values[..100].iter_mut().for_each(|v| *v = 50.0);
        assert_eq!(windowed_percentile(&values, 90.0, 4), 1.0);
        assert_eq!(percentile(&values, 90.0), 50.0);
    }

    #[test]
    fn json_line_shape() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.put("a.b_ms", 1.5, "ms");
        assert_eq!(
            report.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a.b_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        report.check(false, || "boom".to_string());
        assert!(report.to_json().starts_with("{\"correct\": false"));
    }
}
