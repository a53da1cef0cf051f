//! Latency summaries and the metric report printed at the end of a run.

use std::fmt::Write as _;

/// Latency samples of one operation kind, in milliseconds. A failed
/// operation is recorded as `+∞`, so it misses every latency limit.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ms: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// Nearest-rank percentile `p` (0 < p ≤ 100); `None` without samples.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.ms.is_empty() {
            return None;
        }
        let mut sorted = self.ms.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }

    /// How many samples lie strictly beyond the nearest-rank percentile `p`.
    pub fn beyond(&self, p: f64) -> usize {
        let n = self.ms.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        n.saturating_sub(rank.max(1))
    }

    /// One line naming the median, the tail percentile, the sample count
    /// and how many samples lie beyond the tail.
    pub fn describe(&self, label: &str, tail_pct: f64) -> String {
        match (self.percentile(50.0), self.percentile(tail_pct)) {
            (Some(p50), Some(tail)) => format!(
                "{label}: n={} p50={p50:.3} ms p{tail_pct}={tail:.3} ms ({} samples beyond p{tail_pct})",
                self.len(),
                self.beyond(tail_pct)
            ),
            _ => format!("{label}: no samples"),
        }
    }
}

/// The median of a non-empty list of measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Reset this process's peak resident set size to its current size, so
/// that [`peak_rss_mib`] then reports the peak of what follows. Returns
/// false where the kernel does not offer the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The named metrics of one run, printed by name and unit and then as the
/// final JSON line.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Mark the run incorrect and say why on standard error.
    pub fn wrong(&mut self, why: impl AsRef<str>) {
        eprintln!("check failed: {}", why.as_ref());
        self.correct = false;
    }

    /// Print each metric on its own line, then the JSON result line.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        println!(
            "ops attempted={} failed={} correct={}",
            self.attempted, self.failed, self.correct
        );
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            // JSON has no infinity: a tail made of failed operations prints
            // as the largest finite double.
            let value = if value.is_finite() { *value } else { f64::MAX };
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_tail_counts() {
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(90.0), Some(90.0));
        assert_eq!(s.beyond(90.0), 10);
        s.push(f64::INFINITY);
        assert_eq!(s.percentile(100.0), Some(f64::INFINITY));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
