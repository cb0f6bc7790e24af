//! Order statistics and the result line.

use crate::bed::Fnv;
use crate::WINDOW;

/// Nearest-rank percentile (`p` in 0–100) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The `p`-th percentile of each window of `WINDOW` consecutive samples
/// (the last window takes the remainder), then the median over windows.
pub fn windowed(samples: &[f64], p: f64) -> f64 {
    let windows = (samples.len() / WINDOW).max(1);
    let per_window: Vec<f64> = (0..windows)
        .map(|i| {
            let end = if i + 1 == windows {
                samples.len()
            } else {
                (i + 1) * WINDOW
            };
            percentile(&samples[i * WINDOW..end], p)
        })
        .collect();
    median(&per_window)
}

/// Mean of samples; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Fold per-result digests into one run digest.
pub fn fold(digests: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for d in digests {
        h.put(*d);
    }
    h.0
}

/// Named metrics in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    /// The benchmark's last stdout line.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}
