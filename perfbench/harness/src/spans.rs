//! The benchmark's own spans: recorded around calls into each crate,
//! kept in memory, and folded into per-layer numbers when the run ends.

use std::hint::black_box;
use std::time::Instant;

/// One closed span: a layer name, the operation (request or round) that
/// caused it, and its interval in microseconds since the recorder began.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start_us: f64,
    pub dur_us: f64,
}

/// An in-memory span log.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` under a span named `name`, attributed to operation `op`.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        let dur_us = start.elapsed().as_secs_f64() * 1e6;
        let start_us = start.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            op,
            start_us,
            dur_us,
        });
        out
    }

    /// Durations (µs) of every span named `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect()
    }

    /// Total busy time (ms) of the spans named `name`.
    pub fn busy_ms(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e3
    }

    /// Writes every span as one JSON line: name, op, start and duration.
    pub fn write_jsonl(&self, path: &str) -> Result<(), String> {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"op\":{},\"start_us\":{:.1},\"dur_us\":{:.1}}}\n",
                s.name, s.op, s.start_us, s.dur_us
            ));
        }
        std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
    }
}

/// Nearest-rank median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len().div_ceil(2) - 1]
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_the_nearest_rank_sample() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn recorder_sums_busy_time_per_name() {
        let mut rec = Recorder::new();
        let x = rec.time("a", 0, || 41 + 1);
        rec.time("b", 0, || ());
        rec.time("a", 1, || ());
        assert_eq!(x, 42);
        assert_eq!(rec.durations_us("a").len(), 2);
        assert!(rec.busy_ms("a") >= 0.0);
        assert!(rec.durations_us("c").is_empty());
    }
}
