//! The run record: named metrics with units, the operation tally, the
//! host facts a reader needs to compare two runs, and the JSON line the
//! benchmark ends its standard output with.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]`, see [`crate::stats::valid_metric_name`]).
    pub name: &'static str,
    /// Unit, e.g. `s`, `ns`, `count`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (slices, grid points and the pinned check).
    pub attempted: u64,
    /// Operations whose correctness check failed.
    pub failed: u64,
    /// The failed checks, one line each.
    pub failures: Vec<String>,
    /// Metrics, in emission order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub notes: Vec<String>,
}

impl Report {
    /// Count one attempted operation; `Err` marks it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Host facts recorded with every run, as one JSON object.
pub fn host_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"profile\": \"{profile}\", \"rustc\": \"{}\", \"kernel\": \"{}\", \"sim_threads\": 1}}",
        env!("PERFBENCH_RUSTC"),
        kernel.trim()
    )
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Nanoseconds per iteration of a fixed integer kernel (eight
/// independent xorshift lanes), the median of `reps` timings. The kernel
/// touches no memory and keeps every ALU port busy, so it tracks how much
/// of the core the host currently gives this process and nothing of the
/// simulator: a slow run with a slow calibration is a slow host phase,
/// not a slow commit.
pub fn calibrate_ns(reps: usize) -> f64 {
    const ITERS: u64 = 100_000;
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let mut lanes = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
            for _ in 0..ITERS {
                for x in &mut lanes {
                    *x ^= *x << 13;
                    *x ^= *x >> 7;
                    *x ^= *x << 17;
                }
            }
            black_box(lanes);
            t0.elapsed().as_secs_f64() * 1e9 / ITERS as f64
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys_and_every_metric() {
        let mut r = Report::default();
        r.check(Ok(()));
        r.check(Err("slice 3 stalled".into()));
        r.metric("setup_s", "s", 0.5);
        r.metric("node.step_ns", "ns", 31.25);
        assert!(!r.correct());
        assert_eq!(
            r.json(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"node.step_ns\": {\"value\": 31.25, \"unit\": \"ns\"}}}"
        );
    }

    #[test]
    fn calibration_and_rss_read_positive() {
        assert!(calibrate_ns(3) > 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(host_record().contains("\"nproc\""));
    }
}
