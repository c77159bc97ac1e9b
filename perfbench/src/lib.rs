//! Host-performance benchmark of the ulp-node simulator stack.
//!
//! Four workloads, each run for a fixed host time with inputs made from
//! a seed. An untraced run (`--trace 0`) reports the end-to-end metrics;
//! a traced run (`--trace 1`) reports the per-layer metrics, timed from
//! this crate around the calls into each layer. Every simulated output is
//! a correctness check, never a metric. See `README.md` in this directory.

pub mod campaign;
pub mod node;
pub mod report;
pub mod stats;
pub mod traced;

use report::{calibrate_ns, host_record, peak_rss_mb, Report};
use stats::{median, tail};

/// The seed whose outputs are pinned in the source.
pub const DEFAULT_SEED: u64 = 1;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 4] = [
    "ulp_stage4",
    "mica2_stage4",
    "ulp_lifetime",
    "flood_campaign",
];

/// End-to-end metrics and their units, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("node_s_per_host_s", "node_s/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("apps.build_s", "s"),
    ("machine.new_s", "s"),
    ("traffic.load_s", "s"),
    ("store.open_s", "s"),
    ("engine.step_calls", "count"),
    ("engine.skip_calls", "count"),
    ("engine.next_wakeup_calls", "count"),
    ("engine.stepped_cycles", "count"),
    ("engine.skipped_cycles", "count"),
    ("engine.idle_step_ratio", "ratio"),
    ("engine.self_s", "s"),
    ("node.step_ns", "ns"),
    ("node.skip_ns", "ns"),
    ("node.next_wakeup_ns", "ns"),
    ("core.ep_active_cycles", "count"),
    ("core.mcu_wakeups", "count"),
    ("core.radio_active_cycles", "count"),
    ("mcu8.cycles", "count"),
    ("mica.active_cycles", "count"),
    ("mica.adc_conversions", "count"),
    ("cosim.eval_s", "s"),
    ("fleet.self_s", "s"),
    ("fleet.serialize_s", "s"),
    ("store.hit_us", "us"),
    ("store.miss_overhead_us", "us"),
    ("store.hit_ratio", "ratio"),
    ("net.frames_sent", "count"),
    ("net.deliveries", "count"),
    ("net.losses", "count"),
    ("core.irqs_serviced", "count"),
    ("point.p50_s", "s"),
    ("point.tail_s", "s"),
    ("point.tail_pct", "pct"),
    ("point.count", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.wall_s", "s"),
    ("trace.layer_sum_s", "s"),
    ("host.calib_ns", "ns"),
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Shrink every episode to a few slices (tests).
    pub tiny: bool,
}

/// Run one workload and return its report.
///
/// # Panics
///
/// Panics on a workload name not in [`WORKLOADS`] (callers validate it).
pub fn run(opts: &Opts) -> Report {
    let calib_before = calibrate_ns(5);
    let mut report = Report::default();
    let (seed, tiny) = (opts.seed, opts.tiny);
    match opts.workload.as_str() {
        "ulp_stage4" => node::run(
            &node::ulp_stage4(seed, tiny),
            opts,
            &node::ulp_stage4(DEFAULT_SEED, false),
            &mut report,
        ),
        "mica2_stage4" => node::run(
            &node::mica2_stage4(seed, tiny),
            opts,
            &node::mica2_stage4(DEFAULT_SEED, false),
            &mut report,
        ),
        "ulp_lifetime" => node::run(
            &node::ulp_lifetime(seed, tiny),
            opts,
            &node::ulp_lifetime(DEFAULT_SEED, false),
            &mut report,
        ),
        "flood_campaign" => campaign::run(opts, &mut report),
        other => panic!("unknown workload `{other}`"),
    }
    let calib = median(&[calib_before, calibrate_ns(5)]).unwrap_or(0.0);
    if opts.trace {
        report.metric("host.calib_ns", "ns", calib);
    } else {
        report.metric("peak_rss_mb", "MB", peak_rss_mb().unwrap_or(0.0));
    }
    report.notes.push(format!("host {}", host_record()));
    report.notes.push(format!("host.calib_ns {calib:.4} ns"));
    report
}

/// Constructions timed before the first episode or round…
const SETUP_FIRST_REPS: usize = 15;
/// …and before each later one, so setup samples span the whole run.
const SETUP_EPISODE_REPS: usize = 3;

/// Emit the per-point host times (points are slices or grid points,
/// called `label` in the report): median, tail percentile and count.
fn emit_points(report: &mut Report, point_s: &[f64], label: &str) {
    report.metric("point.p50_s", "s", median(point_s).unwrap_or(0.0));
    let t = tail(point_s);
    report.metric("point.tail_s", "s", t.map_or(0.0, |t| t.value));
    report.metric(
        "point.tail_pct",
        "pct",
        t.map_or(0.0, |t| f64::from(t.percentile)),
    );
    report.metric("point.count", "count", point_s.len() as f64);
    if let Some(t) = t {
        report.notes.push(format!(
            "point.tail_s is p{} of {} {label} ({} beyond)",
            t.percentile, t.count, t.beyond
        ));
    }
}

/// Engine-boundary metrics of a workload that drives no [`ulp_sim::Engine`].
fn emit_engine_layers_absent(report: &mut Report) {
    for (name, unit) in &PER_LAYER[4..14] {
        report.metric(name, unit, 0.0);
    }
}

/// Campaign-layer metrics of a single-node workload.
fn emit_campaign_layers_absent(report: &mut Report) {
    for (name, unit) in &PER_LAYER[20..30] {
        report.metric(name, unit, 0.0);
    }
}

/// The traced run's closing figures: tracing overhead, traced wall time
/// and the sum of the layer self times it splits into.
fn emit_trace_footer(report: &mut Report, overhead_pct: f64, wall_s: f64, layer_sum_s: f64) {
    report.metric("trace.overhead_pct", "%", overhead_pct);
    report.metric("trace.wall_s", "s", wall_s);
    report.metric("trace.layer_sum_s", "s", layer_sum_s);
    report.notes.push(format!(
        "trace: layer self times sum to {layer_sum_s:.6} s of {wall_s:.6} s traced wall; overhead {overhead_pct:.1}%"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    fn declared(key: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let section = json
            .split(&format!("\"{key}\""))
            .nth(1)
            .expect("section present")
            .split(']')
            .next()
            .expect("section closes");
        section
            .split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    entry
                        .split(&format!("\"{f}\": \""))
                        .nth(1)
                        .and_then(|s| s.split('"').next())
                        .expect("field present")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json_and_charset() {
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
        }
        assert_eq!(&PER_LAYER[4].0, &"engine.step_calls");
        assert_eq!(&PER_LAYER[13].0, &"node.next_wakeup_ns");
        assert_eq!(&PER_LAYER[20].0, &"cosim.eval_s");
        assert_eq!(&PER_LAYER[29].0, &"core.irqs_serviced");
    }

    /// Every workload at a tiny size, traced and untraced: all checks
    /// pass and exactly the declared metrics come out, with their units.
    #[test]
    fn smoke_every_workload_emits_every_metric() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let opts = Opts {
                    workload: workload.to_string(),
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    tiny: true,
                };
                let r = run(&opts);
                assert!(r.correct(), "{workload} trace={trace}: {:?}", r.failures);
                let mut got: Vec<(&str, &str)> =
                    r.metrics.iter().map(|m| (m.name, m.unit)).collect();
                let mut want = if trace { PER_LAYER } else { END_TO_END }.to_vec();
                got.sort();
                want.sort();
                assert_eq!(got, want, "{workload} trace={trace}");
                if !trace {
                    for m in &r.metrics {
                        assert!(m.value > 0.0, "{workload}: {} is {}", m.name, m.value);
                    }
                }
            }
        }
    }
}
