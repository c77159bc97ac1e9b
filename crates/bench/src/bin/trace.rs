//! Telemetry trace dumper: run a reference workload with the typed trace
//! and metrics probes enabled, then export deterministic artifacts.
//!
//! ```text
//! cargo run -p ulp-bench --bin trace -- --app stage4 --out trace.json
//! ```
//!
//! Flags:
//!
//! * `--app stage4|mica2|net` — workload (default `stage4`)
//! * `--cycles N`  — horizon: cycles for `stage4`/`mica2`, co-sim slots
//!   for `net` (default per app, see `tracegen::default_horizon`)
//! * `--seed N`    — PRNG seed (default per app, matching the
//!   determinism suite)
//! * `--out PATH`  — write Chrome/Perfetto trace-event JSON here
//! * `--csv PATH`  — write the CSV timeline here
//! * `--summary PATH` — write the metrics summary table here
//! * `--check`     — run the workload twice, assert the three artifacts
//!   are byte-identical, and validate the JSON with the in-tree parser
//! * `--perf`      — run with the host-side profiler attached
//!   (`stage4`/`mica2` only): print the deterministic counts table and
//!   the wall-clock self-time table after the summary, and append the
//!   deterministic host-perf counter track to the `--out` JSON
//!
//! The metrics summary always goes to stdout. Open the JSON in
//! `chrome://tracing` or <https://ui.perfetto.dev>.

use std::path::PathBuf;

use ulp_bench::campaign::{exit_on_error, scan, usage_error, write_artifact, CliError};
use ulp_bench::{perf, tracegen};
use ulp_sim::telemetry::validate_json;

const USAGE: &str = "usage: trace [--app stage4|mica2|net] [--cycles N] [--seed N] \
     [--out FILE.json] [--csv FILE.csv] [--summary FILE.txt] [--check] [--perf]";

fn main() {
    exit_on_error(USAGE, run(std::env::args().skip(1)));
}

fn run(argv: impl IntoIterator<Item = String>) -> Result<(), CliError> {
    let mut app = String::from("stage4");
    let mut cycles: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut out: Option<PathBuf> = None;
    let mut csv: Option<PathBuf> = None;
    let mut summary: Option<PathBuf> = None;
    let mut check = false;
    let mut with_perf = false;
    scan(argv, |flag, args| {
        match flag {
            "--app" => app = args.value(flag)?,
            "--cycles" => cycles = Some(args.one(flag)?),
            "--seed" => seed = Some(args.one(flag)?),
            "--out" => out = Some(args.value(flag)?.into()),
            "--csv" => csv = Some(args.value(flag)?.into()),
            "--summary" => summary = Some(args.value(flag)?.into()),
            "--check" => check = true,
            "--perf" => with_perf = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if !matches!(app.as_str(), "stage4" | "mica2" | "net") {
        return Err(usage_error(format!("unknown app `{app}`")));
    }
    let cycles = cycles.unwrap_or_else(|| tracegen::default_horizon(&app));
    let seed = seed.unwrap_or_else(|| tracegen::default_seed(&app));
    if with_perf && app == "net" {
        return Err(usage_error(
            "--perf supports stage4|mica2 (net steps its nodes manually)",
        ));
    }

    let (export, perf_snapshot) = if with_perf {
        let (export, snap) = tracegen::run_perf(&app, cycles, seed);
        (export, Some(snap))
    } else {
        (tracegen::run(&app, cycles, seed), None)
    };
    if check {
        if let Some(snap) = &perf_snapshot {
            let (again, snap2) = tracegen::run_perf(&app, cycles, seed);
            assert_eq!(
                export.json, again.json,
                "profiled JSON must be deterministic"
            );
            assert_eq!(export.csv, again.csv, "CSV export must be deterministic");
            assert_eq!(
                export.summary, again.summary,
                "summary must be deterministic"
            );
            assert_eq!(
                snap.counts_table(),
                snap2.counts_table(),
                "perf counts must be deterministic"
            );
            // No observer effect: profiling must leave the guest-side
            // CSV and summary exactly as the unprofiled run produces.
            let plain = tracegen::run(&app, cycles, seed);
            assert_eq!(export.csv, plain.csv, "profiling changed the CSV");
            assert_eq!(
                export.summary, plain.summary,
                "profiling changed the summary"
            );
        } else {
            let again = tracegen::run(&app, cycles, seed);
            assert_eq!(export.json, again.json, "JSON export must be deterministic");
            assert_eq!(export.csv, again.csv, "CSV export must be deterministic");
            assert_eq!(
                export.summary, again.summary,
                "summary must be deterministic"
            );
        }
        validate_json(&export.json)
            .map_err(|e| CliError::Runtime(format!("trace JSON failed validation: {e}")))?;
        eprintln!("check ok: double run byte-identical, JSON well-formed");
    }
    write_artifact(out.as_deref(), || export.json.clone())?;
    write_artifact(csv.as_deref(), || export.csv.clone())?;
    write_artifact(summary.as_deref(), || export.summary.clone())?;
    print!("{}", export.summary);
    if let Some(snap) = &perf_snapshot {
        println!();
        print!("{}", perf::render_report(snap));
    }
    Ok(())
}
