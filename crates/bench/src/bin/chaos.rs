//! Deterministic fault-injection campaigns on the parallel fleet engine.
//!
//! Runs an app × fault-rate × seed grid of chaos points (see
//! `ulp_bench::chaos`), each one an independent simulation with a
//! seed-derived hardware fault plan and the graceful-degradation
//! invariants asserted inline. Points execute on `ULP_FLEET_THREADS`
//! workers and merge in grid order — the campaign summary is
//! byte-identical whatever the thread count.
//!
//! ```text
//! cargo run --release -p ulp-bench --bin chaos -- --rates 0,0.001,0.004 --seeds 8
//! ```
//!
//! Grid flags:
//!
//! * `--apps A[,B,…]`  — applications to sweep: `app1`, `app2`, `app3`
//!   (default `app1,app2`)
//! * `--rates A[,B,…]` — fault rates (faults/cycle, in `[0, 1]`) to
//!   sweep (default `0,0.001`; `0` is the fault-free baseline)
//! * `--seeds N`       — seeds `0..N` per cell (default `4`)
//! * `--horizon N`     — cycles per point (default `30000`)
//! * `--summary PATH`  — write the deterministic campaign summary (the
//!   artifact `tests/golden.rs` pins)
//!
//! The shared flags (`--threads`, `--csv`, `--check`, `--progress`,
//! `--store`, `--store-stats`, `--shard`, `--merge`) and the exit codes
//! are documented once, in [`ulp_bench::campaign`].
//!
//! A violated degradation invariant aborts with the offending grid
//! point's (app, rate, seed) coordinates.

use std::num::NonZeroU64;
use std::path::PathBuf;

use ulp_bench::campaign::{
    self, drive, exit_on_error, print_table, write_artifact, CliError, DriveConfig, Flag,
    UnitInterval,
};
use ulp_bench::chaos::{self, campaign_summary, cells, run_chaos, ChaosApp, ChaosConfig};
use ulp_bench::fleet::Coords;

/// This binary's own flags.
const GRID_FLAGS: &[Flag] = &[
    ("--apps", Some("A[,B,..]")),
    ("--rates", Some("A[,B,..]")),
    ("--seeds", Some("N")),
    ("--horizon", Some("N")),
    ("--summary", Some("FILE")),
];

/// A parsed command line.
struct Cli {
    apps: Vec<ChaosApp>,
    rates: Vec<f64>,
    seeds: u64,
    horizon: u64,
    summary: Option<PathBuf>,
    drive: DriveConfig,
}

fn parse(argv: impl IntoIterator<Item = String>) -> Result<Cli, CliError> {
    let mut apps = vec![ChaosApp::Sample, ChaosApp::Filtered];
    let mut rates = vec![UnitInterval(0.0), UnitInterval(1e-3)];
    let mut seeds: Option<NonZeroU64> = None;
    let mut horizon: Option<NonZeroU64> = None;
    let mut summary = None;
    let config = campaign::parse(argv, |flag, args| {
        match flag {
            "--apps" => apps = args.list(flag)?,
            "--rates" => rates = args.list(flag)?,
            "--seeds" => seeds = Some(args.one(flag)?),
            "--horizon" => horizon = Some(args.one(flag)?),
            "--summary" => summary = Some(args.value(flag)?.into()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Cli {
        apps,
        rates: rates.into_iter().map(|r| r.0).collect(),
        seeds: seeds.map_or(4, NonZeroU64::get),
        horizon: horizon.map_or(ChaosConfig::default().horizon, NonZeroU64::get),
        summary,
        drive: config,
    })
}

fn run(cli: Cli) -> Result<(), CliError> {
    let sweep = chaos::campaign(&cli.apps, &cli.rates, cli.seeds, cli.horizon);
    eprintln!(
        "chaos: {} grid points ({} app(s) x rates {:?} x {} seeds), \
         {} cycles each, {} worker(s)",
        sweep.len(),
        cli.apps.len(),
        cli.rates,
        cli.seeds,
        cli.horizon,
        cli.drive.threads
    );
    let Some(results) = drive(
        &sweep,
        &cli.drive,
        |_: &Coords, cfg: &ChaosConfig| cfg.store_key(),
        |_: &Coords, cfg: &ChaosConfig| cells(&run_chaos(cfg)),
    )?
    else {
        return Ok(());
    };

    print_table(
        &results,
        &[
            ("App", "app"),
            ("Rate", "rate"),
            ("Seed", "seed"),
            ("Inj", "injected"),
            ("Abs", "absorbed"),
            ("Degr", "degraded"),
            ("Fatal", "fatal"),
            ("Sent", "sent"),
            ("Corrupt", "corrupt"),
            ("Halted", "halted"),
            ("Energy", "energy_j"),
        ],
    );
    let text = campaign_summary(&results);
    let aggregate = text.lines().last().unwrap_or("# aggregate: empty campaign");
    println!("\n{aggregate}");
    cli.drive.finish(&results)?;
    write_artifact(cli.summary.as_deref(), || text)
}

fn main() {
    let usage = campaign::usage("chaos", GRID_FLAGS);
    exit_on_error(&usage, parse(std::env::args().skip(1)).and_then(run));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_bench::campaign::arb_argv;
    use ulp_testkit::prop_assert;

    fn parse_strs(argv: &[&str]) -> Result<Cli, CliError> {
        parse(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_match_the_documented_grid() {
        let cli = parse_strs(&[]).unwrap();
        assert_eq!(cli.apps, [ChaosApp::Sample, ChaosApp::Filtered]);
        assert_eq!(cli.rates, [0.0, 1e-3]);
        assert_eq!((cli.seeds, cli.horizon), (4, 30_000));
        let cli = parse_strs(&["--apps", "app3", "--rates", "0, 0.004", "--seeds", "8"]).unwrap();
        assert_eq!(cli.apps, [ChaosApp::Forwarding]);
        assert_eq!(cli.rates, [0.0, 0.004]);
        assert_eq!(cli.seeds, 8);
    }

    #[test]
    fn bad_grid_values_are_usage_errors() {
        for argv in [
            &["--seeds", "1,5"][..],
            &["--seeds", "0"],
            &["--horizon", "0"],
            &["--horizon", "1,2"],
            &["--threads", "0"],
            &["--rates", "2"],
            &["--rates", "nan"],
            &["--rates", "-0.5"],
            &["--apps", "app9"],
            &["--apps", ""],
            &["--summary"],
        ] {
            let err = parse_strs(argv).err();
            assert!(matches!(err, Some(CliError::Usage(_))), "{argv:?}: {err:?}");
        }
    }

    ulp_testkit::props! {
        /// Generated command lines parse to a campaign or a typed error,
        /// never a panic; an accepted one respects every grid rule.
        #[test]
        fn parser_never_panics(argv in arb_argv(GRID_FLAGS)) {
            if let Ok(cli) = parse(argv) {
                prop_assert!(cli.seeds > 0 && cli.horizon > 0 && !cli.apps.is_empty());
                prop_assert!(cli.rates.iter().all(|r| (0.0..=1.0).contains(r)));
            }
        }
    }
}
