//! Seed-replication co-simulation sweeps on the parallel fleet engine.
//!
//! Scales the `ulp-net` lossy co-simulation (64–256 cycle-accurate
//! nodes flooding towards a base station) across a node-count ×
//! loss-rate × seed grid, one independent simulation per grid point,
//! executed by `ulp_bench::fleet` on `ULP_FLEET_THREADS` workers and
//! merged in grid order — the serialized results are byte-identical
//! whatever the thread count.
//!
//! ```text
//! cargo run --release -p ulp-bench --bin fleet -- --nodes 64,128 --seeds 16
//! cargo run --release -p ulp-bench --bin fleet -- --dense --nodes 10000
//! ```
//!
//! Grid flags:
//!
//! * `--nodes A[,B,…]` — node counts to sweep, each ≥ 1 (default `64`;
//!   `1024` with `--dense`); without `--dense` at most 65533, the nodes
//!   whose 16-bit short addresses fit below broadcast
//! * `--loss  A[,B,…]` — loss probabilities to sweep, in `[0, 1]`
//!   (default `0.1`)
//! * `--seeds N`       — seeds `0..N` per cell (default `8`; `1` with
//!   `--dense`)
//! * `--slots N`       — horizon in 10 µs co-sim slots (default `12000`;
//!   `20000` with `--dense`)
//! * `--dense`         — spatial dense-network mode: tiles of 64 nodes
//!   on the event-wheel [`SpatialMedium`](ulp_net::SpatialMedium), one
//!   grid point per tile, aggregated per scenario (see
//!   [`ulp_bench::dense`])
//! * `--density A[,B,…]` — (`--dense` only) nodes per hectare, each
//!   positive (default `25`)
//! * `--duty A[,B,…]`  — (`--dense` only) sample period in cycles, each
//!   ≥ 1 (default `5000`)
//! * `--json PATH`     — write the machine-readable results as JSON
//!
//! The shared flags (`--threads`, `--csv`, `--check`, `--progress`,
//! `--store`, `--store-stats`, `--shard`, `--merge`) and the exit codes
//! are documented once, in [`ulp_bench::campaign`].
//!
//! A summary table always goes to stdout and the per-sweep wall-clock
//! to stderr; a panicking grid point aborts with its scenario
//! coordinates.

use std::num::{NonZeroU16, NonZeroU64, NonZeroUsize};
use std::path::PathBuf;
use std::str::FromStr;

use ulp_bench::campaign::{
    self, drive, exit_on_error, print_table, usage_error, write_artifact, CliError, DriveConfig,
    Flag, UnitInterval,
};
use ulp_bench::cosim::{run_cosim_event, CosimConfig, CosimSummary, MAX_NODES};
use ulp_bench::dense::{self, DenseConfig};
use ulp_bench::fleet::{Cell, Coords, Sweep, SweepResults};

/// This binary's own flags.
const GRID_FLAGS: &[Flag] = &[
    ("--dense", None),
    ("--nodes", Some("A[,B,..]")),
    ("--loss", Some("A[,B,..]")),
    ("--density", Some("A[,B,..]")),
    ("--duty", Some("A[,B,..]")),
    ("--seeds", Some("N")),
    ("--slots", Some("N")),
    ("--json", Some("FILE")),
];

/// The metric columns of one co-sim grid point, in declaration order.
const METRICS: &[&str] = &[
    "sent",
    "delivered",
    "lost",
    "heard",
    "radio_tx",
    "mcu_wakeups",
    "energy_j",
    "service_p99",
    "irqs_serviced",
];

fn cells(s: &CosimSummary) -> Vec<Cell> {
    vec![
        Cell::U64(s.sent),
        Cell::U64(s.delivered),
        Cell::U64(s.lost),
        Cell::U64(s.heard),
        Cell::U64(s.radio_tx),
        Cell::U64(s.mcu_wakeups),
        Cell::F64(s.energy_j),
        Cell::U64(s.service_p99),
        Cell::U64(s.irqs_serviced),
    ]
}

fn build_sweep(nodes: &[usize], losses: &[f64], seeds: u64, slots: u64) -> Sweep<CosimConfig> {
    let mut sweep = Sweep::new("cosim-replication", METRICS);
    for &n in nodes {
        for &loss in losses {
            for seed in 0..seeds {
                sweep.push(
                    Coords::new()
                        .with("nodes", n)
                        .with("loss", loss)
                        .with("seed", seed),
                    CosimConfig {
                        nodes: n,
                        loss,
                        seed,
                        horizon_slots: slots,
                        ..CosimConfig::default()
                    },
                );
            }
        }
    }
    sweep
}

/// A node density in nodes per hectare: finite and positive.
struct Density(f64);

impl FromStr for Density {
    type Err = &'static str;
    fn from_str(s: &str) -> Result<Density, &'static str> {
        match s.parse::<f64>() {
            Ok(d) if d.is_finite() && d > 0.0 => Ok(Density(d)),
            _ => Err("not a positive number of nodes per hectare"),
        }
    }
}

/// A parsed command line.
struct Cli {
    dense: bool,
    nodes: Vec<usize>,
    losses: Vec<f64>,
    densities: Vec<f64>,
    duties: Vec<u16>,
    seeds: u64,
    slots: u64,
    json: Option<PathBuf>,
    drive: DriveConfig,
}

fn parse(argv: impl IntoIterator<Item = String>) -> Result<Cli, CliError> {
    let mut dense = false;
    let mut nodes: Option<Vec<NonZeroUsize>> = None;
    let mut losses = vec![UnitInterval(0.1)];
    let mut densities = vec![Density(25.0)];
    let mut duties: Option<Vec<NonZeroU16>> = None;
    let mut seeds: Option<NonZeroU64> = None;
    let mut slots: Option<NonZeroU64> = None;
    let mut json = None;
    let config = campaign::parse(argv, |flag, args| {
        match flag {
            "--dense" => dense = true,
            "--nodes" => nodes = Some(args.list(flag)?),
            "--loss" => losses = args.list(flag)?,
            "--density" => densities = args.list(flag)?,
            "--duty" => duties = Some(args.list(flag)?),
            "--seeds" => seeds = Some(args.one(flag)?),
            "--slots" => slots = Some(args.one(flag)?),
            "--json" => json = Some(args.value(flag)?.into()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let default_slots = if dense {
        DenseConfig::default().horizon_slots
    } else {
        CosimConfig::default().horizon_slots
    };
    let nodes: Vec<usize> = nodes.map_or(vec![if dense { 1_024 } else { 64 }], |n| {
        n.into_iter().map(NonZeroUsize::get).collect()
    });
    if let Some(n) = nodes.iter().find(|&&n| !dense && n > MAX_NODES) {
        return Err(usage_error(format!(
            "--nodes {n}: node i takes short address 2 + i, so at most {MAX_NODES} nodes fit"
        )));
    }
    Ok(Cli {
        dense,
        nodes,
        losses: losses.into_iter().map(|l| l.0).collect(),
        densities: densities.into_iter().map(|d| d.0).collect(),
        duties: duties.map_or(vec![5_000], |d| {
            d.into_iter().map(NonZeroU16::get).collect()
        }),
        seeds: seeds.map_or(if dense { 1 } else { 8 }, NonZeroU64::get),
        slots: slots.map_or(default_slots, NonZeroU64::get),
        json,
        drive: config,
    })
}

fn run(cli: Cli) -> Result<(), CliError> {
    let (nodes, seeds, slots, threads) = (&cli.nodes, cli.seeds, cli.slots, cli.drive.threads);
    let finish = |results: &SweepResults| {
        cli.drive.finish(results)?;
        write_artifact(cli.json.as_deref(), || results.to_json())
    };

    if cli.dense {
        let base_seed = DenseConfig::default().seed;
        let mut scenarios = Vec::new();
        for &n in nodes {
            for &density in &cli.densities {
                for &duty in &cli.duties {
                    for seed in 0..seeds {
                        scenarios.push(DenseConfig {
                            nodes: n,
                            density_per_ha: density,
                            duty,
                            horizon_slots: slots,
                            seed: base_seed + seed,
                        });
                    }
                }
            }
        }
        let sweep = dense::dense_sweep(&scenarios);
        eprintln!(
            "fleet --dense: {} tiles over {} scenario(s) (nodes {nodes:?} x density \
             {:?} x duty {:?} x {seeds} seed(s)), {slots} slots each, {threads} worker(s)",
            sweep.len(),
            scenarios.len(),
            cli.densities,
            cli.duties
        );
        let Some(results) = drive(
            &sweep,
            &cli.drive,
            dense::dense_store_key,
            dense::dense_eval,
        )?
        else {
            return Ok(());
        };
        print!("{}", dense::dense_report(&results));
        return finish(&results);
    }

    let sweep = build_sweep(nodes, &cli.losses, seeds, slots);
    eprintln!(
        "fleet: {} grid points (nodes {nodes:?} x loss {:?} x {seeds} seeds), \
         {slots} slots each, {threads} worker(s)",
        sweep.len(),
        cli.losses
    );
    // The store key names the driver: rows cached from the slot-stepped
    // driver (whose energy differs in the last digits) are never served.
    let Some(results) = drive(
        &sweep,
        &cli.drive,
        |_: &Coords, cfg: &CosimConfig| format!("{};driver=event", cfg.store_key()),
        |_: &Coords, cfg| cells(&run_cosim_event(cfg)),
    )?
    else {
        return Ok(());
    };
    print_table(
        &results,
        &[
            ("Nodes", "nodes"),
            ("Loss", "loss"),
            ("Seed", "seed"),
            ("Sent", "sent"),
            ("Heard", "heard"),
            ("Lost", "lost"),
            ("Wakeups", "mcu_wakeups"),
            ("Energy", "energy_j"),
            ("p99", "service_p99"),
        ],
    );
    finish(&results)
}

fn main() {
    let usage = campaign::usage("fleet", GRID_FLAGS);
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
    fn defaults_depend_on_the_mode() {
        let cli = parse_strs(&[]).unwrap();
        assert_eq!((cli.nodes, cli.seeds, cli.slots), (vec![64], 8, 12_000));
        assert_eq!(cli.losses, [0.1]);
        let cli = parse_strs(&["--dense"]).unwrap();
        assert_eq!((cli.nodes, cli.seeds, cli.slots), (vec![1_024], 1, 20_000));
        assert_eq!((cli.densities, cli.duties), (vec![25.0], vec![5_000]));
        let cli = parse_strs(&["--nodes", "16, 32", "--loss", "0,1", "--seeds", "2"]).unwrap();
        assert_eq!(
            (cli.nodes, cli.losses, cli.seeds),
            (vec![16, 32], vec![0.0, 1.0], 2)
        );
        let cli = parse_strs(&["--nodes", "65533"]).unwrap();
        assert_eq!(cli.nodes, [MAX_NODES], "the last address below broadcast");
        let cli = parse_strs(&["--dense", "--nodes", "65537"]).unwrap();
        assert_eq!(cli.nodes, [65_537], "dense tiles address nodes per tile");
    }

    #[test]
    fn bad_grid_values_are_usage_errors() {
        for argv in [
            &["--threads", "0"][..],
            &["--slots", "0"],
            &["--seeds", "1,5"],
            &["--seeds", "0"],
            &["--nodes", "0"],
            &["--nodes", "16,"],
            &["--nodes", "65534"],
            &["--nodes", "16,65537"],
            &["--loss", "2"],
            &["--loss", "nan"],
            &["--dense", "--duty", "0"],
            &["--dense", "--density", "0"],
            &["--dense", "--density", "-5"],
            &["--dense", "--density", "inf"],
            &["--json"],
            &["--nodes", "16", "extra"],
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
                prop_assert!(cli.seeds > 0 && cli.slots > 0);
                prop_assert!(cli.nodes.iter().all(|&n| n > 0));
                prop_assert!(cli.dense || cli.nodes.iter().all(|&n| n <= MAX_NODES));
                prop_assert!(cli.losses.iter().all(|l| (0.0..=1.0).contains(l)));
                prop_assert!(cli.densities.iter().all(|d| d.is_finite() && *d > 0.0));
                prop_assert!(cli.duties.iter().all(|&d| d > 0));
            }
        }
    }
}
