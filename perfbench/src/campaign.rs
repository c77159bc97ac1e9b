//! The `flood_campaign` workload: a grid of forwarding-flood co-simulation
//! points run through the campaign store, once cold (every point executes
//! on the fleet engine and is appended) and once warm (every point is
//! served from the reopened store).
//!
//! A run repeats *rounds* of the same grid, each on a fresh store
//! directory, so every round must produce the same bytes as the first.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ulp_bench::cosim::{run_cosim_event, CosimConfig, CosimSummary, SLOT_US};
use ulp_bench::fleet::{Cell, Coords, Sweep, SweepResults};
use ulp_bench::store::{run_stored, Store};

use crate::report::Report;
use crate::stats::{fastest, median};
use crate::{Opts, DEFAULT_SEED};

/// Node counts of the grid: the 128-node points set the tail.
const NODES: [usize; 3] = [32, 64, 128];
/// Seeds per node count in one round.
const SEEDS_PER_ROUND: u64 = 4;
/// Extra timed constructions before each round. A construction is tens of
/// µs of directory syscalls whose cost swings up to 5× with host load, so
/// the run samples it often.
const SETUP_ROUND_REPS: usize = 10;
/// Co-simulation horizon, 10 µs slots (the fleet default).
const HORIZON_SLOTS: u64 = 12_000;

const COLUMNS: [&str; 9] = [
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

/// The grid points of one round for `seed`.
fn grid(seed: u64, tiny: bool) -> Vec<CosimConfig> {
    let nodes: &[usize] = if tiny { &[4, 8] } else { &NODES };
    let mut points = Vec::new();
    for &n in nodes {
        for i in 0..SEEDS_PER_ROUND {
            points.push(CosimConfig {
                nodes: n,
                seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i),
                horizon_slots: if tiny { 6_000 } else { HORIZON_SLOTS },
                ..CosimConfig::default()
            });
        }
    }
    points
}

fn sweep(points: &[CosimConfig]) -> Sweep<CosimConfig> {
    let mut sweep = Sweep::new("flood_campaign", &COLUMNS);
    for p in points {
        let coords = Coords::new().with("nodes", p.nodes).with("seed", p.seed);
        sweep.push(coords, p.clone());
    }
    sweep
}

/// Simulated node-seconds of one grid point.
fn node_seconds(p: &CosimConfig) -> f64 {
    p.nodes as f64 * (p.horizon_slots * SLOT_US) as f64 * 1e-6
}

/// A point must flood: frames sent and delivered, EP interrupts serviced,
/// and (forwarding being a regular event) no µC ever woken.
fn point_sane(s: &CosimSummary) -> Result<(), String> {
    if s.sent > 0 && s.delivered > 0 && s.irqs_serviced > 0 && s.mcu_wakeups == 0 {
        Ok(())
    } else {
        Err(format!("flood did not run as expected: {s:?}"))
    }
}

/// Pinned summary of the default-seed 32-node point: frames sent,
/// deliveries, losses, frames heard by the base, radio transmissions and
/// EP interrupts serviced.
const PIN: (u64, u64, u64, u64, u64, u64) = (99, 2_880, 288, 94, 99, 483);
const PIN_ENERGY: f64 = 6.205_477_272_319_977e-6;

fn pin_check() -> Result<(), String> {
    let p = &grid(DEFAULT_SEED, false)[0];
    let s = run_cosim_event(p);
    let got = (
        s.sent,
        s.delivered,
        s.lost,
        s.heard,
        s.radio_tx,
        s.irqs_serviced,
    );
    if got == PIN && (s.energy_j - PIN_ENERGY).abs() <= 1e-6 * PIN_ENERGY {
        Ok(())
    } else {
        Err(format!(
            "pinned default-seed point differs: got {got:?} energy {:e}",
            s.energy_j
        ))
    }
}

/// Where a run keeps its store directories: inside the benchmark's own
/// directory, removed when the run ends.
fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".scratch")
        .join(format!("campaign-{}", std::process::id()))
}

/// Timings of one round.
struct Round {
    /// Host seconds of each cold point's evaluation, in grid order (one
    /// worker executes the misses in grid order).
    evals: Vec<f64>,
    cold: Duration,
    warm: Duration,
    reopen: Duration,
    serialize: Duration,
    /// The plain fleet pass of a traced round: wall and Σ eval.
    plain: Option<(Duration, f64)>,
}

/// Evaluate `sweep` through `store` on one worker, timing every point.
fn stored_pass(
    sweep: &Sweep<CosimConfig>,
    store: &mut Store,
) -> (Result<SweepResults, String>, Vec<f64>, Duration) {
    let evals = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let res = run_stored(
        sweep,
        store,
        1,
        None,
        |_, p| p.store_key(),
        |_, p| timed_eval(p, &evals),
        &(),
    );
    let wall = t0.elapsed();
    let evals = evals
        .into_inner()
        .expect("eval timing lock is never poisoned");
    (res.map_err(|e| e.to_string()), evals, wall)
}

fn timed_eval(p: &CosimConfig, evals: &Mutex<Vec<f64>>) -> Vec<Cell> {
    let t0 = Instant::now();
    let s = run_cosim_event(p);
    let dt = t0.elapsed().as_secs_f64();
    evals
        .lock()
        .expect("eval timing lock is never poisoned")
        .push(dt);
    if let Err(why) = point_sane(&s) {
        panic!("{why}");
    }
    cells(&s)
}

/// Run the campaign for `opts.seconds` and fill `report`.
pub fn run(opts: &Opts, report: &mut Report) {
    report.check(pin_check());
    let points = grid(opts.seed, opts.tiny);
    let root = scratch_dir();
    let mut setup: Vec<f64> = Vec::new();
    let construct_reps = |reps: usize, setup: &mut Vec<f64>| {
        for _ in 0..reps {
            let dir = root.join("setup");
            let (sweep, store, dt) = construct(&points, &dir);
            drop((sweep, store));
            let _ = std::fs::remove_dir_all(&dir);
            setup.push(dt);
        }
    };
    construct_reps(crate::SETUP_FIRST_REPS, &mut setup);

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let mut first: Option<Vec<Vec<Cell>>> = None;
    let mut hits = 0u64;
    let mut lookups = 0u64;
    for r in 0.. {
        construct_reps(SETUP_ROUND_REPS, &mut setup);
        let dir = root.join(format!("round{r}"));
        let (sweep, store, dt) = construct(&points, &dir);
        setup.push(dt);
        let mut store = match store {
            Ok(store) => store,
            Err(e) => {
                for i in 0..points.len() {
                    report.check(Err(format!("round {r} point {i}: store open: {e}")));
                }
                break;
            }
        };
        let plain = opts.trace.then(|| {
            let evals = Mutex::new(Vec::new());
            let t0 = Instant::now();
            let res = sweep.run(1, |_, p| timed_eval(p, &evals));
            let wall = t0.elapsed();
            if let Err(e) = res {
                report.check(Err(format!("plain fleet pass: {e}")));
            }
            let evals = evals
                .into_inner()
                .expect("eval timing lock is never poisoned");
            (wall, evals.iter().sum())
        });

        let (cold, evals, cold_wall) = stored_pass(&sweep, &mut store);
        let t0 = Instant::now();
        let serialized = cold.as_ref().map(|c| (c.to_csv(), c.to_json()));
        let serialize = t0.elapsed();
        let cold_stats = store.stats().clone();
        drop(store);
        let t0 = Instant::now();
        let reopened = Store::open(&dir);
        let reopen = t0.elapsed();
        let (warm, _, warm_wall) = match reopened {
            Ok(mut store) => {
                let (warm, evals, wall) = stored_pass(&sweep, &mut store);
                hits += store.stats().hits;
                lookups += store.stats().hits + store.stats().misses;
                let served = if evals.is_empty() {
                    warm
                } else {
                    Err(format!("warm pass executed {} points", evals.len()))
                };
                (served, evals, wall)
            }
            Err(e) => (
                Err(format!("store reopen: {e}")),
                Vec::new(),
                Duration::ZERO,
            ),
        };
        hits += cold_stats.hits;
        lookups += cold_stats.hits + cold_stats.misses;
        let _ = std::fs::remove_dir_all(&dir);

        // One operation per grid point: executed, sane, served warm
        // byte-for-byte, and identical to the first round.
        match (&cold, &serialized, &warm) {
            (Ok(c), Ok((csv, _json)), Ok(w)) => {
                let warm_csv = w.to_csv();
                let reference = first.get_or_insert_with(|| c.rows().to_vec());
                for (i, row) in c.rows().iter().enumerate() {
                    report.check(if warm_csv != *csv {
                        Err(format!("round {r}: warm CSV differs from cold CSV"))
                    } else if w.rows()[i] != *row {
                        Err(format!("round {r} point {i}: warm row differs"))
                    } else if reference[i] != *row {
                        Err(format!("round {r} point {i}: differs from round 0"))
                    } else {
                        Ok(())
                    });
                }
            }
            (c, _, w) => {
                let why = [c.as_ref().err(), w.as_ref().err()]
                    .into_iter()
                    .flatten()
                    .next()
                    .and_then(|why| why.lines().next())
                    .unwrap_or_default()
                    .to_string();
                for i in 0..points.len() {
                    report.check(Err(format!("round {r} point {i}: {why}")));
                }
            }
        }
        rounds.push(Round {
            evals,
            cold: cold_wall,
            warm: warm_wall,
            reopen,
            serialize,
            plain,
        });
        if Instant::now() >= deadline {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&root);

    let n = points.len() as f64;
    let node_s: f64 = points.iter().map(node_seconds).sum();
    if !opts.trace {
        report.metric("setup_s", "s", fastest(&setup).unwrap_or(0.0));
        report.metric(
            "node_s_per_host_s",
            "node_s/s",
            node_s / fast_round_s(&points, &rounds),
        );
        return;
    }
    let med = |f: &dyn Fn(&Round) -> f64| {
        median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    report.metric("apps.build_s", "s", 0.0);
    report.metric("machine.new_s", "s", 0.0);
    report.metric("traffic.load_s", "s", 0.0);
    report.metric("store.open_s", "s", med(&|r| r.reopen.as_secs_f64()));
    crate::emit_engine_layers_absent(report);

    let sums = |col: usize| -> f64 {
        first
            .iter()
            .flatten()
            .map(|row| match &row[2 + col] {
                Cell::U64(v) => *v as f64,
                _ => 0.0,
            })
            .sum()
    };
    report.metric("core.ep_active_cycles", "count", 0.0);
    report.metric("core.mcu_wakeups", "count", sums(5));
    report.metric("core.radio_active_cycles", "count", 0.0);
    report.metric("mcu8.cycles", "count", 0.0);
    report.metric("mica.active_cycles", "count", 0.0);
    report.metric("mica.adc_conversions", "count", 0.0);

    let eval_s = med(&|r| r.evals.iter().sum());
    let plain_wall = med(&|r| r.plain.map_or(0.0, |(w, _)| w.as_secs_f64()));
    let plain_eval = med(&|r| r.plain.map_or(0.0, |(_, e)| e));
    let fleet_self = (plain_wall - plain_eval).max(0.0);
    report.metric("cosim.eval_s", "s", eval_s);
    report.metric("fleet.self_s", "s", fleet_self);
    report.metric(
        "fleet.serialize_s",
        "s",
        med(&|r| r.serialize.as_secs_f64()),
    );
    report.metric(
        "store.hit_us",
        "us",
        med(&|r| r.warm.as_secs_f64()) / n * 1e6,
    );
    report.metric(
        "store.miss_overhead_us",
        "us",
        med(&|r| r.cold.as_secs_f64() - r.evals.iter().sum::<f64>()) / n * 1e6,
    );
    report.metric(
        "store.hit_ratio",
        "ratio",
        hits as f64 / lookups.max(1) as f64,
    );
    report.metric("net.frames_sent", "count", sums(0));
    report.metric("net.deliveries", "count", sums(1));
    report.metric("net.losses", "count", sums(2));
    report.metric("core.irqs_serviced", "count", sums(8));
    let evals: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.evals.iter().copied())
        .collect();
    crate::emit_points(report, &evals, "grid points");
    // Point timing is on in every run, traced or not, so tracing adds
    // nothing here; the layer split of the plain fleet pass is exact.
    crate::emit_trace_footer(report, 0.0, plain_wall, plain_eval + fleet_self);
}

/// Host seconds of one round at full host speed: the sum over grid points
/// of each point's fastest evaluation across the rounds. Every round
/// evaluates the same points, so this is the fastest repetition of the
/// same work, taken per point: a run holds a few dozen rounds, and a slow
/// host phase rarely spares a whole round. Store and fleet overhead (tens
/// of µs per point against tens of ms of simulation) are left out.
fn fast_round_s(points: &[CosimConfig], rounds: &[Round]) -> f64 {
    (0..points.len())
        .map(|i| {
            let times: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.evals.get(i).copied())
                .collect();
            fastest(&times).unwrap_or(f64::INFINITY)
        })
        .sum()
}

/// Build the sweep and open a fresh store at `dir`: the campaign's setup.
fn construct(
    points: &[CosimConfig],
    dir: &Path,
) -> (Sweep<CosimConfig>, std::io::Result<Store>, f64) {
    let t0 = Instant::now();
    let sweep = sweep(points);
    let store = Store::open(dir);
    let dt = t0.elapsed().as_secs_f64();
    (sweep, store, dt)
}
