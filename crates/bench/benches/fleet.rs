//! Benches of the parallel sweep engine: wall-clock of a small
//! seed-replication co-sim grid, serial vs parallel, so the checked-in
//! `BENCH_fleet.json` records a real points/sec and speedup trajectory
//! over time. Byte-identity across thread counts is asserted elsewhere
//! (`tests/fleet.rs`); here only the wall-clock is interesting.
//!
//! Runs on the in-tree `ulp_testkit::bench` harness (offline, zero
//! external crates).

use ulp_bench::cosim::{run_cosim_event, CosimConfig};
use ulp_bench::fleet::{self, Cell, Coords, Sweep};

/// A small seed-replication co-sim grid (8 points, a few ms each): big
/// enough that the fleet engine's scheduling shows up, small enough to
/// bench.
fn build_small_cosim_sweep() -> Sweep<CosimConfig> {
    let mut sweep = Sweep::new("bench-cosim", &["sent", "energy_j"]);
    for nodes in [4usize, 8] {
        for seed in 0..4u64 {
            sweep.push(
                Coords::new().with("nodes", nodes).with("seed", seed),
                CosimConfig {
                    nodes,
                    seed,
                    horizon_slots: 4_000,
                    ..CosimConfig::default()
                },
            );
        }
    }
    sweep
}

fn run_small_fleet(sweep: &Sweep<CosimConfig>, threads: usize) -> usize {
    let results = sweep
        .run(threads, |_, cfg| {
            let s = run_cosim_event(cfg);
            vec![Cell::U64(s.sent), Cell::F64(s.energy_j)]
        })
        .expect("bench sweep has no failing points");
    results.rows().len()
}

fn main() {
    use ulp_testkit::bench::{Harness, Throughput};
    let sweep = build_small_cosim_sweep();
    let points = sweep.len() as u64;
    let mut h = Harness::from_args("fleet");
    h.group("fleet").throughput(Throughput::Elements(points));
    h.bench("cosim_small/serial", || run_small_fleet(&sweep, 1));
    h.bench("cosim_small/parallel", || {
        run_small_fleet(&sweep, fleet::fleet_threads())
    });
    h.finish();
}
