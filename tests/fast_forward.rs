//! Idle-skip (fast-forward) equivalence: running any workload with the
//! engine's fast-forward enabled must be *observably identical* to
//! stepping every cycle — same clock, same busy cycles, same packets,
//! bit-identical energy (the meter counts integer cycles and prices them
//! only on read). This is the property that makes the week-long lifetime
//! studies trustworthy.

use ulp_node::apps::ulp::{monitoring, stages, AppStage, MonitoringConfig, SamplePeriod};
use ulp_node::core_arch::slaves::RandomWalkSensor;
use ulp_node::core_arch::{System, SystemConfig};
use ulp_node::net::Frame;
use ulp_node::sim::{Cycles, Engine, Simulatable, StepOutcome};
use ulp_testkit::{any_bool, any_u64, prop_assert_eq, props, vec_of};

#[derive(Debug, PartialEq)]
struct Observation {
    now: Cycles,
    busy: Cycles,
    transmitted: u64,
    forwarded: u64,
    duplicates: u64,
    irregular: u64,
    dropped: u64,
    wakeups: u64,
    frames: Vec<Vec<u8>>,
    energy_bits: u64,
}

fn observe(mut sys: System, horizon: u64, fast_forward: bool) -> Observation {
    let mut engine = Engine::new(sys);
    engine.set_fast_forward(fast_forward);
    engine.run_for(Cycles(horizon));
    sys = engine.into_machine();
    assert!(sys.fault().is_none(), "fault: {:?}", sys.fault());
    let m = sys.slaves().msgproc.stats();
    Observation {
        now: sys.now(),
        busy: sys.busy_cycles(),
        transmitted: sys.slaves().radio.stats().transmitted,
        forwarded: m.forwarded,
        duplicates: m.duplicates,
        irregular: m.irregular,
        dropped: sys.slaves().irqs.dropped(),
        wakeups: sys.mcu().stats().wakeups,
        energy_bits: sys.meter().total_energy().joules().to_bits(),
        frames: sys.take_outbox().into_iter().map(|(_, b)| b).collect(),
    }
}

props! {
    // Each equivalence case simulates 200k+ cycles twice (once without
    // idle-skip), so the default case count is trimmed like the old
    // `ProptestConfig::with_cases(16)`; ULP_PROPTEST_CASES still
    // overrides it.
    #![cases(16)]

    /// Stage-4 nodes under randomized rx schedules: skip-equivalent.
    #[test]
    fn app4_random_traffic_equivalence(
        period in 500u16..20_000,
        seed in any_u64(),
        arrivals in vec_of((1_000u64..180_000, 0u8..3), 0..12),
    ) {
        let build = || {
            let prog = stages::app4(SamplePeriod::Cycles(period), 20);
            let mut sys = prog.build_system(
                SystemConfig::default(),
                Box::new(RandomWalkSensor::new(128, seed)),
            );
            for (i, (at, kind)) in arrivals.iter().enumerate() {
                let frame = match kind {
                    0 => Frame::data(0x22, 0x0009, 0x0000, i as u8, &[i as u8]).unwrap(),
                    1 => Frame::data(0x22, 0x0009, 0x0001, i as u8, &[i as u8]).unwrap(),
                    _ => Frame::command(0x22, 0x0009, 0x0001, i as u8, &[2, 30, 0]).unwrap(),
                };
                sys.schedule_rx(Cycles(*at), frame.encode());
            }
            sys
        };
        let fast = observe(build(), 200_000, true);
        let slow = observe(build(), 200_000, false);
        assert_eq!(fast, slow);
    }

    /// Batched long-period workloads with chained timers: skip-equivalent.
    #[test]
    fn chained_batched_equivalence(
        base in 1_000u16..5_000,
        count in 2u16..20,
        batch in 1u8..10,
        seed in any_u64(),
    ) {
        let build = || {
            let prog = monitoring(&MonitoringConfig {
                stage: AppStage::SampleSend,
                period: SamplePeriod::Chained { base, count },
                samples_per_packet: batch,
                threshold: 0,
            });
            prog.build_system(
                SystemConfig::default(),
                Box::new(RandomWalkSensor::new(100, seed)),
            )
        };
        let horizon = base as u64 * count as u64 * 6;
        let fast = observe(build(), horizon, true);
        let slow = observe(build(), horizon, false);
        assert_eq!(fast, slow);
    }
}

/// Everything the energy ledger holds: per component its mode cycles and
/// activity-line unit-cycles, then the total energy's bits.
type Ledger = (Vec<([Cycles; 3], Vec<u64>)>, u64);

fn ledger(sys: &System) -> Ledger {
    let meter = sys.meter();
    let rows = meter
        .all()
        .map(|c| (c.mode_cycles, c.activities.iter().map(|a| a.unit_cycles).collect()))
        .collect();
    (rows, meter.total_energy().joules().to_bits())
}

/// Advance `sys` to `horizon` through `chunks`: `(true, n)` skips up to
/// `n` cycles when the machine allows it (last step idle, no wakeup due),
/// `(false, n)` steps `n` cycles; whatever remains is stepped.
fn advance_chunked(sys: &mut System, horizon: u64, chunks: &[(bool, u64)]) {
    let mut idle = false;
    for &(skip, n) in chunks.iter().chain([(false, u64::MAX)].iter()) {
        let end = sys.now().0.saturating_add(n).min(horizon);
        if skip && idle {
            let target = match sys.next_wakeup() {
                Some(w) => w.0.min(end),
                None => end,
            };
            if target > sys.now().0 {
                sys.skip_to(Cycles(target));
                continue;
            }
        }
        while sys.now().0 < end {
            idle = sys.step() == StepOutcome::Idle;
        }
    }
}

props! {
    #![cases(16)]

    /// One run advanced as a random mix of stepped cycles and skipped
    /// spans counts exactly the cycles, unit-cycles and energy bits of
    /// stepping every cycle: the ledger does not see how time was chunked.
    #[test]
    fn random_step_skip_chunking_is_exact(
        period in 500u16..8_000,
        seed in any_u64(),
        arrivals in vec_of(1_000u64..50_000, 0..6),
        chunks in vec_of((any_bool(), 1u64..12_000), 1..40),
    ) {
        let build = || {
            let prog = stages::app4(SamplePeriod::Cycles(period), 20);
            let mut sys = prog.build_system(
                SystemConfig::default(),
                Box::new(RandomWalkSensor::new(128, seed)),
            );
            for (i, at) in arrivals.iter().enumerate() {
                let frame = Frame::data(0x22, 0x0009, 0x0001, i as u8, &[i as u8]).unwrap();
                sys.schedule_rx(Cycles(*at), frame.encode());
            }
            sys
        };
        let horizon = 60_000;
        let mut chunked = build();
        advance_chunked(&mut chunked, horizon, &chunks);
        let mut stepped = build();
        advance_chunked(&mut stepped, horizon, &[]);
        prop_assert_eq!(chunked.fault(), None);
        prop_assert_eq!(chunked.now(), stepped.now());
        prop_assert_eq!(ledger(&chunked), ledger(&stepped));
    }
}

/// The long-horizon smoke: a simulated hour at GDI cadence with skip on
/// matches ten re-runs... too slow to compare cycle-by-cycle, so instead
/// assert determinism of the fast path and sanity of its accounting.
#[test]
fn long_horizon_fast_path_is_deterministic() {
    let run = || {
        let prog = stages::app1(SamplePeriod::Chained {
            base: 10_000,
            count: 700,
        });
        let config = SystemConfig {
            collect_outbox: false,
            ..SystemConfig::default()
        };
        let sys = prog.build_system(config, Box::new(RandomWalkSensor::new(50, 3)));
        let mut engine = Engine::new(sys);
        engine.run_for(Cycles(360_000_000)); // one simulated hour
        let sys = engine.into_machine();
        assert!(sys.fault().is_none());
        (
            sys.slaves().radio.stats().transmitted,
            sys.busy_cycles(),
            sys.meter().total_energy().joules().to_bits(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "bit-identical across runs");
    assert_eq!(a.0, 51, "3600 s / 70 s per sample");
}
