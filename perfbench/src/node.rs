//! The three single-node workloads: one machine driven by the `ulp-sim`
//! [`Engine`] through equal simulated-time slices.
//!
//! A run repeats *episodes*. Each episode builds the machine from source
//! (firmware, machine, seeded traffic), then runs it over a fixed number
//! of slices. Every episode of a run gets the same inputs, so every
//! episode must end with the same guest outputs; in a traced run each
//! traced episode must also match the untraced one before it.

use std::time::{Duration, Instant};

use ulp_apps::mica as mapps;
use ulp_apps::ulp::{stages, SamplePeriod};
use ulp_core::slaves::{RandomWalkSensor, TraceSensor};
use ulp_core::{System, SystemConfig};
use ulp_mica::board::Mica2Board;
use ulp_net::Frame;
use ulp_sim::{Cycles, Engine, Simulatable};
use ulp_testkit::Rng;

use crate::report::Report;
use crate::stats::{fast_rate, fastest};
use crate::traced::{BoundaryTimes, Traced};
use crate::{Opts, DEFAULT_SEED};

/// Guest-side results of a run: exact counts plus the metered energy.
#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    /// Named integer counts, in a fixed order.
    pub counts: Vec<(&'static str, u64)>,
    /// Metered energy in joules (0 where the machine has no meter).
    pub energy_j: f64,
}

impl Outputs {
    /// The count called `name` (0 if absent).
    pub fn get(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// A machine a node workload drives.
pub trait Node: Simulatable {
    /// Guest outputs so far. Takes `&mut` so a machine can drain
    /// buffers it would otherwise grow without bound.
    fn outputs(&mut self) -> Outputs;
    /// `Err` if the machine faulted or halted.
    fn health(&self) -> Result<(), String>;
}

impl Node for System {
    fn outputs(&mut self) -> Outputs {
        let ids = self.meter_ids();
        let active = |id| self.meter().stats(id).mode_cycles[0].0;
        let ep = self.ep().stats();
        let mcu = self.mcu().stats();
        let radio = self.slaves().radio.stats();
        let msg = self.slaves().msgproc.stats();
        Outputs {
            counts: vec![
                ("cycles", self.now().0),
                ("busy_cycles", self.busy_cycles().0),
                ("ep_events", ep.events),
                ("ep_instructions", ep.instructions),
                ("ep_active_cycles", active(ids.ep)),
                ("mcu_wakeups", mcu.wakeups),
                ("mcu_instructions", mcu.instructions),
                ("radio_active_cycles", active(ids.radio)),
                ("radio_transmitted", radio.transmitted),
                ("radio_received", radio.received),
                ("msg_forwarded", msg.forwarded),
                ("msg_irregular", msg.irregular),
            ],
            energy_j: self.meter().total_energy().joules(),
        }
    }

    fn health(&self) -> Result<(), String> {
        match self.fault() {
            Some(f) => Err(format!("system fault: {f}")),
            None => Ok(()),
        }
    }
}

impl Node for Mica2Board {
    fn outputs(&mut self) -> Outputs {
        self.take_sent(); // counted by `radio.sent`; the log itself is not needed
        let m = self.metrics_snapshot();
        let (active, idle, save) = self.mode_cycles();
        Outputs {
            counts: vec![
                ("cycles", self.now().0),
                ("cpu_cycles", self.cpu().total_cycles()),
                ("active_cycles", active),
                ("idle_sleep_cycles", idle),
                ("power_save_cycles", save),
                ("adc_conversions", self.adc_conversions()),
                ("radio_sent", m.counter("radio.sent").unwrap_or(0)),
            ],
            energy_j: 0.0,
        }
    }

    fn health(&self) -> Result<(), String> {
        if self.halted() {
            Err("mica2 cpu halted".into())
        } else {
            Ok(())
        }
    }
}

/// Host time of one construction, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSplit {
    /// Building the firmware (EP ISR encoding / AVR assembly).
    pub apps: Duration,
    /// Constructing the machine and installing the firmware.
    pub machine: Duration,
    /// Scheduling the seeded inbound frames.
    pub traffic: Duration,
}

impl SetupSplit {
    fn total(&self) -> Duration {
        self.apps + self.machine + self.traffic
    }
}

/// Inbound frames: `(arrival cycle, encoded bytes)`, in arrival order.
pub type Traffic = Vec<(u64, Vec<u8>)>;

/// The fixed shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Simulated cycles per slice.
    pub slice_cycles: u64,
    /// Slices per episode.
    pub slices: u64,
    /// Machine clock, Hz (converts cycles to simulated seconds).
    pub clock_hz: f64,
    /// The count that must grow in every slice, and its minimum growth
    /// (half the app's nominal rate, so a wedged app is caught).
    pub work: (&'static str, u64),
}

impl Plan {
    fn horizon(&self) -> u64 {
        self.slice_cycles * self.slices
    }
}

/// One episode's inputs, generated from the seed before any timing.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The seed (the GDI node's random-walk sensor takes it directly).
    pub seed: u64,
    /// Sensor/ADC samples, replayed in a loop.
    pub samples: Vec<u8>,
    /// Inbound frames.
    pub traffic: Traffic,
}

impl Inputs {
    fn new(seed: u64, traffic: Traffic) -> Inputs {
        let mut rng = Rng::from_seed(seed ^ 0x5A3F_1E5D);
        let samples = (0..SAMPLES).map(|_| rng.next_u64() as u8).collect();
        Inputs {
            seed,
            samples,
            traffic,
        }
    }
}

/// A node workload: its plan, inputs, build function and pinned outputs.
pub struct Workload<N> {
    /// Episode shape.
    pub plan: Plan,
    /// Seeded inputs of one episode.
    pub inputs: Inputs,
    /// Build the machine from the inputs, timing each layer.
    pub build: fn(Inputs) -> (N, SetupSplit),
    /// Slices of the pinned default-seed check, and its expected counts
    /// and energy.
    pub pin: (u64, &'static [(&'static str, u64)], f64),
}

// ---------------------------------------------------------------------
// ulp_stage4: the stage-4 app on the ULP node with mixed traffic
// ---------------------------------------------------------------------

/// Stage-4 sampling period on the ULP node, cycles (fast sampling).
const ULP4_PERIOD: u16 = 250;
/// Stage-4 filter threshold: with uniform samples about 22% pass, so most
/// wakes are a short sample-and-filter ISR run and some send a frame.
const THRESHOLD: u8 = 200;
/// Seeded sensor/ADC samples per episode (the ULP sensor loops over them).
const SAMPLES: usize = 4_096;
/// ULP stage-4 frames per episode.
const ULP4_FRAMES: usize = 4_000;

/// The `ulp_stage4` workload for `seed`.
pub fn ulp_stage4(seed: u64, tiny: bool) -> Workload<System> {
    let plan = Plan {
        slice_cycles: 200_000,
        slices: if tiny { 2 } else { 40 },
        clock_hz: 100_000.0,
        work: ("ep_events", 200_000 / ULP4_PERIOD as u64 / 2),
    };
    let frames = if tiny { 100 } else { ULP4_FRAMES };
    Workload {
        plan,
        inputs: Inputs::new(seed, traffic(seed, frames, plan.horizon(), ULP4_PERIOD)),
        build: |inputs| {
            let t0 = Instant::now();
            let prog = stages::app4(SamplePeriod::Cycles(ULP4_PERIOD), THRESHOLD);
            let t1 = Instant::now();
            let config = SystemConfig {
                collect_outbox: false,
                ..SystemConfig::default()
            };
            let sensor = TraceSensor::new(inputs.samples);
            let mut sys = prog.build_system(config, Box::new(sensor));
            let t2 = Instant::now();
            for (at, bytes) in inputs.traffic {
                sys.schedule_rx(Cycles(at), bytes);
            }
            let t3 = Instant::now();
            (sys, split(t0, t1, t2, t3))
        },
        pin: (2, ULP4_PIN, ULP4_PIN_ENERGY),
    }
}

/// Default-seed outputs after the first two slices.
const ULP4_PIN: &[(&str, u64)] = &[
    ("cycles", 400_000),
    ("busy_cycles", 95_457),
    ("ep_events", 3_221),
    ("ep_instructions", 15_392),
    ("ep_active_cycles", 94_613),
    ("mcu_wakeups", 3),
    ("mcu_instructions", 42),
    ("radio_active_cycles", 400_000),
    ("radio_transmitted", 526),
    ("radio_received", 189),
    ("msg_forwarded", 186),
    ("msg_irregular", 3),
];
const ULP4_PIN_ENERGY: f64 = 1.595_274_210_661_955_3e-5;

// ---------------------------------------------------------------------
// mica2_stage4: the same app and traffic mix on the Mica2 baseline
// ---------------------------------------------------------------------

/// Mica2 cycles per runtime tick (the runtime's default tick compare).
const MICA_TICK: u64 = 7_360;
/// Mica2 stage-4 frames per episode.
const MICA4_FRAMES: usize = 400;

/// The `mica2_stage4` workload for `seed`.
pub fn mica2_stage4(seed: u64, tiny: bool) -> Workload<Mica2Board> {
    let ticks_per_slice = 1_000;
    let plan = Plan {
        slice_cycles: MICA_TICK * ticks_per_slice,
        slices: if tiny { 2 } else { 10 },
        clock_hz: ulp_mica::io::CPU_HZ,
        work: ("adc_conversions", ticks_per_slice / 2),
    };
    let frames = if tiny { 10 } else { MICA4_FRAMES };
    Workload {
        plan,
        inputs: Inputs::new(seed, traffic(seed, frames, plan.horizon(), 1)),
        build: |inputs| {
            let t0 = Instant::now();
            let app = mapps::app4(1, THRESHOLD);
            let t1 = Instant::now();
            let mut next = inputs.samples.into_iter().cycle();
            let adc = Box::new(move |_| next.next().expect("cycled samples never end"));
            let mut board = Mica2Board::new(app.image(), adc);
            let t2 = Instant::now();
            for (at, bytes) in inputs.traffic {
                board.schedule_rx(Cycles(at), bytes);
            }
            let t3 = Instant::now();
            (board, split(t0, t1, t2, t3))
        },
        pin: (2, MICA4_PIN, 0.0),
    }
}

/// Default-seed outputs after the first two slices.
const MICA4_PIN: &[(&str, u64)] = &[
    ("cycles", 14_720_000),
    ("cpu_cycles", 1_390_446),
    ("active_cycles", 1_367_691),
    ("idle_sleep_cycles", 0),
    ("power_save_cycles", 13_352_309),
    ("adc_conversions", 1_999),
    ("radio_sent", 521),
];

// ---------------------------------------------------------------------
// ulp_lifetime: the GDI node over simulated days
// ---------------------------------------------------------------------

/// One simulated hour at the ULP node's 100 kHz clock.
const HOUR_CYCLES: u64 = 3_600 * 100_000;
/// GDI sampling: timer 0 ticks every 10 000 cycles, chained ×700 = 70 s.
const GDI_PERIOD: SamplePeriod = SamplePeriod::Chained {
    base: 10_000,
    count: 700,
};

/// The `ulp_lifetime` workload for `seed`.
pub fn ulp_lifetime(seed: u64, tiny: bool) -> Workload<System> {
    let plan = Plan {
        slice_cycles: HOUR_CYCLES,
        slices: if tiny { 2 } else { 24 },
        clock_hz: 100_000.0,
        work: ("radio_transmitted", HOUR_CYCLES / GDI_PERIOD.cycles() / 2),
    };
    Workload {
        plan,
        inputs: Inputs::new(seed, Vec::new()),
        build: |inputs| {
            let t0 = Instant::now();
            let prog = stages::app1(GDI_PERIOD);
            let t1 = Instant::now();
            let config = SystemConfig {
                collect_outbox: false,
                ..SystemConfig::default()
            };
            let sys = prog.build_system(config, Box::new(RandomWalkSensor::new(120, inputs.seed)));
            let t2 = Instant::now();
            (sys, split(t0, t1, t2, t2))
        },
        pin: (2, GDI_PIN, GDI_PIN_ENERGY),
    }
}

/// Default-seed outputs after the first two slices (simulated hours).
const GDI_PIN: &[(&str, u64)] = &[
    ("cycles", 720_000_000),
    ("busy_cycles", 8_976),
    ("ep_events", 306),
    ("ep_instructions", 1_632),
    ("ep_active_cycles", 8_874),
    ("mcu_wakeups", 0),
    ("mcu_instructions", 0),
    ("radio_active_cycles", 5_916),
    ("radio_transmitted", 102),
    ("radio_received", 0),
    ("msg_forwarded", 0),
    ("msg_irregular", 0),
];
const GDI_PIN_ENERGY: f64 = 2.879_753_946_287_021_5e-3;

fn split(t0: Instant, t1: Instant, t2: Instant, t3: Instant) -> SetupSplit {
    SetupSplit {
        apps: t1 - t0,
        machine: t2 - t1,
        traffic: t3 - t2,
    }
}

/// Short address of the node under test, on both platforms.
const NODE_ADDR: u16 = 0x0001;

/// Seeded inbound traffic for the stage-4 node: `frames` arrivals spread
/// over `horizon` cycles. About 1 in 50 is a
/// reconfiguration command (an irregular event that wakes the µC): it
/// either sets the filter threshold or re-sets the sampling period to
/// `period`, so the app keeps sampling at its nominal rate. The rest are
/// data frames from neighbours addressed to the base station (regular
/// events: the node forwards them), with the occasional duplicate.
pub fn traffic(seed: u64, frames: usize, horizon: u64, period: u16) -> Traffic {
    let mut rng = Rng::from_seed(seed ^ 0x7A11_F1C5);
    let gap = horizon / (frames as u64 + 1);
    let mut at = 0;
    let mut out = Vec::with_capacity(frames);
    for i in 0..frames {
        at += 1 + gap / 2 + rng.next_u64() % gap.max(1);
        let seq = i as u8;
        let frame = if rng.next_u64().is_multiple_of(50) {
            let payload = if rng.next_u64().is_multiple_of(2) {
                [2, THRESHOLD - 8 + (rng.next_u64() % 17) as u8, 0]
            } else {
                let [lo, hi] = period.to_le_bytes();
                [1, lo, hi]
            };
            Frame::command(0x22, 0x0009, NODE_ADDR, seq, &payload)
        } else {
            let src = 0x0100 + (rng.next_u64() % 32) as u16;
            let dup = rng.next_u64().is_multiple_of(20);
            Frame::data(
                0x22,
                src,
                0x0000,
                if dup { 0 } else { seq },
                &[rng.next_u64() as u8],
            )
        };
        out.push((at, frame.expect("payload within 802.15.4 limits").encode()));
    }
    out
}

// ---------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------

/// Run a node workload for `opts.seconds` and fill `report`.
pub fn run<N: Node>(w: &Workload<N>, opts: &Opts, pinned: &Workload<N>, report: &mut Report) {
    let plan = w.plan;
    report.check(pin_check(pinned));

    let mut splits: Vec<SetupSplit> = Vec::new();
    let construct = |reps: usize, splits: &mut Vec<SetupSplit>| {
        for _ in 0..reps {
            let (node, s) = (w.build)(w.inputs.clone());
            drop(node);
            splits.push(s);
        }
    };
    construct(crate::SETUP_FIRST_REPS, &mut splits);

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut plain_slices: Vec<f64> = Vec::new();
    let mut plain_episodes: Vec<f64> = Vec::new();
    let mut traced_slices: Vec<f64> = Vec::new();
    let mut traced_episodes: Vec<f64> = Vec::new();
    let mut first: Option<Outputs> = None;
    let mut boundary = BoundaryTimes::default();
    loop {
        construct(crate::SETUP_EPISODE_REPS, &mut splits);
        let (node, s) = (w.build)(w.inputs.clone());
        splits.push(s);
        let mut engine = Engine::new(node);
        // The first episode always completes, so every run measures.
        let limit = first.is_some().then_some(deadline);
        let before = plain_slices.len();
        let Some(out) = run_slices(&mut engine, plan, report, &mut plain_slices, limit) else {
            break;
        };
        plain_episodes.push(plain_slices[before..].iter().sum());
        report.check(same_outputs(
            "episode",
            first.get_or_insert_with(|| out.clone()),
            &out,
        ));
        if opts.trace {
            let (node, _) = (w.build)(w.inputs.clone());
            let mut engine = Engine::new(Traced::new(node));
            let before = traced_slices.len();
            let Some(traced) = run_slices(&mut engine, plan, report, &mut traced_slices, None)
            else {
                break;
            };
            report.check(same_outputs("traced episode", &out, &traced));
            boundary.add(&engine.machine().times());
            traced_episodes.push(traced_slices[before..].iter().sum());
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let fastest_setup = |f: fn(&SetupSplit) -> Duration| {
        let v: Vec<f64> = splits.iter().map(|s| f(s).as_secs_f64()).collect();
        fastest(&v).unwrap_or(0.0)
    };
    // Throughput is measured per episode: every episode of a run does the
    // same work (slices differ with the traffic they carry), so the
    // fastest episode is the cost of that work.
    let episode_s = plan.horizon() as f64 / plan.clock_hz;
    if !opts.trace {
        report.metric("setup_s", "s", fastest_setup(SetupSplit::total));
        let rate = fast_rate(episode_s, &plain_episodes).unwrap_or(0.0);
        report.metric("node_s_per_host_s", "node_s/s", rate);
        return;
    }
    report.metric("apps.build_s", "s", fastest_setup(|s| s.apps));
    report.metric("machine.new_s", "s", fastest_setup(|s| s.machine));
    report.metric("traffic.load_s", "s", fastest_setup(|s| s.traffic));
    report.metric("store.open_s", "s", 0.0);

    let per_episode = traced_episodes.len().max(1) as f64;
    let traced_wall: f64 = traced_episodes.iter().sum();
    let b = boundary;
    let per_call = |d: Duration, n: u64| d.as_secs_f64() * 1e9 / n.max(1) as f64;
    let self_s = (traced_wall - b.node_time().as_secs_f64()).max(0.0);
    report.metric(
        "engine.step_calls",
        "count",
        b.step_calls as f64 / per_episode,
    );
    report.metric(
        "engine.skip_calls",
        "count",
        b.skip_calls as f64 / per_episode,
    );
    let nw_calls = b.next_wakeup_calls as f64 / per_episode;
    report.metric("engine.next_wakeup_calls", "count", nw_calls);
    report.metric(
        "engine.stepped_cycles",
        "count",
        b.stepped_cycles as f64 / per_episode,
    );
    report.metric(
        "engine.skipped_cycles",
        "count",
        b.skipped_cycles as f64 / per_episode,
    );
    report.metric(
        "engine.idle_step_ratio",
        "ratio",
        b.idle_steps as f64 / b.step_calls.max(1) as f64,
    );
    report.metric("engine.self_s", "s", self_s / per_episode);
    report.metric("node.step_ns", "ns", per_call(b.step, b.step_calls));
    report.metric("node.skip_ns", "ns", per_call(b.skip, b.skip_calls));
    report.metric(
        "node.next_wakeup_ns",
        "ns",
        per_call(b.next_wakeup, b.next_wakeup_calls),
    );

    let o = first.unwrap_or(Outputs {
        counts: Vec::new(),
        energy_j: 0.0,
    });
    let ulp = o.get("ep_events") > 0;
    let pick = |on: bool, name: &str| if on { o.get(name) as f64 } else { 0.0 };
    report.metric(
        "core.ep_active_cycles",
        "count",
        pick(ulp, "ep_active_cycles"),
    );
    report.metric("core.mcu_wakeups", "count", pick(ulp, "mcu_wakeups"));
    report.metric(
        "core.radio_active_cycles",
        "count",
        pick(ulp, "radio_active_cycles"),
    );
    report.metric("mcu8.cycles", "count", pick(!ulp, "cpu_cycles"));
    report.metric("mica.active_cycles", "count", pick(!ulp, "active_cycles"));
    report.metric(
        "mica.adc_conversions",
        "count",
        pick(!ulp, "adc_conversions"),
    );
    crate::emit_campaign_layers_absent(report);
    crate::emit_points(report, &plain_slices, "slices");

    let layer_sum = b.node_time().as_secs_f64() + self_s;
    let overhead = match (fastest(&traced_episodes), fastest(&plain_episodes)) {
        (Some(t), Some(p)) if p > 0.0 => (t / p - 1.0) * 100.0,
        _ => 0.0,
    };
    crate::emit_trace_footer(
        report,
        overhead,
        traced_wall / per_episode,
        layer_sum / per_episode,
    );
}

/// Run one episode slice by slice, timing each slice into `times` and
/// checking it. Returns the episode's final outputs, or `None` if the
/// deadline passed first.
fn run_slices<M: Node>(
    engine: &mut Engine<M>,
    plan: Plan,
    report: &mut Report,
    times: &mut Vec<f64>,
    deadline: Option<Instant>,
) -> Option<Outputs> {
    let (work_name, min_work) = plan.work;
    let mut work = engine.machine_mut().outputs().get(work_name);
    let mut out = None;
    for s in 1..=plan.slices {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return None;
        }
        let end = Cycles(s * plan.slice_cycles);
        let t0 = Instant::now();
        engine.run_until_cycle(end);
        times.push(t0.elapsed().as_secs_f64());
        let o = engine.machine_mut().outputs();
        let grew = o.get(work_name) - work;
        work = o.get(work_name);
        let now = engine.machine().now();
        report.check(engine.machine().health().and_then(|()| {
            if now != end {
                Err(format!("slice {s}: clock at {} not {}", now.0, end.0))
            } else if grew < min_work {
                Err(format!("slice {s}: {work_name} grew {grew} < {min_work}"))
            } else {
                Ok(())
            }
        }));
        out = Some(o);
    }
    out
}

impl<M: Node> Node for Traced<M> {
    fn outputs(&mut self) -> Outputs {
        self.inner_mut().outputs()
    }
    fn health(&self) -> Result<(), String> {
        self.inner().health()
    }
}

fn same_outputs(what: &str, want: &Outputs, got: &Outputs) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!("{what} outputs differ: {got:?} vs {want:?}"))
    }
}

/// Relative energy tolerance of the pinned check: loose enough for the
/// float-summation drift a change of accounting order brings (≈1e-9),
/// tight enough to catch a wrong charge.
const ENERGY_RTOL: f64 = 1e-6;

/// Run the default-seed instance over its pinned slices and compare its
/// counts exactly and its energy within [`ENERGY_RTOL`].
fn pin_check<N: Node>(w: &Workload<N>) -> Result<(), String> {
    let (slices, want, want_energy) = w.pin;
    let (node, _) = (w.build)(w.inputs.clone());
    let mut engine = Engine::new(node);
    engine.run_until_cycle(Cycles(slices * w.plan.slice_cycles));
    engine.machine().health()?;
    let got = engine.machine_mut().outputs();
    let counts_ok =
        got.counts.len() == want.len() && got.counts.iter().zip(want).all(|(g, w)| g == w);
    let energy_ok = (got.energy_j - want_energy).abs() <= ENERGY_RTOL * want_energy.abs();
    if counts_ok && energy_ok {
        Ok(())
    } else {
        Err(format!(
            "pinned default-seed outputs differ (seed {DEFAULT_SEED}): got {:?} energy {:e}",
            got.counts, got.energy_j
        ))
    }
}
