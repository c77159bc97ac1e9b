//! Per-component energy accounting.
//!
//! The paper derives its headline results (Figure 6, the <2 µW claim) by
//! multiplying per-component power (Table 5) by per-component *utilization*
//! measured in the cycle-accurate simulator. [`EnergyMeter`] keeps that
//! bookkeeping as an integer ledger: every cycle (or every fast-forwarded
//! span) each registered component has its cycles counted against the
//! mode it was in, and sub-unit activities (a counting timer, a powered
//! SRAM bank) count unit-cycles. Joules exist only at read time, as
//! Σ count × power × period, so the energy of a run does not depend on how
//! its time was chunked into charges.

use crate::power::{PowerMode, PowerSpec};
use crate::units::{Cycles, Energy, Frequency, Power, Seconds};

/// Handle to a component registered with an [`EnergyMeter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeterId(usize);

/// Handle to an activity line registered with
/// [`EnergyMeter::register_activity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ActivityId {
    component: usize,
    line: usize,
}

/// A sub-unit activity of a component: each unit-cycle draws `power` on
/// top of the component's mode power.
#[derive(Debug, Clone, PartialEq)]
pub struct Activity {
    /// Line name as registered.
    pub name: &'static str,
    /// Power one unit draws for one cycle.
    pub power: Power,
    /// Unit-cycles counted so far (units × cycles, summed over charges).
    pub unit_cycles: u64,
}

#[derive(Debug, Clone)]
struct Component {
    name: String,
    spec: PowerSpec,
    mode_cycles: [Cycles; 3],
    activities: Vec<Activity>,
}

/// Accumulated statistics for one component, read from the ledger.
#[derive(Debug, Clone, Copy)]
pub struct ComponentStats<'a> {
    /// Component name as registered.
    pub name: &'a str,
    /// Power specification the mode cycles are priced at.
    pub spec: PowerSpec,
    /// Total energy consumed so far: the mode cycles and activity lines
    /// priced at read time.
    pub energy: Energy,
    /// Cycles spent in each mode: `[active, idle, gated]`.
    pub mode_cycles: [Cycles; 3],
    /// Sub-unit activity lines, in registration order.
    pub activities: &'a [Activity],
}

impl ComponentStats<'_> {
    /// Total cycles accounted for this component.
    pub fn total_cycles(&self) -> Cycles {
        self.mode_cycles.iter().copied().sum()
    }

    /// Fraction of accounted cycles spent active (the paper's "utilization
    /// ratio"). Returns 0 if nothing has been accounted yet.
    pub fn utilization(&self) -> f64 {
        let total = self.total_cycles().0;
        if total == 0 {
            0.0
        } else {
            self.mode_cycles[0].0 as f64 / total as f64
        }
    }

    /// Average power over the accounted time.
    pub fn average_power(&self, clock: Frequency) -> Power {
        let t = self.total_cycles().at(clock);
        if t.0 <= 0.0 {
            Power::ZERO
        } else {
            self.energy.average_over(t)
        }
    }
}

impl Component {
    fn stats(&self, clock: Frequency) -> ComponentStats<'_> {
        let modes = PowerMode::ALL
            .iter()
            .zip(self.mode_cycles)
            .map(|(&mode, cycles)| self.spec.draw(mode) * cycles.at(clock));
        let lines = self
            .activities
            .iter()
            .map(|a| a.power * Cycles(a.unit_cycles).at(clock));
        ComponentStats {
            name: &self.name,
            spec: self.spec,
            energy: modes.chain(lines).sum(),
            mode_cycles: self.mode_cycles,
            activities: &self.activities,
        }
    }
}

fn mode_index(mode: PowerMode) -> usize {
    match mode {
        PowerMode::Active => 0,
        PowerMode::Idle => 1,
        PowerMode::Gated => 2,
    }
}

/// Counts component activity over simulated time and prices it on read.
///
/// ```
/// use ulp_sim::{EnergyMeter, PowerSpec, PowerMode, Power, Cycles, Frequency};
///
/// let mut meter = EnergyMeter::new(Frequency::from_khz(100.0));
/// let ep = meter.register("event_processor",
///     PowerSpec::new(Power::from_uw(14.25), Power::from_uw(0.018), Power::ZERO));
/// meter.charge(ep, PowerMode::Active, Cycles(127));
/// meter.charge(ep, PowerMode::Idle, Cycles(100_000 - 127));
/// let stats = meter.stats(ep);
/// assert!(stats.utilization() < 0.0013);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    clock: Frequency,
    components: Vec<Component>,
}

impl EnergyMeter {
    /// A meter for a machine running at `clock`.
    pub fn new(clock: Frequency) -> EnergyMeter {
        EnergyMeter {
            clock,
            components: Vec::new(),
        }
    }

    /// The clock this meter converts cycles with.
    pub fn clock(&self) -> Frequency {
        self.clock
    }

    /// Register a component; the returned id is used for charging.
    pub fn register(&mut self, name: impl Into<String>, spec: PowerSpec) -> MeterId {
        self.components.push(Component {
            name: name.into(),
            spec,
            mode_cycles: [Cycles::ZERO; 3],
            activities: Vec::new(),
        });
        MeterId(self.components.len() - 1)
    }

    /// Register a sub-unit activity of component `id` whose every
    /// unit-cycle draws `power` on top of the component's mode power. Used
    /// for blocks with independently running sub-units — the paper's timer
    /// subsystem has four timers of which typically one is counting
    /// (§6.3), and its SRAM leaks per powered or gated bank (§5.2).
    pub fn register_activity(
        &mut self,
        id: MeterId,
        name: &'static str,
        power: Power,
    ) -> ActivityId {
        let activities = &mut self.components[id.0].activities;
        activities.push(Activity {
            name,
            power,
            unit_cycles: 0,
        });
        ActivityId {
            component: id.0,
            line: activities.len() - 1,
        }
    }

    /// Count `cycles` of time in `mode` for a component.
    pub fn charge(&mut self, id: MeterId, mode: PowerMode, cycles: Cycles) {
        self.components[id.0].mode_cycles[mode_index(mode)] += cycles;
    }

    /// Count `unit_cycles` (active units × cycles) on an activity line.
    pub fn charge_activity(&mut self, id: ActivityId, unit_cycles: u64) {
        self.components[id.component].activities[id.line].unit_cycles += unit_cycles;
    }

    /// Statistics for one component, priced at this meter's clock.
    pub fn stats(&self, id: MeterId) -> ComponentStats<'_> {
        self.components[id.0].stats(self.clock)
    }

    /// Statistics for every registered component, in registration order.
    pub fn all(&self) -> impl Iterator<Item = ComponentStats<'_>> {
        self.components.iter().map(|c| c.stats(self.clock))
    }

    /// Total energy across all components.
    pub fn total_energy(&self) -> Energy {
        self.all().map(|c| c.energy).sum()
    }

    /// Total average power assuming all components span `elapsed`.
    pub fn total_average_power(&self, elapsed: Cycles) -> Power {
        let t = elapsed.at(self.clock);
        if t.0 <= 0.0 {
            Power::ZERO
        } else {
            self.total_energy().average_over(t)
        }
    }

    /// Reset all counts, keeping registrations.
    pub fn reset(&mut self) {
        for c in &mut self.components {
            c.mode_cycles = [Cycles::ZERO; 3];
            for a in &mut c.activities {
                a.unit_cycles = 0;
            }
        }
    }

    /// Look up a component by name (linear scan; intended for reporting).
    pub fn find(&self, name: &str) -> Option<MeterId> {
        self.components
            .iter()
            .position(|c| c.name == name)
            .map(MeterId)
    }
}

/// Convenience: elapsed seconds for a cycle count on this meter's clock.
impl EnergyMeter {
    /// Convert a cycle count using this meter's clock.
    pub fn seconds(&self, cycles: Cycles) -> Seconds {
        cycles.at(self.clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> EnergyMeter {
        EnergyMeter::new(Frequency::from_khz(100.0))
    }

    #[test]
    fn charging_accumulates_energy_and_cycles() {
        let mut m = meter();
        let id = m.register(
            "ep",
            PowerSpec::new(Power::from_uw(10.0), Power::from_uw(1.0), Power::ZERO),
        );
        m.charge(id, PowerMode::Active, Cycles(100_000)); // 1 s active
        m.charge(id, PowerMode::Idle, Cycles(100_000)); // 1 s idle
        let s = m.stats(id);
        assert!((s.energy.uj() - 11.0).abs() < 1e-9);
        assert_eq!(s.total_cycles(), Cycles(200_000));
        assert!((s.utilization() - 0.5).abs() < 1e-12);
        assert!((s.average_power(m.clock()).uw() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn zero_charge_is_noop() {
        let mut m = meter();
        let id = m.register("x", PowerSpec::zero());
        m.charge(id, PowerMode::Active, Cycles::ZERO);
        assert_eq!(m.stats(id).total_cycles(), Cycles::ZERO);
        assert_eq!(m.stats(id).utilization(), 0.0);
        assert_eq!(m.stats(id).average_power(m.clock()), Power::ZERO);
    }

    #[test]
    fn total_energy_sums_components() {
        let mut m = meter();
        let a = m.register(
            "a",
            PowerSpec::new(Power::from_uw(2.0), Power::ZERO, Power::ZERO),
        );
        let b = m.register(
            "b",
            PowerSpec::new(Power::from_uw(3.0), Power::ZERO, Power::ZERO),
        );
        m.charge(a, PowerMode::Active, Cycles(100_000));
        m.charge(b, PowerMode::Active, Cycles(100_000));
        assert!((m.total_energy().uj() - 5.0).abs() < 1e-9);
        assert!((m.total_average_power(Cycles(100_000)).uw() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn activity_lines_price_unit_cycles_on_top_of_modes() {
        let mut m = meter();
        let id = m.register(
            "timer",
            PowerSpec::new(Power::from_uw(8.0), Power::from_uw(1.0), Power::ZERO),
        );
        let counting = m.register_activity(id, "counting", Power::from_uw(0.5));
        m.charge(id, PowerMode::Idle, Cycles(100_000)); // 1 s idle...
        m.charge_activity(counting, 2 * 100_000); // ...with two units busy
        let s = m.stats(id);
        assert!((s.energy.uj() - 2.0).abs() < 1e-9);
        assert_eq!(s.total_cycles(), Cycles(100_000), "lines add no time");
        assert_eq!(s.activities[0].name, "counting");
        assert_eq!(s.activities[0].unit_cycles, 200_000);
    }

    #[test]
    fn energy_is_independent_of_charge_chunking() {
        let spec = PowerSpec::new(Power::from_uw(14.25), Power::from_nw(18.0), Power::ZERO);
        let mut whole = meter();
        let a = whole.register("ep", spec);
        whole.charge(a, PowerMode::Active, Cycles(100_000_000));
        let mut split = meter();
        let b = split.register("ep", spec);
        for _ in 0..100_000 {
            split.charge(b, PowerMode::Active, Cycles(1_000));
        }
        assert_eq!(
            whole.total_energy().joules().to_bits(),
            split.total_energy().joules().to_bits()
        );
    }

    #[test]
    fn reset_clears_but_keeps_registration() {
        let mut m = meter();
        let id = m.register(
            "x",
            PowerSpec::new(Power::from_uw(1.0), Power::ZERO, Power::ZERO),
        );
        let line = m.register_activity(id, "line", Power::from_uw(1.0));
        m.charge(id, PowerMode::Active, Cycles(10));
        m.charge_activity(line, 10);
        m.reset();
        assert_eq!(m.stats(id).energy, Energy::ZERO);
        assert_eq!(m.stats(id).total_cycles(), Cycles::ZERO);
        assert_eq!(m.stats(id).activities[0].unit_cycles, 0);
        assert_eq!(m.find("x"), Some(id));
        assert_eq!(m.find("missing"), None);
    }
}
