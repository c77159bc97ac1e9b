//! Predecoded-stepping parity: [`Cpu::step_predecoded`] over a shared
//! [`Predecoded`] table is architecturally identical to the fetch-and-
//! decode [`Cpu::step`] on a bus whose fetches are side-effect free.
//! The Mica2 board steps only the table; `Cpu::step` stays for the
//! `ulp-core` µC, whose fetches go through gated SRAM. Held on a
//! [`FlatBus`] over random images and over the shipped Mica2 firmware,
//! with interrupts raised mid-run: registers, SREG, SP, PC, and cycle
//! counts agree after every step, and RAM and I/O at the end.

use ulp_apps::mica;
use ulp_isa::asm::{Assembler, Image};
use ulp_mcu8::{AvrIsa, Cpu, FlatBus, Predecoded, SREG_I};
use ulp_testkit::{any_u16, prop_assert_eq, props, vec_of, Gen};

/// The architectural state compared after every step.
fn state(cpu: &Cpu) -> ([u8; 32], u8, u16, u16, u64, bool, bool) {
    let (sleeping, halted) = (cpu.sleeping(), cpu.halted());
    (
        cpu.regs,
        cpu.sreg(),
        cpu.sp,
        cpu.pc,
        cpu.total_cycles(),
        sleeping,
        halted,
    )
}

/// Run `image` for up to `steps` steps on both paths, raising the
/// `(step, vector)` interrupts, and compare them step by step. Returns
/// the number of steps taken before both halted.
fn assert_parity(image: &Image, steps: usize, irqs: &[(usize, u8)], sp: u16) -> usize {
    let mut words = vec![0u16; 65_536];
    for seg in image.segments() {
        for (i, pair) in seg.data.chunks(2).enumerate() {
            words[seg.origin as usize / 2 + i] = u16::from_le_bytes([pair[0], pair[1]]);
        }
    }
    let table = Predecoded::from_words(&words);
    // Mica2 data space: registers and I/O below 0x100, 4 KB SRAM above.
    let mut buses = [FlatBus::new(0x1100), FlatBus::new(0x1100)];
    let mut cpus = [Cpu::new(), Cpu::new()];
    for (bus, cpu) in buses.iter_mut().zip(&mut cpus) {
        bus.load_image(image);
        cpu.sp = sp;
        cpu.set_flag(SREG_I, true);
    }
    let [fetch_bus, table_bus] = &mut buses;
    let [fetch_cpu, table_cpu] = &mut cpus;
    for step in 0..steps {
        if fetch_cpu.halted() && table_cpu.halted() {
            return step;
        }
        for &(_, vector) in irqs.iter().filter(|&&(at, _)| at == step) {
            fetch_bus.raise_irq(vector);
            table_bus.raise_irq(vector);
        }
        let cycles = fetch_cpu.step(fetch_bus);
        assert_eq!(
            cycles,
            table_cpu.step_predecoded(table_bus, &table),
            "step {step}"
        );
        assert_eq!(
            state(fetch_cpu),
            state(table_cpu),
            "state after step {step}"
        );
    }
    assert_eq!(fetch_bus.ram(), table_bus.ram(), "RAM");
    assert_eq!(fetch_bus.io(), table_bus.io(), "I/O latches");
    steps
}

/// An interrupt schedule: `(step, vector)` pairs.
fn arb_irqs(steps: usize) -> impl Gen<Value = Vec<(usize, u8)>> {
    vec_of((0..steps, 0u8..36), 0..12)
}

props! {
    /// Random words as a program (loaded through the assembler's `.dw`
    /// side door), with random interrupts.
    #[test]
    fn random_images_step_identically(
        words in vec_of(any_u16(), 1..96),
        irqs in arb_irqs(600),
        sp in 0x0100u16..0x1100,
    ) {
        let listing: Vec<String> = words.iter().map(u16::to_string).collect();
        let image = Assembler::new(AvrIsa)
            .assemble(&format!(".org 0\n.dw {}", listing.join(", ")))
            .unwrap();
        assert_parity(&image, 600, &irqs, sp);
    }

    /// Every shipped Mica2 firmware image, with interrupts raised on
    /// random vectors (the timer, ADC, and UART handlers among them).
    #[test]
    fn shipped_mica2_images_step_identically(app in 0usize..6, irqs in arb_irqs(20_000)) {
        let app = vec![
            mica::app1(100),
            mica::app2(100, 50),
            mica::app3(100, 50),
            mica::app4(100, 50),
            mica::blink(500),
            mica::sense(100),
        ]
        .swap_remove(app);
        let steps = assert_parity(app.image(), 20_000, &irqs, 0x10FF);
        prop_assert_eq!(steps, 20_000, "{} must not halt", app.name);
    }
}
