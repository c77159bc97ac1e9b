//! `epcheck`: lint the shipped event-processor ISR programs with the
//! `ulp-verify` static checker, or (in `--mcu8` mode) the shipped
//! Mica2 firmware images with the whole-firmware mcu8 analyzer.
//!
//! ```text
//! cargo run -p ulp-bench --bin epcheck
//! cargo run -p ulp-bench --bin epcheck -- --mcu8
//! ```
//!
//! Flags:
//!
//! * (no flags) — check every shipped stage-1–4 application plus the
//!   `blink`/`sense` comparison apps and print the reports
//! * `--mcu8`    — check the shipped Mica2 (baseline MCU) firmware
//!   images instead: CFG recovery, stack/interrupt-safety lints, and
//!   loop-bounded per-vector WCET
//! * `--fixture` — print the diagnostic fixture suite instead (one
//!   deliberately broken program per diagnostic class; combines with
//!   `--mcu8`)
//! * `--check`   — render everything twice and assert the output is
//!   byte-identical (the determinism contract the goldens pin)
//!
//! Exit status is 1 if any shipped program has an error-severity
//! finding (the fixture suites are expected to be full of them and do
//! not affect the exit status).

use std::process::exit;

use ulp_bench::campaign::{exit_on_error, scan};
use ulp_bench::{epcheck, mcu8check};

fn main() {
    let (mut fixture, mut check, mut mcu8) = (false, false, false);
    let scanned = scan(std::env::args().skip(1), |flag, _| {
        match flag {
            "--fixture" => fixture = true,
            "--check" => check = true,
            "--mcu8" => mcu8 = true,
            _ => return Ok(false),
        }
        Ok(true)
    });
    exit_on_error("usage: epcheck [--mcu8] [--fixture] [--check]", scanned);

    // Both checkers render the same three things.
    type Render = fn() -> String;
    let (what, shipped, fixtures, errors): (&str, Render, Render, fn() -> usize) = if mcu8 {
        use mcu8check::{render_fixture, render_shipped, shipped_errors};
        ("mcu8check", render_shipped, render_fixture, shipped_errors)
    } else {
        use epcheck::{render_fixture, render_shipped, shipped_errors};
        ("epcheck", render_shipped, render_fixture, shipped_errors)
    };
    if check {
        assert_eq!(shipped(), shipped(), "shipped report is not deterministic");
        assert_eq!(
            fixtures(),
            fixtures(),
            "fixture report is not deterministic"
        );
        println!("{what} --check: both reports byte-identical across two runs");
    }
    if fixture {
        print!("{}", fixtures());
        return;
    }
    print!("{}", shipped());
    if errors() > 0 {
        exit(1);
    }
}
