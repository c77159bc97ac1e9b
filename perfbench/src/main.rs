//! Command line of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ulp_stage4 --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 if any correctness check failed, 2 on bad usage.
//! `--workload all` runs every workload in its own process (so each peak
//! RSS is that workload's alone) and prints one JSON line per workload.

use std::process::{exit, Command};

use perfbench::{run, Opts, WORKLOADS};

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    exit(2);
}

fn parse() -> (Opts, Vec<String>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        workload: String::new(),
        seed: perfbench::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value().clone(),
            "--seed" => {
                opts.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                opts.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 600.0)
                    .unwrap_or_else(|| usage("--seconds takes a number of seconds, 0 to 600"))
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if opts.workload != "all" && !WORKLOADS.contains(&opts.workload.as_str()) {
        usage("--workload names no workload");
    }
    (opts, args)
}

fn main() {
    let (opts, args) = parse();
    if opts.workload == "all" {
        exit(run_all(&args));
    }
    let report = run(&opts);
    eprintln!("perfbench {} seed {}:", opts.workload, opts.seed);
    for note in &report.notes {
        eprintln!("  {note}");
    }
    for m in &report.metrics {
        eprintln!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  operations: {} attempted, {} failed",
        report.attempted, report.failed
    );
    for why in &report.failures {
        eprintln!("  FAILED: {why}");
    }
    println!("{}", report.json());
    exit(if report.correct() { 0 } else { 1 });
}

/// Run every workload in a child process with the same flags.
fn run_all(args: &[String]) -> i32 {
    let exe = std::env::current_exe().unwrap_or_else(|e| usage(&format!("own executable: {e}")));
    let mut child_args: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            child_args.push(a);
        }
    }
    let mut code = 0;
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w])
            .args(&child_args)
            .output()
            .unwrap_or_else(|e| usage(&format!("spawning {w}: {e}")));
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        println!("{w} {}", stdout.lines().last().unwrap_or("{}"));
        if !out.status.success() {
            code = 1;
        }
    }
    code
}
