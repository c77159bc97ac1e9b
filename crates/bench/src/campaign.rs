//! The command-line front end shared by the `fleet` and `chaos`
//! campaign binaries: argument scanning, the shared flags, the
//! store/shard/merge rules, the campaign driver ([`drive`]), and the
//! table and artifact writers. Each binary keeps only its own grid
//! flags, its grid builder, and its table columns. `trace` and
//! `epcheck` use the same scanner ([`scan`]) and typed error.
//!
//! # Shared flags
//!
//! | Flag | Meaning |
//! |---|---|
//! | `--threads N` | worker count, `N ≥ 1` (default `ULP_FLEET_THREADS`, else the machine's available parallelism) |
//! | `--csv PATH` | write the machine-readable per-point results |
//! | `--check` | run the whole grid twice (1 worker, then N), assert CSV/JSON byte-identity, validate the JSON with the in-tree parser, and report points/sec serial vs parallel; then run it twice more through a campaign store (cold fill, reopened warm serve) asserting the stored passes emit the same bytes and the warm pass executes zero points |
//! | `--progress` | stream NDJSON heartbeats (points done/total, points/sec, ETA, current coordinates) on **stderr** while the grid drains; stdout and every written artifact are untouched |
//! | `--store DIR` | serve grid points from the content-addressed campaign store at DIR, execute and append only the misses (see [`crate::store`]); an interrupted campaign re-run with the same store resumes where it died |
//! | `--store-stats` | print the store's NDJSON stats line (records/torn/corrupt/hits/misses/collisions/appended) on stderr |
//! | `--shard K/N` | fill mode: run only grid points `i ≡ K (mod N)` and append them to the store (requires `--store`; excludes `--check` and `--merge`; no stdout artifacts) so N independent processes can split one campaign |
//! | `--merge` | after shard fills, emit the canonical full-grid artifacts from the store (requires `--store`; the same as a plain `--store` run) |
//! | `--help`, `-h` | print the usage line and exit 2 |
//!
//! A flag given twice keeps its last value. A count (`--threads`,
//! `--seeds`, horizons) is one number, never a list, and never zero.
//!
//! # Exit codes
//!
//! * `0` — the campaign ran and every artifact was written.
//! * `1` — [`CliError::Runtime`]: the store cannot be opened, an
//!   artifact cannot be written, or a grid point failed (reported with
//!   its scenario coordinates). One message on stderr.
//! * `2` — [`CliError::Usage`]: an unknown flag, a missing or malformed
//!   value, a value out of range, or a flag combination that cannot
//!   run. The message and the usage line go to stderr; nothing runs.

use std::fmt::Display;
use std::fs;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use crate::fleet::{self, Cell, Coords, FleetError, Sweep, SweepObserver, SweepResults};
use crate::perf::ProgressMeter;
use crate::store::{run_stored, Shard, Store};
use crate::TableWriter;
use ulp_sim::telemetry::validate_json;
use ulp_testkit::{from_fn, Gen, Rng};

/// A flag and the metavariable of its value (`None`: a switch).
pub type Flag = (&'static str, Option<&'static str>);

const SHARED_FLAGS: &[Flag] = &[
    ("--threads", Some("N")),
    ("--csv", Some("FILE")),
    ("--check", None),
    ("--progress", None),
    ("--store", Some("DIR")),
    ("--store-stats", None),
    ("--shard", Some("K/N")),
    ("--merge", None),
];

/// The usage line of binary `bin` with grid flags `grid`.
pub fn usage(bin: &str, grid: &[Flag]) -> String {
    grid.iter()
        .chain(SHARED_FLAGS)
        .fold(format!("usage: {bin}"), |line, (flag, meta)| match meta {
            Some(meta) => format!("{line} [{flag} {meta}]"),
            None => format!("{line} [{flag}]"),
        })
}

/// Everything a campaign command line can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line is wrong and nothing ran: exit status 2. An
    /// empty message (`--help`) prints only the usage line.
    Usage(String),
    /// The store or an artifact failed, or a grid point did: exit
    /// status 1.
    Runtime(String),
}

impl From<FleetError> for CliError {
    fn from(e: FleetError) -> CliError {
        CliError::Runtime(e.to_string())
    }
}

/// A usage error.
pub fn usage_error(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

/// A campaign binary's exit path: print an error to stderr (a usage
/// error followed by `usage`) and exit with its status.
pub fn exit_on_error(usage: &str, result: Result<(), CliError>) {
    match result {
        Ok(()) => {}
        Err(CliError::Usage(message)) => {
            if !message.is_empty() {
                eprintln!("{message}");
            }
            eprintln!("{usage}");
            std::process::exit(2);
        }
        Err(CliError::Runtime(message)) => {
            eprintln!("{message}");
            std::process::exit(1);
        }
    }
}

/// The rest of the command line, as a binary's grid-flag handler sees
/// it.
#[derive(Debug)]
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// The raw value following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, CliError> {
        self.0
            .next()
            .ok_or_else(|| usage_error(format!("{flag} needs a value")))
    }

    /// The value following `flag`, parsed as one `T`.
    pub fn one<T: FromStr<Err: Display>>(&mut self, flag: &str) -> Result<T, CliError> {
        parse_item(flag, &self.value(flag)?)
    }

    /// The value following `flag`, parsed as a comma-separated list of
    /// `T` (never empty).
    pub fn list<T: FromStr<Err: Display>>(&mut self, flag: &str) -> Result<Vec<T>, CliError> {
        self.value(flag)?
            .split(',')
            .map(|s| parse_item(flag, s))
            .collect()
    }
}

fn parse_item<T: FromStr<Err: Display>>(flag: &str, raw: &str) -> Result<T, CliError> {
    raw.trim()
        .parse()
        .map_err(|e| usage_error(format!("{flag}: bad value `{raw}`: {e}")))
}

/// A probability or rate in `[0, 1]`; NaN and anything outside the
/// interval fail to parse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitInterval(pub f64);

impl FromStr for UnitInterval {
    type Err = String;
    fn from_str(s: &str) -> Result<UnitInterval, String> {
        match s.parse::<f64>() {
            Ok(x) if (0.0..=1.0).contains(&x) => Ok(UnitInterval(x)),
            Ok(_) => Err("must be in [0, 1]".into()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Scan `argv` (program name excluded): hand each flag to `on_flag`,
/// which consumes it (and its value) and returns whether it knew it.
/// An unknown flag, or `--help`, is a usage error.
pub fn scan(
    argv: impl IntoIterator<Item = String>,
    mut on_flag: impl FnMut(&str, &mut Args) -> Result<bool, CliError>,
) -> Result<(), CliError> {
    let mut args = Args(argv.into_iter().collect::<Vec<_>>().into_iter());
    while let Some(flag) = args.0.next() {
        if !on_flag(&flag, &mut args)? {
            return Err(match flag.as_str() {
                "--help" | "-h" => usage_error(""),
                other => usage_error(format!("unknown flag `{other}`")),
            });
        }
    }
    Ok(())
}

/// [`scan`] a campaign command line: `grid_flag` consumes the binary's
/// own flags, then the shared flags and the store/shard/merge rules
/// apply.
pub fn parse(
    argv: impl IntoIterator<Item = String>,
    mut grid_flag: impl FnMut(&str, &mut Args) -> Result<bool, CliError>,
) -> Result<DriveConfig, CliError> {
    let (mut threads, mut csv, mut store, mut shard) = (None, None, None, None);
    let (mut check, mut progress, mut store_stats, mut merge) = (false, false, false, false);
    scan(argv, |flag, args| {
        if grid_flag(flag, args)? {
            return Ok(true);
        }
        match flag {
            "--threads" => threads = Some(args.one::<NonZeroUsize>(flag)?),
            "--csv" => csv = Some(args.value(flag)?.into()),
            "--check" => check = true,
            "--progress" => progress = true,
            "--store" => store = Some(PathBuf::from(args.value(flag)?)),
            "--store-stats" => store_stats = true,
            "--shard" => shard = Some(args.one::<Shard>(flag)?),
            "--merge" => merge = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let need_store = || usage_error("--shard/--merge need --store DIR (the shared campaign store)");
    let mode = match (shard, store) {
        (Some(_), None) => return Err(need_store()),
        (Some(_), Some(_)) if check || merge => {
            return Err(usage_error(
                "--shard is a fill mode; run --check/--merge unsharded",
            ))
        }
        (Some(shard), Some(dir)) => Mode::Fill(dir, shard),
        (None, None) if merge => return Err(need_store()),
        (None, store) if check => Mode::Check(store),
        (None, store) => Mode::Run(store),
    };
    let threads = threads
        .unwrap_or_else(|| NonZeroUsize::new(fleet::fleet_threads()).unwrap_or(NonZeroUsize::MIN));
    Ok(DriveConfig {
        threads,
        progress,
        store_stats,
        mode,
        csv,
    })
}

impl DriveConfig {
    /// The wall-clock line (stderr, with the other non-deterministic
    /// lines: stdout stays byte-identical across runs) and the `--csv`
    /// artifact.
    pub fn finish(&self, results: &SweepResults) -> Result<(), CliError> {
        eprintln!(
            "\n{} points in {:.3} s on {} worker(s)",
            results.rows().len(),
            results.elapsed().as_secs_f64(),
            results.threads()
        );
        write_artifact(self.csv.as_deref(), || results.to_csv())
    }
}

/// Write one artifact when its path was given, and say so on stderr.
pub fn write_artifact(
    path: Option<&Path>,
    render: impl FnOnce() -> String,
) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    fs::write(path, render())
        .map_err(|e| CliError::Runtime(format!("cannot write {}: {e}", path.display())))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Print the per-point table: one `(header, column)` pair per table
/// column. Cells print as serialized, except `energy_j`, which prints
/// in µJ.
pub fn print_table(results: &SweepResults, columns: &[(&str, &str)]) {
    let headers: Vec<&str> = columns.iter().map(|&(header, _)| header).collect();
    let mut t = TableWriter::new(&headers);
    for row in 0..results.rows().len() {
        let cells: Vec<String> = columns
            .iter()
            .map(|&(_, name)| match results.cell(row, name) {
                Some(Cell::F64(j)) if name == "energy_j" => format!("{:.3} uJ", j * 1e6),
                Some(cell) => cell.to_string(),
                None => panic!("results have no column `{name}`"),
            })
            .collect();
        t.row(&cells);
    }
    t.print();
}

/// How a campaign uses the store.
#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    /// Run the grid; through the store at `DIR` (serve hits, append
    /// misses) when one is given.
    Run(Option<PathBuf>),
    /// `--check`: serial vs parallel byte identity, then a cold and a
    /// reopened warm pass through the given store (or an ephemeral one).
    Check(Option<PathBuf>),
    /// `--shard K/N --store DIR`: fill this shard's points into the
    /// store and emit no artifacts.
    Fill(PathBuf, Shard),
}

/// A parsed campaign command line: everything it configures about one
/// campaign execution, and where the shared `--csv` artifact goes.
#[derive(Debug, Clone)]
pub struct DriveConfig {
    /// Worker thread count.
    pub threads: NonZeroUsize,
    /// `--progress`: stream NDJSON heartbeats on stderr.
    pub progress: bool,
    /// `--store-stats`: print the store's NDJSON stats line on stderr
    /// after each stored pass.
    pub store_stats: bool,
    /// Plain, checked, or shard-fill execution.
    pub mode: Mode,
    /// `--csv PATH`.
    pub csv: Option<PathBuf>,
}

fn open_store(dir: &Path) -> Result<Store, CliError> {
    Store::open(dir).map_err(|e| {
        CliError::Runtime(format!(
            "campaign store {}: cannot open: {e}",
            dir.display()
        ))
    })
}

/// Run one campaign sweep and return its (thread-count-invariant)
/// results, or `None` in shard-fill mode, whose partial grid must not be
/// mistaken for campaign output. This is the single execution path
/// behind both the `fleet` and `chaos` binaries; all diagnostics go to
/// stderr so stdout artifacts stay byte-identical across every mode.
///
/// # Errors
///
/// [`CliError::Runtime`] if the store cannot be opened or a grid point
/// fails.
///
/// # Panics
///
/// Panics if a `--check` pass breaks byte identity, if the JSON export
/// fails validation, if a warm stored pass fails to serve every point,
/// or if a store append fails.
pub fn drive<P: Sync, K, F>(
    sweep: &Sweep<P>,
    cfg: &DriveConfig,
    key_of: K,
    eval: F,
) -> Result<Option<SweepResults>, CliError>
where
    K: Fn(&Coords, &P) -> String + Sync,
    F: Fn(&Coords, &P) -> Vec<Cell> + Sync,
{
    let threads = cfg.threads.get();
    let meter_total = match &cfg.mode {
        Mode::Fill(_, s) => (0..sweep.len()).filter(|&i| s.contains(i)).count(),
        // Serial, parallel, stored cold, stored warm.
        Mode::Check(_) => 4 * sweep.len(),
        Mode::Run(_) => sweep.len(),
    };
    let meter = cfg
        .progress
        .then(|| ProgressMeter::stderr(sweep.name(), meter_total));
    let observer: &dyn SweepObserver = match &meter {
        Some(m) => m,
        None => &(),
    };
    let stats = |store: &Store| {
        if cfg.store_stats {
            eprintln!("{}", store.stats_line());
        }
    };
    // One pass through the store at `dir`: serve hits, execute and
    // append misses (only this shard's points, under its own segment,
    // when filling a shard).
    let stored = |dir: &Path, shard: Option<Shard>| -> Result<(SweepResults, Store), CliError> {
        let mut store = open_store(dir)?;
        if let Some(shard) = shard {
            store.set_writer_label(&shard.label());
        }
        let results = run_stored(sweep, &mut store, threads, shard, &key_of, &eval, observer)?;
        Ok((results, store))
    };

    match &cfg.mode {
        Mode::Fill(dir, shard) => {
            let (results, store) = stored(dir, Some(*shard))?;
            eprintln!(
                "shard {shard}: {} of {} point(s), {} executed, {} served",
                results.rows().len(),
                sweep.len(),
                store.stats().misses,
                store.stats().hits
            );
            stats(&store);
            Ok(None)
        }
        Mode::Run(None) => Ok(Some(sweep.run_observed(threads, &eval, observer)?)),
        Mode::Run(Some(dir)) => {
            let (results, store) = stored(dir, None)?;
            eprintln!(
                "store: {} executed, {} served from {}",
                store.stats().misses,
                store.stats().hits,
                dir.display()
            );
            stats(&store);
            Ok(Some(results))
        }
        Mode::Check(store_dir) => {
            let (results, speedup) =
                fleet::measure_speedup_observed(sweep, threads, &eval, observer)?;
            if let Err(e) = validate_json(&results.to_json()) {
                panic!("sweep JSON failed validation: {e}");
            }
            eprintln!(
                "check ok: ULP_FLEET_THREADS=1 and ={threads} byte-identical, JSON well-formed"
            );
            eprintln!("check: {speedup}");

            // Stored third and fourth passes: cold fills the store (or
            // reuses a given one), then a reopened warm pass must serve
            // every point; both must serialize to the bytes of the
            // unstored run.
            let dir = store_dir.clone().unwrap_or_else(|| {
                let name = format!("ulp-store-check-{}-{}", std::process::id(), sweep.name());
                std::env::temp_dir().join(name)
            });
            if store_dir.is_none() {
                let _ = fs::remove_dir_all(&dir);
            }
            let mut executed = 0;
            for pass in ["cold", "warm"] {
                let (stored, store) = stored(&dir, None)?;
                assert_eq!(
                    (stored.to_csv(), stored.to_json()),
                    (results.to_csv(), results.to_json()),
                    "sweep `{}`: {pass} stored pass changed the output bytes",
                    sweep.name()
                );
                if pass == "cold" {
                    executed = store.stats().misses;
                } else {
                    assert_eq!(
                        store.stats().misses,
                        0,
                        "sweep `{}`: warm stored pass re-executed points",
                        sweep.name()
                    );
                    eprintln!(
                        "check ok: stored pass byte-identical (cold executed {executed}, warm served {})",
                        store.stats().hits
                    );
                }
                stats(&store);
            }
            if store_dir.is_none() {
                let _ = fs::remove_dir_all(&dir);
            }
            Ok(Some(results))
        }
    }
}

/// Values the argv generator draws from, `|`-separated (one is empty):
/// valid and invalid counts, fractions, lists, shard specs, app names,
/// and paths.
const VALUES: &str = "0|1|2|-5|1,5|0.5|nan|inf|1e-3||,|x|18446744073709551616|0/2|1/2|2/2|0/0|\
                      64,128|0.1,0.4|app1|app2,app3|app9|/dev/null/x";

/// Random command lines over a binary's grid flags and the shared
/// flags: flags in any order, repeated or dropped, values valid,
/// mutated, list-valued, or missing, plus the odd unknown flag. The
/// binaries' CLI property tests feed these to their parsers, which
/// must return a campaign or a [`CliError`] and never panic.
pub fn arb_argv(grid: &'static [Flag]) -> impl Gen<Value = Vec<String>> {
    from_fn(move |rng: &mut Rng| {
        let mut argv = Vec::new();
        for _ in 0..rng.gen_range(0usize..8) {
            let pick = rng.gen_range(0..=grid.len() + SHARED_FLAGS.len());
            let (flag, meta) = grid
                .iter()
                .chain(SHARED_FLAGS)
                .nth(pick)
                .unwrap_or(&("--bogus", None));
            argv.push(flag.to_string());
            // A value occasionally goes missing: the flag then swallows
            // the next flag, or ends the line.
            if meta.is_some() && rng.gen_range(0u32..8) != 0 {
                let values: Vec<&str> = VALUES.split('|').collect();
                argv.push(values[rng.gen_range(0..values.len())].to_string());
            }
        }
        argv
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_shared(argv: &[&str]) -> Result<DriveConfig, CliError> {
        parse(argv.iter().map(|s| s.to_string()), |_, _| Ok(false))
    }

    #[test]
    fn shared_flags_build_the_drive_modes() {
        let c = parse_shared(&["--threads", "3", "--csv", "out.csv", "--progress"]).unwrap();
        assert_eq!((c.threads.get(), c.mode), (3, Mode::Run(None)));
        assert_eq!(c.csv, Some(PathBuf::from("out.csv")));
        let mode = |argv: &[&str]| parse_shared(argv).unwrap().mode;
        let store = || Some(PathBuf::from("s"));
        assert_eq!(mode(&["--store", "s", "--merge"]), Mode::Run(store()));
        assert_eq!(mode(&["--check", "--store", "s"]), Mode::Check(store()));
        let fill = Mode::Fill("s".into(), Shard { index: 1, of: 2 });
        assert_eq!(mode(&["--shard", "1/2", "--store", "s"]), fill);
        let usage = usage("x", &[("--n", Some("N"))]);
        assert!(usage.starts_with("usage: x [--n N] [--threads N] [--csv FILE] [--check]"));
    }

    #[test]
    fn bad_shared_flags_are_usage_errors() {
        for argv in [
            &["--threads", "0"][..],
            &["--threads", "1,5"],
            &["--threads"],
            &["--shard", "2/2", "--store", "s"],
            &["--shard", "0/2"],
            &["--merge"],
            &["--shard", "0/2", "--store", "s", "--check"],
            &["--shard", "0/2", "--store", "s", "--merge"],
            &["--bogus"],
            &["--help"],
        ] {
            let err = parse_shared(argv).err();
            assert!(matches!(err, Some(CliError::Usage(_))), "{argv:?}: {err:?}");
        }
    }

    #[test]
    fn unopenable_store_and_unwritable_artifact_are_runtime_errors() {
        let mut sweep = Sweep::new("campaign-unit", &["square"]);
        sweep.push(Coords::new().with("i", 3), 3u64);
        for flags in [&["--merge"][..], &["--check"], &["--shard", "0/2"]] {
            let cfg = parse_shared(&[flags, &["--store", "/dev/null/x"]].concat()).unwrap();
            let err = drive(
                &sweep,
                &cfg,
                |_, i| format!("{i}"),
                |_, i| vec![Cell::U64(i * i)],
            );
            assert!(matches!(&err, Err(CliError::Runtime(m)) if m.contains("/dev/null/x")));
        }
        let err = write_artifact(Some(Path::new("/nonexistent/d/x.csv")), String::new);
        assert!(matches!(&err, Err(CliError::Runtime(m)) if m.contains("/nonexistent/d/x.csv")));
        assert_eq!(write_artifact(None, || unreachable!()), Ok(()));
    }
}
