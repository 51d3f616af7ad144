//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! algas-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It prints the ledger (every metric with unit and sample count),
//! then, as the last line, `{"correct","attempted","failed","metrics"}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). It exits non-zero when an answer fails a check.

mod check;
mod gen;
mod host;
mod layers;
mod report;
mod setup;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use algas_core::obs::json::{obj, Value};

use crate::report::{result_line, END_TO_END, PER_LAYER};
use crate::spec::{Pins, WORKLOADS};
use crate::workloads::Run;

/// A run that has not finished by now is stopped with a failure, so
/// the benchmark always exits within the time it is allowed.
const WATCHDOG: Duration = Duration::from_secs(170);
/// Where index files, spans and ledgers go, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: algas-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse(args: &[String], pins: Pins) -> Result<Run, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (pins.default_seed, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(spec::workload(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let w = workload.ok_or("--workload is required")?;
    Ok(Run { w, seed, seconds, trace, pins, out_dir: PathBuf::from(OUT_DIR) })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse(&args, Pins::load()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("run exceeded {}s; stopping", WATCHDOG.as_secs());
        std::process::exit(3);
    });
    if let Err(e) = std::fs::create_dir_all(&run.out_dir) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let out = match workloads::run(&run) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", run.w.name);
            return ExitCode::from(1);
        }
    };
    for v in &out.violations {
        eprintln!("check failed: {v:?}");
    }
    let tag = format!("{}-seed{}-trace{}", run.w.name, run.seed, u8::from(run.trace));
    out.ledger.print(&tag);
    let record = obj(vec![
        ("workload", Value::Str(run.w.name.into())),
        ("why", Value::Str(run.w.why.into())),
        ("seed", Value::Uint(run.seed)),
        ("default_seed", Value::Uint(run.pins.default_seed)),
        ("heldout_seed", Value::Uint(run.pins.heldout_seed)),
        ("seconds", Value::Num(run.seconds)),
        ("trace", Value::Bool(run.trace)),
        ("host", host::fingerprint()),
        ("violations", Value::Uint(out.violations.len() as u64)),
        ("metrics", out.ledger.to_json()),
    ]);
    let ledger_path = run.out_dir.join(format!("{tag}.json"));
    let mut written = std::fs::write(&ledger_path, record.render());
    if run.trace {
        written =
            written.and(out.spans.write_jsonl(&run.out_dir.join(format!("{tag}.spans.jsonl"))));
    }
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", ledger_path.display());
        return ExitCode::from(2);
    }
    println!("# host {}", host::fingerprint().render());
    let names: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = match out.ledger.select(names) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let correct = out.violations.is_empty();
    println!("{}", result_line(correct, out.attempted, out.failed, metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
