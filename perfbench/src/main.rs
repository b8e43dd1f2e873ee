//! The repository's benchmark program.
//!
//! ```text
//! perfbench prepare --workload <name> --seed <n> --dir <inputs>
//! perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               --inputs <inputs> --work <scratch> [--spans <file>] [--threads <n>]
//! perfbench reference --inputs <backfill inputs>
//! ```
//!
//! `prepare` writes a workload's inputs for a seed; `run` reads them,
//! runs the workload for about `--seconds`, checks its outputs, and
//! prints one JSON result line: the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics. `perfbench/run.py` drives both.
//! `--threads` overrides the workload's engine thread count (2 for
//! `backfill`, 1 otherwise) for reference measurements; `reference`
//! prints the README's reference figures.

mod backfill;
mod common;
mod inputs;
mod live;
mod measure;
mod oracle;
mod prepare;
mod query;
mod reference;
mod stats;
mod trace;

use measure::Cx;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn args() -> Result<(String, HashMap<String, String>), String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command: prepare or run")?;
    let mut flags = HashMap::new();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or(format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or(format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    Ok((command, flags))
}

fn flag<'f>(flags: &'f HashMap<String, String>, name: &str) -> Result<&'f str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or(format!("missing --{name}"))
}

fn number<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Result<T, String> {
    flag(flags, name)?
        .parse()
        .map_err(|_| format!("--{name} is not a number"))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let (command, flags) = args()?;
    if command == "reference" {
        return reference::reference(&PathBuf::from(flag(&flags, "inputs")?));
    }
    let workload = flag(&flags, "workload")?;
    let seed: u64 = number(&flags, "seed")?;
    match command.as_str() {
        "prepare" => prepare::prepare(workload, seed, &PathBuf::from(flag(&flags, "dir")?)),
        "run" => {
            let seconds: f64 = number(&flags, "seconds")?;
            let trace = flag(&flags, "trace")? == "1";
            let work = PathBuf::from(flag(&flags, "work")?);
            std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
            let threads = match flags.get("threads") {
                Some(_) => number(&flags, "threads")?,
                None if workload == "backfill" => 2,
                None => 1,
            };
            let mut cx = Cx::new(
                seed,
                seconds,
                PathBuf::from(flag(&flags, "inputs")?),
                work,
                trace,
            );
            cx.threads = common::threads(threads);
            match workload {
                "backfill" => backfill::run(&mut cx)?,
                "live" => live::run(&mut cx)?,
                "query" => query::run(&mut cx)?,
                other => return Err(format!("unknown workload `{other}`")),
            }
            let wall = cx.tracer.since_mark();
            let metrics = if trace {
                if let Some(path) = flags.get("spans") {
                    cx.tracer
                        .write_jsonl(&PathBuf::from(path))
                        .map_err(|e| format!("{path}: {e}"))?;
                }
                measure::per_layer(&cx, wall)
            } else {
                measure::end_to_end(&cx.e2e, measure::peak_rss_mib())?
            };
            eprintln!("{workload}: {:.1} s of workload steps", wall);
            println!("{}", measure::result_line(&cx.checks, &metrics));
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}
