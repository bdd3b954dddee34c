//! `bp-perf`: the repository benchmark. See `README.md`.
//!
//! ```text
//! bp-perf run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! bp-perf check  [--seed N]
//! bp-perf counts [--twice] [--seed N]
//! bp-perf repeat [--sets K] [--runs R] [--seconds S]
//! ```

mod alloc;
mod check;
mod direct;
mod host;
mod probes;
mod repeat;
mod report;
mod run;
mod summary;
mod traced;
mod window;
mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

use std::process::ExitCode;

/// Command-line options shared by the subcommands; each reads what it uses.
#[derive(Debug, Clone, Default)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: Option<u64>,
    pub seconds: Option<u64>,
    /// `Some(false)`: end-to-end metrics only; `Some(true)`: per-layer
    /// metrics only; `None`: both.
    pub trace: Option<bool>,
    pub smoke: bool,
    pub twice: bool,
    pub sets: Option<u64>,
    pub runs: Option<u64>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut number = |what: &str| -> Result<u64, String> {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--seed" => o.seed = Some(number("a number")?),
            "--seconds" => o.seconds = Some(number("a number of seconds")?.max(1)),
            "--sets" => o.sets = Some(number("a number")?.max(2)),
            "--runs" => o.runs = Some(number("a number")?.max(2)),
            "--trace" => o.trace = Some(number("0 or 1")? != 0),
            "--smoke" => o.smoke = true,
            "--twice" => o.twice = true,
            "--workload" => {
                let name = it.next().ok_or("--workload needs a name")?;
                if workloads::spec_by_name(name).is_none() {
                    let known: Vec<_> = workloads::SPECS.iter().map(|s| s.name).collect();
                    return Err(format!(
                        "unknown workload {name}; known: {}",
                        known.join(", ")
                    ));
                }
                o.workload = Some(name.clone());
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: bp-perf run|check|counts|repeat [options]");
        return ExitCode::from(2);
    };
    let options = match parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bp-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match command.as_str() {
        "run" => run::command(&options),
        "check" => run::check_command(&options),
        "counts" => run::counts_command(&options),
        "repeat" => repeat::command(&options),
        other => {
            eprintln!("bp-perf: unknown command {other}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
