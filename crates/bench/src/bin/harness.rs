//! The experiment harness CLI: regenerates every table/figure artifact and
//! checks each against its pass criteria, printing one `ok:` or `FAIL:`
//! line per criterion with the measured value beside its bound.
//!
//! Usage: `harness [<name>... | all]` — the names are the rows of
//! `bp_bench::EXPERIMENTS`; an unknown name lists them (exit 2). Exits 1 if
//! any experiment fails a criterion.

use bp_bench::EXPERIMENTS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    if let Some(unknown) =
        args.iter().find(|a| *a != "all" && !EXPERIMENTS.iter().any(|e| e.name == **a))
    {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!("unknown experiment '{unknown}'. one of: {} all", names.join(" "));
        std::process::exit(2);
    }

    let mut failures = 0;
    for e in EXPERIMENTS.iter().filter(|e| all || args.iter().any(|a| a == e.name)) {
        let (printout, failing) = e.judge(&(e.run)());
        println!("{printout}");
        failures += usize::from(!failing.is_empty());
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
}
