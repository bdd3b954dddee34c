//! `repeat`: does the benchmark agree with itself? Runs every workload
//! `runs` times per set, each run with a seed of its own, and compares the
//! sets the way an outside checker would: for each end-to-end metric, the
//! interquartile spread of each set as a share of its median, and how much
//! worse the second set's median is than the first's, both against the
//! bound `BENCHMARK.json` gives the metric.

use bp_util::json::Json;

use crate::run::child;
use crate::summary::Quartiles;
use crate::workloads::SPECS;
use crate::Options;

/// The committed benchmark definition, compiled in so the tool and the file
/// cannot name different metrics or bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

struct Bounded {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn end_to_end_bounds(spec: &Json) -> Vec<Bounded> {
    spec.get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end list")
        .iter()
        .map(|m| Bounded {
            name: m
                .get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string(),
            higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
            bound: m.get("bound").and_then(Json::as_f64).expect("bound"),
        })
        .collect()
}

pub fn command(o: &Options) -> bool {
    let sets = o.sets.unwrap_or(2);
    let runs = o.runs.unwrap_or(5);
    let benchmark = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let bounds = end_to_end_bounds(&benchmark);
    let run_seconds = benchmark.get("run_seconds").and_then(Json::as_u64);
    let seconds = o.seconds.or(run_seconds).expect("run_seconds");
    let mut ok = true;
    for spec in &SPECS {
        // values[set][metric] = one value per run
        let mut values = vec![vec![Vec::new(); bounds.len()]; sets as usize];
        for (set, set_values) in values.iter_mut().enumerate() {
            for run in 0..runs {
                let seed = 1 + set as u64 * runs + run;
                let args = [
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    "0",
                ]
                .map(String::from);
                let json = match child(spec.name, &args, false) {
                    Ok(j) => j,
                    Err(e) => {
                        eprintln!("bp-perf: {e}");
                        return false;
                    }
                };
                ok &= json.get("correct").and_then(Json::as_bool) == Some(true);
                for (b, into) in bounds.iter().zip(set_values.iter_mut()) {
                    let value = json
                        .get("metrics")
                        .and_then(|m| m.get(&b.name))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                        .unwrap_or_else(|| panic!("{} did not report {}", spec.name, b.name));
                    into.push(value);
                }
            }
        }
        println!(
            "== {} : {sets} sets of {runs} runs, {seconds} s windows ==",
            spec.name
        );
        println!(
            "  {:<20} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}",
            "metric", "median set 1", "median last", "worse by", "spread 1", "spread n", "bound"
        );
        for (m, b) in bounds.iter().enumerate() {
            let first = Quartiles::of(&values[0][m]);
            let last = Quartiles::of(&values[sets as usize - 1][m]);
            let change = (last.median - first.median) / first.median.abs().max(f64::MIN_POSITIVE);
            let worse_by = if b.higher_is_better { -change } else { change };
            let spread = values
                .iter()
                .map(|set| Quartiles::of(&set[m]).spread())
                .fold(0.0, f64::max);
            // Set-up time is exempt from the spread rule, not from the median rule.
            let breach = worse_by > b.bound || (b.name != "setup_s" && spread > b.bound);
            ok &= !breach;
            println!(
                "  {:<20} {:>14.4} {:>14.4} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.1}%{}",
                b.name,
                first.median,
                last.median,
                worse_by * 100.0,
                first.spread() * 100.0,
                last.spread() * 100.0,
                b.bound * 100.0,
                if breach {
                    "  BREACH"
                } else if spread > b.bound / 3.0 {
                    "  (wide)"
                } else {
                    ""
                },
            );
        }
    }
    ok
}
