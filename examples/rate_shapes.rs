//! The §4.1.2 execution shapes on the real driver in virtual time: steps,
//! sinusoid, peak and tunnel, each stage's requested series (what the
//! manager enqueued each second) printed against its delivered one (what
//! the terminals completed), as sparklines.
//!
//! ```sh
//! cargo run --release --example rate_shapes
//! ```

use benchpress::core::{Phase, PhaseScript, Rate, RunConfig, VirtualRun};
use benchpress::storage::Personality;
use benchpress::workloads::by_name;

fn sparkline(values: &[f64], max: f64) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    values
        .iter()
        .map(|v| {
            let idx = ((v / max).clamp(0.0, 1.0) * 7.0).round() as usize;
            BARS[idx]
        })
        .collect()
}

fn shape_script(shape: &str, cap: f64, seconds: f64) -> PhaseScript {
    match shape {
        "steps" => PhaseScript::new(
            (1..=5)
                .map(|i| Phase::new(Rate::Limited(cap * 0.25 * i as f64), seconds / 5.0))
                .collect(),
        ),
        "sinusoid" => PhaseScript::new(
            (0..24)
                .map(|i| {
                    let level =
                        cap * (0.5 + 0.35 * (i as f64 / 24.0 * std::f64::consts::TAU * 2.0).sin());
                    Phase::new(Rate::Limited(level), seconds / 24.0)
                })
                .collect(),
        ),
        "peak" => PhaseScript::new(vec![
            Phase::new(Rate::Limited(cap * 0.3), seconds * 0.4),
            Phase::new(Rate::Limited(cap * 0.95), seconds * 0.2),
            Phase::new(Rate::Limited(cap * 0.3), seconds * 0.4),
        ]),
        "tunnel" => PhaseScript::constant(Rate::Limited(cap * 0.6), seconds),
        _ => unreachable!(),
    }
}

fn main() {
    for shape in ["steps", "sinusoid", "peak", "tunnel"] {
        println!("== {shape} ==");
        for personality in Personality::all() {
            let name = personality.name;
            let cap = VirtualRun::saturated_tps(personality.clone(), by_name("ycsb").unwrap(), None, 42);
            let script = shape_script(shape, cap, 60.0);
            let seconds = script.total_duration_us();
            let mut run = VirtualRun::new(personality, by_name("ycsb").unwrap(), 42);
            let tenant = run.add_tenant(RunConfig { script, ..RunConfig::default() });
            run.run_until(seconds);
            let stats = tenant.stats();
            let max = cap * 1.25;
            if name == "mysql" {
                println!("  requested {}", sparkline(&stats.requested_series(), max));
            }
            println!("  {:<9} {}", name, sparkline(&stats.throughput_series(), max));
        }
        println!();
    }
    println!("(each stage is normalized to the capacity it was measured at, saturated; the steps and the peak climb past it)");
}
