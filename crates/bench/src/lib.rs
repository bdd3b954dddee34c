//! `bp-bench`: the experiment harness.
//!
//! [`EXPERIMENTS`] is the table of paper artifacts this repo regenerates
//! (see DESIGN.md §4 and EXPERIMENTS.md): Table 1, the §2.2 feature
//! experiments, the §4 game experiments, the dialect check and the
//! experiments of the subsystems added since. Each row runs to an
//! [`Outcome`]: the table the paper's artifact corresponds to, and the pass
//! criteria it fails. The `harness` binary and this crate's tests are two
//! loops over the same rows.

pub mod experiments;
pub mod live;
pub mod timing;

pub use experiments::*;

/// What an experiment run produced.
pub trait Outcome {
    /// The table or lines the harness prints.
    fn render(&self) -> String;
    /// The pass criteria that do not hold; empty means the experiment passed.
    fn check(&self) -> Vec<&'static str>;
}

/// The names of the `(criterion, holds)` pairs that do not hold.
pub fn failed(criteria: &[(&'static str, bool)]) -> Vec<&'static str> {
    criteria.iter().filter(|(_, holds)| !holds).map(|(name, _)| *name).collect()
}

/// One row of the experiment table.
pub struct Experiment {
    /// The harness argument that selects it.
    pub name: &'static str,
    /// Printed above the outcome; starts with the EXPERIMENTS.md heading id.
    pub title: &'static str,
    pub run: fn() -> Box<dyn Outcome>,
}

pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        title: "E1: Table 1 — bundled benchmarks",
        run: || Box::new(run_table1(0.2)),
    },
    Experiment {
        name: "rate",
        title: "E3: rate control (§2.2.1) — target 300 tps, 4s per arrival dist",
        run: || Box::new(run_rate_control(300.0, 4.0)),
    },
    Experiment {
        name: "mixture",
        title: "E4: mixture control (§2.2.2) — smallbank, open loop, 3s each",
        run: || Box::new(run_mixture(3.0)),
    },
    Experiment {
        name: "tenancy",
        title: "E5: multi-tenancy (§2.2.3) — ycsb alone vs with smallbank neighbor",
        run: || Box::new(run_tenancy(3.0)),
    },
    Experiment {
        name: "challenges",
        title: "E6: challenge shapes (§4.1.2) × DBMS stages, autopilot on the driver in virtual time",
        run: || Box::new(run_challenges(1_000.0)),
    },
    Experiment {
        name: "physics",
        title: "E7: game physics (§4.1)",
        run: || Box::new(run_physics()),
    },
    Experiment {
        name: "dbms",
        title: "E8: DBMS personalities (Fig. 2b) — voter, saturated: 3s live on the embedded engine, and on E6's stage in virtual time",
        run: || Box::new(run_personalities(3.0)),
    },
    Experiment {
        name: "api",
        title: "E9: control API (§2.2.4) — throttle 200 → 600 tps mid-run",
        run: || Box::new(run_api(200.0, 600.0)),
    },
    Experiment {
        name: "dialects",
        title: "E10: SQL-dialect management (§2.1)",
        run: || Box::new(run_dialects()),
    },
    Experiment {
        name: "obs",
        title: "E11: observability — span flight recorder + unified metrics registry",
        run: || Box::new(run_observability(2.0)),
    },
    Experiment {
        name: "resilience",
        title: "E12: chaos & resilience — error burst armed over HTTP mid-run",
        run: || Box::new(run_resilience(6.0)),
    },
    Experiment {
        name: "replay",
        title: "E13: record → replay → divergence (bp-replay over HTTP)",
        run: || Box::new(run_replay()),
    },
    Experiment {
        name: "slo",
        title: "E14: closed-loop SLO admission control — convergence + chaos backoff over HTTP",
        run: || Box::new(run_slo(4.0)),
    },
    Experiment {
        name: "doctor",
        title: "E15: flight recorder — chaos-induced bottlenecks named by bp-doctor",
        run: || Box::new(run_doctor(2.0)),
    },
    Experiment {
        name: "recovery",
        title: "E16: crash recovery — redo-log replay under live load, supervised restart",
        run: || Box::new(run_recovery(1.5)),
    },
    Experiment {
        name: "cluster",
        title: "E17: bp-cluster — 3-agent fleet, node kill, re-split, merged telemetry",
        run: || Box::new(run_cluster()),
    },
    Experiment {
        name: "trace",
        title: "E18: distributed tracing — tail sampling under a latency spike, exemplar -> /cluster/trace",
        run: || Box::new(run_trace()),
    },
    Experiment {
        name: "queue",
        title: "Ablation: centralized queue dispatch gate (never-exceed, §2.2.1)",
        run: || Box::new(run_queue_ablation()),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Experiments that drive a live (wall-clock) load generator measure
    /// latency curves that a concurrently running neighbor distorts: run
    /// the rows one at a time.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn passes(name: &str) {
        let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let row = EXPERIMENTS.iter().find(|e| e.name == name).expect("a row of the table");
        let outcome = (row.run)();
        assert_eq!(
            outcome.check(),
            Vec::<&str>::new(),
            "failed criteria of:\n{}",
            outcome.render()
        );
    }

    #[test]
    fn table1_runs_all_benchmarks() {
        passes("table1")
    }
    #[test]
    fn challenges_distinguish_personalities() {
        passes("challenges")
    }
    #[test]
    fn physics_report_all_green() {
        passes("physics")
    }
    #[test]
    fn dialect_report_full_coverage() {
        passes("dialects")
    }
    #[test]
    fn observability_report_covers_phases() {
        passes("obs")
    }
    #[test]
    fn resilience_dips_and_recovers() {
        passes("resilience")
    }
    #[test]
    fn slo_converges_and_recovers() {
        passes("slo")
    }
    #[test]
    fn doctor_names_both_bottlenecks() {
        passes("doctor")
    }
    #[test]
    fn recovery_restores_throughput() {
        passes("recovery")
    }
    #[test]
    fn cluster_fleet_survives_node_kill() {
        passes("cluster")
    }
    #[test]
    fn trace_tail_sampling_and_cluster_resolution() {
        passes("trace")
    }
    #[test]
    fn queue_ablation_shows_gate_effect() {
        passes("queue")
    }

    /// Names are unique, every row is documented under its heading in
    /// EXPERIMENTS.md, and no row passes on a report with nothing in it.
    #[test]
    fn table_rows_are_named_documented_and_gated() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let empty: &[(&str, Box<dyn Outcome>)] = &[
            ("table1", Box::new(Table1Report::default())),
            ("rate", Box::new(Vec::<RateControlReport>::new())),
            ("mixture", Box::new(Vec::<MixtureReport>::new())),
            ("tenancy", Box::new(TenancyReport::default())),
            ("challenges", Box::new(Vec::<ChallengeReport>::new())),
            ("physics", Box::new(PhysicsReport::default())),
            ("dbms", Box::new(Vec::<PersonalityReport>::new())),
            ("api", Box::new(ApiReport::default())),
            ("dialects", Box::new(Vec::<DialectReport>::new())),
            ("obs", Box::new(ObservabilityReport::default())),
            ("resilience", Box::new(ResilienceReport::default())),
            ("replay", Box::new(ReplayReport::default())),
            ("slo", Box::new(SloReport::default())),
            ("doctor", Box::new(DoctorReport::default())),
            ("recovery", Box::new(RecoveryExperimentReport::default())),
            ("cluster", Box::new(ClusterReport::default())),
            ("trace", Box::new(TraceReport::default())),
            ("queue", Box::new(QueueAblationReport::default())),
        ];
        for (i, row) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|e| e.name != row.name), "{} twice", row.name);
            let heading = format!("## {} ", row.title.split(':').next().unwrap());
            assert!(
                doc.lines().any(|l| l.starts_with(&heading)),
                "no `{heading}` in EXPERIMENTS.md"
            );
            let (_, report) =
                empty.iter().find(|(name, _)| *name == row.name).expect("an empty report per row");
            assert!(!report.check().is_empty(), "{} passes with nothing measured", row.name);
        }
    }

    /// The rows that had no check before they had a `check()`: a report
    /// shaped like a good run passes, and spoiling one number returns that
    /// criterion by name — no live run needed to see a gate fail.
    #[test]
    fn formerly_ungated_rows_fail_by_name() {
        fn expect(outcome: &dyn Outcome, failing: &[&str]) {
            assert_eq!(outcome.check(), failing, "for:\n{}", outcome.render());
        }
        let rate = |overshoot_seconds, delivered_mean| RateControlReport {
            arrival: "exponential",
            target_tps: 300.0,
            delivered_mean,
            mean_abs_error: 3.0,
            overshoot_seconds,
        };
        expect(&vec![rate(0, 300.0), rate(0, 297.0)], &[]);
        expect(
            &vec![rate(0, 300.0), rate(1, 297.0)],
            &["no second exceeds the target rate, under either arrival process"],
        );
        expect(
            &vec![rate(0, 300.0), rate(0, 262.0)],
            &["mean delivered rate within 10 % of target"],
        );

        let mix = |preset, throughput, lock_waits| MixtureReport {
            preset,
            throughput,
            lock_waits,
            deadlocks: lock_waits * 10,
        };
        let mixes = |read_only_tps, read_only_waits| {
            vec![
                mix("super-writes", 26_414.0, 731),
                mix("default", 36_876.0, 1_021),
                mix("read-only", read_only_tps, read_only_waits),
            ]
        };
        expect(&mixes(49_589.0, 0), &[]);
        expect(
            &mixes(30_000.0, 0),
            &["read-only out-runs the default and the super-writes mixture"],
        );
        expect(&mixes(49_589.0, 2), &["read-only waits on no lock and meets no deadlock"]);

        let tenancy = |contended_tps| TenancyReport {
            solo_tps: 41_105.0,
            contended_tps,
            neighbor_tps: 20_487.0,
        };
        expect(&tenancy(25_541.0), &[]);
        expect(&tenancy(41_200.0), &["a tenant is slower beside a neighbor than alone"]);

        let stage = |personality, throughput, failed, virtual_tps| PersonalityReport {
            personality,
            throughput,
            p95_latency_us: 100,
            failed,
            jitter_cv: 0.01,
            virtual_tps,
        };
        let stages = |derby_tps, postgres_failed, postgres_virtual| {
            vec![
                stage("mysql", 40_717.0, 0, 1_096.0),
                stage("postgres", 35_279.0, postgres_failed, postgres_virtual),
                stage("derby", derby_tps, 9_456, 68.0),
                stage("oracle", 46_343.0, 0, 1_567.0),
            ]
        };
        expect(&stages(4_655.0, 0, 921.0), &[]);
        expect(&stages(36_000.0, 0, 921.0), &["coarse-locking derby delivers the lowest throughput"]);
        expect(&stages(4_655.0, 3, 921.0), &["mysql, postgres and oracle fail no transaction"]);
        expect(&stages(4_655.0, 0, 1_100.0), &["in virtual time oracle > mysql > postgres > derby"]);

        let api = |feedback_ok, effect_latency_s| ApiReport {
            old_rate: 200.0,
            new_rate: 600.0,
            effect_latency_s,
            feedback_ok,
        };
        expect(&api(true, 1.5), &[]);
        expect(&api(false, 1.5), &["status feedback carries the current throughput"]);
        expect(&api(true, f64::NAN), &["a rate change takes effect within 3 s"]);
        expect(&api(true, 3.4), &["a rate change takes effect within 3 s"]);

        let resilience = || ResilienceReport {
            baseline_tps: 399.0,
            faulted_tps: 0.0,
            recovered_tps: 368.0,
            injected: 66,
            shed: 840,
            breaker_opened: true,
            breaker_reclosed: true,
            metrics_ok: true,
        };
        expect(&resilience(), &[]);
        expect(
            &ResilienceReport { breaker_opened: false, ..resilience() },
            &["breaker opens under the error burst"],
        );
        expect(
            &ResilienceReport { faulted_tps: 390.0, ..resilience() },
            &[
                "faulted throughput below 80 % of baseline",
                "recovered throughput above 1.5x faulted",
            ],
        );

        let queue = |gated_overshoot_seconds, ungated_burst_tps| QueueAblationReport {
            gated_overshoot_seconds,
            ungated_burst_tps,
            target_tps: 1_000.0,
        };
        expect(&queue(0, 2_000.0), &[]);
        expect(&queue(1, 2_000.0), &["gated drain never exceeds the target"]);
        expect(&queue(0, 1_020.0), &["ungated drain bursts above 1.5x the target"]);
    }
}
