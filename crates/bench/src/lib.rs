//! `bp-bench`: the experiment harness.
//!
//! [`EXPERIMENTS`] is the table of paper artifacts this repo regenerates
//! (see DESIGN.md §4 and EXPERIMENTS.md): Table 1, the §2.2 feature
//! experiments, the §4 game experiments, the dialect check and the
//! experiments of the subsystems added since. Each row runs to an
//! [`Outcome`]: the table the paper's artifact corresponds to, and the named
//! numbers it measured. The row's pass criteria are data beside it, one
//! [`Criterion`] per bound on one number, and [`Experiment::judge`] is the
//! one place they are applied: the `harness` binary, the golden test and
//! this crate's tests all judge a row through it.

use std::fmt::Write as _;

pub mod experiments;
pub mod live;
pub mod timing;

pub use experiments::*;
use Cmp::{Eq, Ge, Gt, Le, Lt};

/// What an experiment run produced.
#[derive(Default)]
pub struct Outcome {
    /// The table or lines the harness prints.
    pub text: String,
    /// The numbers the row's criteria read, by name; a boolean is 1 or 0.
    pub measured: Vec<(&'static str, f64)>,
}

/// How a measured number must compare with its criterion's bound.
#[derive(Clone, Copy)]
pub enum Cmp {
    Lt,
    Le,
    Eq,
    Ge,
    Gt,
}

/// A pass criterion: the measured number `measure` compares with `bound`
/// by `cmp`. A measure the outcome lacks, or NaN, fails it.
pub struct Criterion {
    pub text: &'static str,
    pub measure: &'static str,
    pub cmp: Cmp,
    pub bound: f64,
}

impl Criterion {
    /// Whether `value` meets the bound; NaN meets none.
    fn holds(&self, value: f64) -> bool {
        match self.cmp {
            Lt => value < self.bound,
            Le => value <= self.bound,
            Eq => value == self.bound,
            Ge => value >= self.bound,
            Gt => value > self.bound,
        }
    }
}

const fn criterion(text: &'static str, measure: &'static str, cmp: Cmp, bound: f64) -> Criterion {
    Criterion { text, measure, cmp, bound }
}

/// One row of the experiment table.
pub struct Experiment {
    /// The harness argument that selects it.
    pub name: &'static str,
    /// Printed above the outcome; starts with the EXPERIMENTS.md heading id.
    pub title: &'static str,
    pub run: fn() -> Outcome,
    /// What the outcome must show for the row to pass.
    pub criteria: &'static [Criterion],
}

impl Experiment {
    /// Judges `outcome` by the row's criteria. Returns the row's printout
    /// (its title, the outcome's text, one `ok:` or `FAIL:` line per
    /// criterion with the measured value beside its bound, and `pass` when
    /// every criterion holds) and the texts of the criteria that fail.
    pub fn judge(&self, outcome: &Outcome) -> (String, Vec<&'static str>) {
        let mut printout = format!("=== {} ===\n{}", self.title, outcome.text);
        let mut failing = Vec::new();
        for c in self.criteria {
            let value =
                outcome.measured.iter().find(|(m, _)| *m == c.measure).map_or(f64::NAN, |m| m.1);
            let holds = c.holds(value);
            let cmp = ["<", "≤", "=", "≥", ">"][c.cmp as usize];
            let verdict = if holds { "ok" } else { "FAIL" };
            let _ = writeln!(printout, "{verdict}: {} ({value:.3} {cmp} {})", c.text, c.bound);
            if !holds {
                failing.push(c.text);
            }
        }
        if failing.is_empty() {
            printout.push_str("pass\n");
        }
        (printout, failing)
    }
}

pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        title: "E1: Table 1 — bundled benchmarks",
        run: || run_table1(0.2),
        criteria: &[
            criterion("15 benchmarks in classes of 7 / 4 / 4", "classes_7_4_4", Eq, 1.0),
            criterion(
                "every benchmark loads rows and runs all its transaction types",
                "benchmarks_failing",
                Eq,
                0.0,
            ),
        ],
    },
    Experiment {
        name: "rate",
        title: "E3: rate control (§2.2.1) — target 300 tps, 4s per arrival dist",
        run: || run_rate_control(300.0, 4.0),
        criteria: &[
            criterion(
                "no second exceeds the target rate, under either arrival process",
                "overshoot_seconds",
                Eq,
                0.0,
            ),
            criterion("mean delivered rate within 10 % of target", "worst_rate_error", Le, 0.10),
        ],
    },
    Experiment {
        name: "mixture",
        title: "E4: mixture control (§2.2.2) — smallbank, open loop, 3s each",
        run: || run_mixture(3.0),
        criteria: &[
            criterion(
                "read-only out-runs the default and the super-writes mixture",
                "read_only_lead_tps",
                Gt,
                0.0,
            ),
            criterion(
                "read-only waits on no lock and meets no deadlock",
                "read_only_waits_and_deadlocks",
                Eq,
                0.0,
            ),
        ],
    },
    Experiment {
        name: "tenancy",
        title: "E5: multi-tenancy (§2.2.3) — ycsb alone vs with smallbank neighbor",
        run: || run_tenancy(3.0),
        criteria: &[
            criterion("both tenants complete work", "slower_tenant_tps", Gt, 0.0),
            criterion("a tenant is slower beside a neighbor than alone", "slowdown_tps", Gt, 0.0),
        ],
    },
    Experiment {
        name: "challenges",
        title: "E6: challenge shapes (§4.1.2) × DBMS stages, autopilot on the driver in virtual time",
        run: || run_challenges(1_000.0),
        criteria: &[
            criterion("four DBMS stages play four courses each", "games", Eq, 16.0),
            criterion(
                "oracle passes at least as many courses as derby",
                "oracle_minus_derby_passes",
                Ge,
                0.0,
            ),
            criterion("derby crashes in the tunnel", "derby_tunnel_crash", Eq, 1.0),
        ],
    },
    Experiment {
        name: "physics",
        title: "E7: game physics (§4.1)",
        run: run_physics,
        criteria: &[
            criterion("the same seed replays the same trajectory", "deterministic", Eq, 1.0),
            criterion("gravity lowers the requested rate linearly", "gravity_linear", Eq, 1.0),
            criterion(
                "a crash halts the benchmark and drops its queued and in-flight work",
                "crash_halts",
                Eq,
                1.0,
            ),
        ],
    },
    Experiment {
        name: "dbms",
        title: "E8: DBMS personalities (Fig. 2b) — voter, saturated: 3s live on the embedded engine, and on E6's stage in virtual time",
        run: || run_personalities(3.0),
        criteria: &[
            criterion("all four personalities complete work", "personalities_with_work", Eq, 4.0),
            criterion(
                "coarse-locking derby delivers the lowest throughput",
                "derby_deficit_tps",
                Gt,
                0.0,
            ),
            criterion("mysql, postgres and oracle fail no transaction", "others_failed", Eq, 0.0),
            criterion(
                "in virtual time oracle > mysql > postgres > derby",
                "virtual_order_gap_tps",
                Gt,
                0.0,
            ),
        ],
    },
    Experiment {
        name: "api",
        title: "E9: control API (§2.2.4) — throttle 200 → 600 tps mid-run",
        run: || run_api(200.0, 600.0),
        criteria: &[
            criterion("status feedback carries the current throughput", "feedback", Eq, 1.0),
            criterion("a rate change takes effect within 3 s", "effect_latency_s", Le, 3.0),
        ],
    },
    Experiment {
        name: "dialects",
        title: "E10: SQL-dialect management (§2.1)",
        run: run_dialects,
        criteria: &[
            criterion(
                "all 15 benchmarks carry catalog statements",
                "benchmarks_with_statements",
                Eq,
                15.0,
            ),
            criterion(
                "every statement renders in every dialect and re-parses to the same statement \
                 (DDL: re-parses, and builds the schema as MySQL and Postgres render it)",
                "bad_renderings",
                Eq,
                0.0,
            ),
        ],
    },
    Experiment {
        name: "obs",
        title: "E11: observability — span flight recorder + unified metrics registry",
        run: || run_observability(2.0),
        criteria: &[
            criterion(
                "full mode records one span per completed request",
                "spans_per_request",
                Eq,
                1.0,
            ),
            criterion(
                "every phase reports queue and commit percentiles",
                "phases_with_percentiles_share",
                Eq,
                1.0,
            ),
            criterion("the registry exposes at least 10 metric families", "metric_families", Ge, 10.0),
        ],
    },
    Experiment {
        name: "resilience",
        title: "E12: chaos & resilience — error burst armed over HTTP mid-run",
        run: || run_resilience(6.0),
        criteria: &[
            criterion("chaos injects faults", "injected", Gt, 0.0),
            criterion("breaker opens under the error burst", "breaker_opened", Eq, 1.0),
            criterion("open breaker sheds load", "shed", Gt, 0.0),
            criterion("breaker re-closes after disarm", "breaker_reclosed", Eq, 1.0),
            criterion("/metrics shows live chaos and resilience series", "metrics_ok", Eq, 1.0),
            criterion("faulted throughput below 80 % of baseline", "faulted_over_baseline", Lt, 0.8),
            criterion("recovered throughput above 1.5x faulted", "recovered_over_faulted", Gt, 1.5),
        ],
    },
    Experiment {
        name: "replay",
        title: "E13: record → replay → divergence (bp-replay over HTTP)",
        run: run_replay,
        criteria: &[
            criterion(
                "two same-seed recordings have byte-identical schedules",
                "deterministic",
                Eq,
                1.0,
            ),
            criterion("the as-recorded replay diverges by at most 0.15", "divergence", Le, 0.15),
            criterion(
                "warp x4 replays in under 60 % of the recorded wall time",
                "warp_over_recorded",
                Lt,
                0.6,
            ),
            criterion("fitted mixtures within 2 % of scripted weights", "mixture_error", Lt, 0.02),
            criterion("bp_replay_* series are exposed on /metrics", "metrics_ok", Eq, 1.0),
        ],
    },
    Experiment {
        name: "slo",
        title: "E14: closed-loop SLO admission control — convergence + chaos backoff over HTTP",
        run: || run_slo(4.0),
        criteria: &[
            criterion("probe and scan find an operating point", "capacity_tps", Gt, 100.0),
            criterion(
                "loop converges to 0.6x-1.45x the hand-found rate",
                "converged_ratio_outside_band",
                Le,
                0.0,
            ),
            criterion("breaker opens under the chaos spike", "breaker_opened", Eq, 1.0),
            criterion("open breaker forces SLO backoffs", "breaker_backoffs", Gt, 0.0),
            criterion("spike rate below 60 % of healthy rate", "spike_over_healthy", Lt, 0.6),
            criterion("recovered rate above 1.4x spike rate", "recovered_over_spike", Gt, 1.4),
            criterion("breaker re-closes after disarm", "breaker_reclosed", Eq, 1.0),
            criterion("bp_slo_* series live on /metrics", "metrics_ok", Eq, 1.0),
        ],
    },
    Experiment {
        name: "doctor",
        title: "E15: flight recorder — chaos-induced bottlenecks named by bp-doctor",
        run: || run_doctor(2.0),
        criteria: &[
            criterion("telemetry covers the run with more than 10 samples", "samples", Gt, 10.0),
            criterion(
                "the #bp-report v2 text parses and re-renders byte-identically",
                "report_round_trip",
                Eq,
                1.0,
            ),
            criterion("both chaos arms are journaled", "chaos_arms_journaled", Ge, 2.0),
            criterion("the lock storm is classified as lock_contention", "lock_classified", Eq, 1.0),
            criterion("the fsync stall is classified as io_saturation", "io_classified", Eq, 1.0),
            criterion("lock finding cites a chaos event", "lock_cites_chaos", Eq, 1.0),
            criterion("io finding cites a chaos event", "io_cites_chaos", Eq, 1.0),
        ],
    },
    Experiment {
        name: "recovery",
        title: "E16: crash recovery — redo-log replay under live load, supervised restart",
        run: || run_recovery(1.5),
        criteria: &[
            criterion("the healthy window commits work", "pre_tps", Gt, 0.0),
            criterion("the ServerCrash fault fires", "crashes", Ge, 1.0),
            criterion("the armed supervisor runs the recovery", "supervised_recoveries", Ge, 1.0),
            criterion("/readyz answers 503 while the engine is down", "not_ready_in_outage", Eq, 1.0),
            criterion("/readyz answers 200 once recovered", "ready_after_recovery", Eq, 1.0),
            criterion("post-crash throughput is within 10 % of pre-crash", "post_over_pre", Ge, 0.9),
            criterion("the doctor names crash_recovery", "doctor_classified", Eq, 1.0),
            criterion("bp_recovery_* series are exposed on /metrics", "metrics_ok", Eq, 1.0),
            criterion("server_crash and recovery_complete are journaled", "journal_ok", Eq, 1.0),
        ],
    },
    Experiment {
        name: "cluster",
        title: "E17: bp-cluster — 3-agent fleet, node kill, re-split, merged telemetry",
        run: run_cluster,
        criteria: &[
            criterion(
                "initial split gives three nodes the whole global rate",
                "split_error_tps",
                Lt,
                1e-6,
            ),
            criterion("the fleet commits work before the kill", "pre_kill_tps", Gt, 0.0),
            criterion(
                "killed node dead within 2.6 heartbeat intervals",
                "dead_after_intervals",
                Le,
                2.6,
            ),
            criterion("survivors carry the whole global rate", "survivor_rate_error", Lt, 1.0),
            criterion("post-kill throughput is within 10 % of pre-kill", "post_over_pre", Ge, 0.9),
            criterion(
                "merged metrics: 1 dead, 2 joined, families deduplicated",
                "merged_metrics_ok",
                Eq,
                1.0,
            ),
            criterion(
                "node_join, node_suspect, node_dead and rate_resplit are journaled",
                "journal_ok",
                Eq,
                1.0,
            ),
        ],
    },
    Experiment {
        name: "trace",
        title: "E18: distributed tracing — tail sampling under a latency spike, exemplar -> /cluster/trace",
        run: run_trace,
        criteria: &[
            criterion(
                "the latency spike slows some requests past 100 ms",
                "slow_requests",
                Gt,
                0.0,
            ),
            criterion(
                "the tail sampler retains at least 99 % of the slow requests",
                "retention",
                Ge,
                0.99,
            ),
            criterion("retained spans within the span budget", "retained_over_budget", Le, 1.0),
            criterion("a /metrics exemplar resolves via /cluster/trace", "exemplar_resolves", Eq, 1.0),
            criterion(
                "every retained trace id re-derives from (seed, seq)",
                "ids_deterministic",
                Eq,
                1.0,
            ),
        ],
    },
    Experiment {
        name: "queue",
        title: "Ablation: centralized queue dispatch gate (never-exceed, §2.2.1)",
        run: run_queue_ablation,
        criteria: &[
            criterion("gated drain never exceeds the target", "gated_overshoot_seconds", Eq, 0.0),
            criterion(
                "ungated drain bursts above 1.5x the target",
                "ungated_over_target",
                Gt,
                1.5,
            ),
        ],
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Experiments that drive a live (wall-clock) load generator measure
    /// latency curves that a concurrently running neighbor distorts: run
    /// the rows one at a time.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn row(name: &str) -> &'static Experiment {
        EXPERIMENTS.iter().find(|e| e.name == name).expect("a row of the table")
    }

    fn passes(name: &str) {
        let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let row = row(name);
        let (printout, failing) = row.judge(&(row.run)());
        assert_eq!(failing, Vec::<&str>::new(), "failed criteria of:\n{printout}");
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

    /// Names are unique, every row is documented under its heading in
    /// EXPERIMENTS.md, and every row has criteria, all of which an outcome
    /// with nothing measured fails.
    #[test]
    fn table_rows_are_named_documented_and_gated() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        for (i, row) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|e| e.name != row.name), "{} twice", row.name);
            let heading = format!("## {} ", row.title.split(':').next().unwrap());
            assert!(
                doc.lines().any(|l| l.starts_with(&heading)),
                "no `{heading}` in EXPERIMENTS.md"
            );
            assert!(!row.criteria.is_empty(), "{} has no criterion", row.name);
            let (_, failing) = row.judge(&Outcome::default());
            assert_eq!(
                failing.len(),
                row.criteria.len(),
                "{} passes with nothing measured",
                row.name
            );
        }
    }

    /// Each comparison at its bound, strict and not; NaN and a missing
    /// measure fail.
    #[test]
    fn a_criterion_compares_its_measure_with_its_bound() {
        let (below, above) = (1.0 - f64::EPSILON, 1.0 + f64::EPSILON);
        for (cmp, expected) in [
            (Lt, [true, false, false]),
            (Le, [true, true, false]),
            (Eq, [false, true, false]),
            (Ge, [false, true, true]),
            (Gt, [false, false, true]),
        ] {
            let c = criterion("probe", "x", cmp, 1.0);
            assert_eq!([below, 1.0, above].map(|v| c.holds(v)), expected);
            assert!(!c.holds(f64::NAN));
        }
        const PROBE: &[Criterion] = &[criterion("probe", "x", Ge, 0.0)];
        let row =
            Experiment { name: "probe", title: "probe", run: Outcome::default, criteria: PROBE };
        let (printout, failing) =
            row.judge(&Outcome { text: String::new(), measured: vec![("y", 1.0)] });
        assert_eq!(failing, ["probe"]);
        assert_eq!(printout, "=== probe ===\nFAIL: probe (NaN ≥ 0)\n");
    }

    /// The rows that had no check before they had criteria: an outcome that
    /// measured a good run passes, and spoiling one number fails that
    /// criterion by name — no live run needed to see a gate fail.
    #[test]
    fn formerly_ungated_rows_fail_by_name() {
        // `good` with each of `spoiled` put in place of its namesake.
        fn expect(
            name: &str,
            good: &[(&'static str, f64)],
            spoiled: &[(&'static str, f64)],
            failing: &[&str],
        ) {
            let measured = good
                .iter()
                .map(|&(m, v)| spoiled.iter().find(|s| s.0 == m).map_or((m, v), |&s| s))
                .collect();
            let (printout, failed) = row(name).judge(&Outcome { text: String::new(), measured });
            assert_eq!(failed, failing, "for:\n{printout}");
        }

        // Two arrival processes at 300 tx/s delivering 300 and 297.
        let rate = [("overshoot_seconds", 0.0), ("worst_rate_error", 3.0 / 300.0)];
        expect("rate", &rate, &[], &[]);
        expect(
            "rate",
            &rate,
            &[("overshoot_seconds", 1.0)],
            &["no second exceeds the target rate, under either arrival process"],
        );
        expect(
            "rate",
            &rate,
            &[("worst_rate_error", 1.0 - 262.0 / 300.0)],
            &["mean delivered rate within 10 % of target"],
        );

        // super-writes 26,414, default 36,876 and read-only 49,589 tx/s.
        let mixture =
            [("read_only_lead_tps", 49_589.0 - 36_876.0), ("read_only_waits_and_deadlocks", 0.0)];
        expect("mixture", &mixture, &[], &[]);
        expect(
            "mixture",
            &mixture,
            &[("read_only_lead_tps", 30_000.0 - 36_876.0)],
            &["read-only out-runs the default and the super-writes mixture"],
        );
        expect(
            "mixture",
            &mixture,
            &[("read_only_waits_and_deadlocks", 2.0 + 20.0)],
            &["read-only waits on no lock and meets no deadlock"],
        );

        // Solo 41,105 tx/s; beside a 20,487 tx/s neighbor 25,541.
        let tenancy = [("slower_tenant_tps", 20_487.0), ("slowdown_tps", 41_105.0 - 25_541.0)];
        expect("tenancy", &tenancy, &[], &[]);
        expect(
            "tenancy",
            &tenancy,
            &[("slowdown_tps", 41_105.0 - 41_200.0)],
            &["a tenant is slower beside a neighbor than alone"],
        );

        // Live: derby 4,655 tx/s, the slowest other postgres at 35,279; in
        // virtual time oracle 1,567, mysql 1,096, postgres 921, derby 68.
        let dbms = [
            ("personalities_with_work", 4.0),
            ("derby_deficit_tps", 35_279.0 - 4_655.0),
            ("others_failed", 0.0),
            ("virtual_order_gap_tps", 1_096.0 - 921.0),
        ];
        expect("dbms", &dbms, &[], &[]);
        expect(
            "dbms",
            &dbms,
            &[("derby_deficit_tps", 35_279.0 - 36_000.0)],
            &["coarse-locking derby delivers the lowest throughput"],
        );
        expect(
            "dbms",
            &dbms,
            &[("others_failed", 3.0)],
            &["mysql, postgres and oracle fail no transaction"],
        );
        expect(
            "dbms",
            &dbms,
            &[("virtual_order_gap_tps", 1_096.0 - 1_100.0)],
            &["in virtual time oracle > mysql > postgres > derby"],
        );

        let api = [("feedback", 1.0), ("effect_latency_s", 1.5)];
        expect("api", &api, &[], &[]);
        expect(
            "api",
            &api,
            &[("feedback", 0.0)],
            &["status feedback carries the current throughput"],
        );
        expect(
            "api",
            &api,
            &[("effect_latency_s", f64::NAN)],
            &["a rate change takes effect within 3 s"],
        );
        expect(
            "api",
            &api,
            &[("effect_latency_s", 3.4)],
            &["a rate change takes effect within 3 s"],
        );

        // Baseline 399 tx/s, faulted 0, recovered 368.
        let resilience = [
            ("injected", 66.0),
            ("breaker_opened", 1.0),
            ("shed", 840.0),
            ("breaker_reclosed", 1.0),
            ("metrics_ok", 1.0),
            ("faulted_over_baseline", 0.0 / 399.0),
            ("recovered_over_faulted", 368.0 / 0.0),
        ];
        expect("resilience", &resilience, &[], &[]);
        expect(
            "resilience",
            &resilience,
            &[("breaker_opened", 0.0)],
            &["breaker opens under the error burst"],
        );
        expect(
            "resilience",
            &resilience,
            &[("faulted_over_baseline", 390.0 / 399.0), ("recovered_over_faulted", 368.0 / 390.0)],
            &[
                "faulted throughput below 80 % of baseline",
                "recovered throughput above 1.5x faulted",
            ],
        );

        // A 1,000 tx/s target, the ungated drain bursting to 2,000.
        let queue = [("gated_overshoot_seconds", 0.0), ("ungated_over_target", 2_000.0 / 1_000.0)];
        expect("queue", &queue, &[], &[]);
        expect(
            "queue",
            &queue,
            &[("gated_overshoot_seconds", 1.0)],
            &["gated drain never exceeds the target"],
        );
        expect(
            "queue",
            &queue,
            &[("ungated_over_target", 1_020.0 / 1_000.0)],
            &["ungated drain bursts above 1.5x the target"],
        );
    }
}
