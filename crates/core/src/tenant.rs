//! Multi-tenancy (§2.2.3): run several workloads in parallel against the
//! same database instance, with isolated per-tenant statistics.

use std::sync::Arc;

use bp_sql::Connection;
use bp_storage::Database;
use bp_util::rng::Rng;

use crate::executor::{start, RunConfig, RunHandle};
use crate::workload::{LoadSummary, Workload};

/// One tenant slot.
pub struct Tenant {
    pub name: String,
    pub handle: RunHandle,
}

/// A testbed hosting multiple tenants on one DBMS instance, all on its clock.
pub struct Testbed {
    db: Arc<Database>,
    tenants: Vec<Tenant>,
}

impl Testbed {
    pub fn new(db: Arc<Database>) -> Testbed {
        Testbed { db, tenants: Vec::new() }
    }

    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Load a workload's schema + data (once, before starting it).
    pub fn setup_workload(
        &self,
        workload: &dyn Workload,
        scale: f64,
        seed: u64,
    ) -> bp_sql::Result<LoadSummary> {
        let mut conn = Connection::open(&self.db);
        workload.setup(&mut conn, scale, &mut Rng::new(seed))
    }

    /// Start a workload as a new tenant; benchmarks can be added while
    /// others are running (the API's add-benchmark-on-the-fly).
    pub fn start_tenant(&mut self, name: &str, workload: Arc<dyn Workload>, cfg: RunConfig) -> usize {
        let handle = start(self.db.clone(), workload, cfg);
        self.tenants.push(Tenant { name: name.to_string(), handle });
        self.tenants.len() - 1
    }

    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    pub fn tenant(&self, idx: usize) -> Option<&Tenant> {
        self.tenants.get(idx)
    }

    /// Stop every tenant and wait for their threads.
    pub fn stop_all(self) -> Vec<(String, crate::controller::Controller)> {
        self.tenants
            .into_iter()
            .map(|t| {
                let name = t.name;
                let controller = t.handle.stop_and_join();
                (name, controller)
            })
            .collect()
    }

    /// Wait for all tenants to finish their scripts.
    pub fn join_all(self) -> Vec<(String, crate::controller::Controller)> {
        self.tenants
            .into_iter()
            .map(|t| (t.name, t.handle.join()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::{Phase, PhaseScript, Rate};
    use crate::workload::{BenchmarkClass, TransactionType, TxnOutcome};
    use bp_storage::{Personality, Value};

    /// Minimal workload whose table name is parameterized, so two tenants
    /// can coexist (or collide, when given the same name).
    struct KvWorkload {
        table: &'static str,
    }

    impl Workload for KvWorkload {
        fn name(&self) -> &'static str {
            "kv"
        }
        fn class(&self) -> BenchmarkClass {
            BenchmarkClass::FeatureTesting
        }
        fn domain(&self) -> &'static str {
            "Testing"
        }
        fn transaction_types(&self) -> Vec<TransactionType> {
            vec![
                TransactionType::new("Get", 50.0, true),
                TransactionType::new("Put", 50.0, false),
            ]
        }
        fn create_schema(&self, conn: &mut Connection) -> bp_sql::Result<()> {
            conn.execute_batch(&format!(
                "CREATE TABLE {} (k INT PRIMARY KEY, v INT);",
                self.table
            ))
        }
        fn load(&self, conn: &mut Connection, _scale: f64, _rng: &mut Rng) -> bp_sql::Result<LoadSummary> {
            for i in 0..20 {
                conn.execute(
                    &format!("INSERT INTO {} VALUES (?, 0)", self.table),
                    &[Value::Int(i)],
                )?;
            }
            Ok(LoadSummary { tables: 1, rows: 20 })
        }
        fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> bp_sql::Result<TxnOutcome> {
            let k = Value::Int(rng.int_range(0, 19));
            conn.begin()?;
            let r = if txn_idx == 0 {
                conn.query(&format!("SELECT v FROM {} WHERE k = ?", self.table), &[k])
                    .map(|_| ())
            } else {
                conn.execute(
                    &format!("UPDATE {} SET v = v + 1 WHERE k = ?", self.table),
                    &[k],
                )
                .map(|_| ())
            };
            match r {
                Ok(()) => {
                    conn.commit()?;
                    Ok(TxnOutcome::Committed)
                }
                Err(e) => {
                    if conn.in_transaction() {
                        let _ = conn.rollback();
                    }
                    Err(e)
                }
            }
        }
    }

    #[test]
    fn two_tenants_run_in_parallel() {
        let db = Database::new(Personality::test());
        let mut bed = Testbed::new(db);
        let w1: Arc<dyn Workload> = Arc::new(KvWorkload { table: "kv_a" });
        let w2: Arc<dyn Workload> = Arc::new(KvWorkload { table: "kv_b" });
        bed.setup_workload(w1.as_ref(), 1.0, 1).unwrap();
        bed.setup_workload(w2.as_ref(), 1.0, 2).unwrap();
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(150.0), 1.5)]),
            ..Default::default()
        };
        bed.start_tenant("alpha", w1, cfg.clone());
        bed.start_tenant("beta", w2, cfg);
        let results = bed.join_all();
        assert_eq!(results.len(), 2);
        for (name, c) in &results {
            let done = c.stats().total_completed();
            assert!(done > 100, "tenant {name} only completed {done}");
        }
    }

    #[test]
    fn tenant_added_on_the_fly() {
        let db = Database::new(Personality::test());
        let mut bed = Testbed::new(db);
        let w1: Arc<dyn Workload> = Arc::new(KvWorkload { table: "kv_a" });
        bed.setup_workload(w1.as_ref(), 1.0, 1).unwrap();
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(100.0), 2.0)]),
            ..Default::default()
        };
        bed.start_tenant("first", w1, cfg.clone());
        std::thread::sleep(std::time::Duration::from_millis(300));
        // Add the second benchmark while the first is running.
        let w2: Arc<dyn Workload> = Arc::new(KvWorkload { table: "kv_b" });
        bed.setup_workload(w2.as_ref(), 1.0, 2).unwrap();
        let cfg2 = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(100.0), 1.0)]),
            ..Default::default()
        };
        bed.start_tenant("second", w2, cfg2);
        let results = bed.join_all();
        assert!(results.iter().all(|(_, c)| c.stats().total_completed() > 0));
    }
}
