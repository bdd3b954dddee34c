//! The `Workload` abstraction: what a ported benchmark must provide.
//!
//! Mirrors OLTP-Bench's benchmark modules: a schema (DDL), a data loader
//! parameterized by scale factor, and a set of transaction types with
//! *transaction control code* (parameterized statements executed inside an
//! explicit transaction). `bp-workloads` implements this trait for the 15
//! benchmarks of Table 1.

use bp_sql::{Connection, Result as SqlResult};
use bp_util::rng::Rng;

/// Table 1 groups benchmarks into three classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkClass {
    Transactional,
    WebOriented,
    FeatureTesting,
}

impl BenchmarkClass {
    pub fn label(self) -> &'static str {
        match self {
            BenchmarkClass::Transactional => "Transactional",
            BenchmarkClass::WebOriented => "Web-Oriented",
            BenchmarkClass::FeatureTesting => "Feature Testing",
        }
    }
}

/// One transaction type of a benchmark (e.g. TPC-C NewOrder).
#[derive(Debug, Clone, PartialEq)]
pub struct TransactionType {
    pub name: &'static str,
    /// Weight in the benchmark's default mixture.
    pub default_weight: f64,
    /// Whether the transaction only reads (drives the read-only preset).
    pub read_only: bool,
}

impl TransactionType {
    pub fn new(name: &'static str, default_weight: f64, read_only: bool) -> TransactionType {
        TransactionType { name, default_weight, read_only }
    }
}

/// What the loader produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadSummary {
    pub tables: usize,
    pub rows: u64,
}

/// Outcome of one transaction-control-code invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Committed successfully.
    Committed,
    /// The benchmark's own logic aborted (e.g. TPC-C's 1% NewOrder
    /// rollback); counted separately from lock-conflict aborts.
    UserAborted,
}

/// A benchmark that can be driven by the testbed.
pub trait Workload: Send + Sync {
    /// Short identifier ("tpcc", "ycsb", ...).
    fn name(&self) -> &'static str;

    /// Table 1 class.
    fn class(&self) -> BenchmarkClass;

    /// Table 1 application domain.
    fn domain(&self) -> &'static str;

    /// Transaction types; index order is the mixture's weight order.
    fn transaction_types(&self) -> Vec<TransactionType>;

    /// Create tables and indexes.
    fn create_schema(&self, conn: &mut Connection) -> SqlResult<()>;

    /// Populate with data; `scale` scales the database size.
    fn load(&self, conn: &mut Connection, scale: f64, rng: &mut Rng) -> SqlResult<LoadSummary>;

    /// Execute one transaction of type `txn_idx` (index into
    /// `transaction_types`). Must run inside its own transaction and leave
    /// the connection idle (committed or rolled back) on return.
    fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome>;

    /// Convenience: full setup (schema + load).
    fn setup(&self, conn: &mut Connection, scale: f64, rng: &mut Rng) -> SqlResult<LoadSummary> {
        self.create_schema(conn)?;
        self.load(conn, scale, rng)
    }

    /// Default mixture weights in `transaction_types` order.
    fn default_weights(&self) -> Vec<f64> {
        self.transaction_types().iter().map(|t| t.default_weight).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_labels() {
        assert_eq!(BenchmarkClass::Transactional.label(), "Transactional");
        assert_eq!(BenchmarkClass::WebOriented.label(), "Web-Oriented");
        assert_eq!(BenchmarkClass::FeatureTesting.label(), "Feature Testing");
    }
}
