//! The benchmark registry: Table 1 of the paper as code.

use std::sync::Arc;

use bp_core::{BenchmarkClass, Workload};
use bp_sql::StatementCatalog;

use crate::helpers::Statements;

/// One bundled benchmark: how to make one, and every statement it sends.
pub struct Benchmark {
    pub name: &'static str,
    new: fn() -> Arc<dyn Workload>,
    /// Its statement tables, in order (`chbenchmark`: `tpcc`'s, then its own).
    tables: &'static [&'static Statements],
}

fn new<W: Workload + Default + 'static>() -> Arc<dyn Workload> {
    Arc::new(W::default())
}

/// A row of [`BENCHMARKS`]: the module (which is the benchmark's name), its
/// workload type and, for a benchmark that runs another's transactions, the
/// module whose statement table comes before its own.
macro_rules! benchmark {
    ($module:ident :: $workload:ident $(, after $base:ident)?) => {
        Benchmark {
            name: stringify!($module),
            new: new::<crate::$module::$workload>,
            tables: &[$(crate::$base::STATEMENTS,)? crate::$module::STATEMENTS],
        }
    };
}

/// The bundled benchmarks, in Table 1 order.
pub const BENCHMARKS: [Benchmark; 15] = [
    benchmark!(auctionmark::AuctionMark),
    benchmark!(chbenchmark::ChBenchmark, after tpcc),
    benchmark!(seats::Seats),
    benchmark!(smallbank::SmallBank),
    benchmark!(tatp::Tatp),
    benchmark!(tpcc::Tpcc),
    benchmark!(voter::Voter),
    benchmark!(epinions::Epinions),
    benchmark!(linkbench::LinkBench),
    benchmark!(twitter::Twitter),
    benchmark!(wikipedia::Wikipedia),
    benchmark!(resourcestresser::ResourceStresser),
    benchmark!(ycsb::Ycsb),
    benchmark!(jpab::Jpab),
    benchmark!(sibench::SiBench),
];

impl Benchmark {
    fn by_name(name: &str) -> Option<&'static Benchmark> {
        BENCHMARKS.iter().find(|b| b.name.eq_ignore_ascii_case(name))
    }

    /// `(name, text)` of every statement, in declaration order.
    fn statements(&self) -> impl Iterator<Item = (&'static str, &'static str)> {
        self.tables.iter().copied().flatten().copied()
    }

    /// The dialect catalog: the statement tables under lower-case names.
    pub fn catalog(&self) -> StatementCatalog {
        let mut catalog = StatementCatalog::new();
        for (name, sql) in self.statements() {
            catalog.define(&name.to_ascii_lowercase(), sql);
        }
        catalog
    }
}

/// Instantiate every bundled benchmark, in Table 1 order.
pub fn all_workloads() -> Vec<Arc<dyn Workload>> {
    BENCHMARKS.iter().map(|b| (b.new)()).collect()
}

/// Instantiate one benchmark by name.
pub fn by_name(name: &str) -> Option<Arc<dyn Workload>> {
    Benchmark::by_name(name).map(|b| (b.new)())
}

/// The statement catalog of a benchmark (DDL + named DML, per dialect).
pub fn catalog_of(name: &str) -> Option<StatementCatalog> {
    Benchmark::by_name(name).map(Benchmark::catalog)
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    pub class: BenchmarkClass,
    pub benchmark: String,
    pub domain: String,
    pub transaction_types: usize,
}

/// Regenerate Table 1 (class / benchmark / application domain).
pub fn table1() -> Vec<Table1Row> {
    all_workloads()
        .iter()
        .map(|w| Table1Row {
            class: w.class(),
            benchmark: w.name().to_string(),
            domain: w.domain().to_string(),
            transaction_types: w.transaction_types().len(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<_> =
            all_workloads().iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 15);
    }

    #[test]
    fn class_counts_match_table1() {
        let rows = table1();
        let count = |c: BenchmarkClass| rows.iter().filter(|r| r.class == c).count();
        assert_eq!(count(BenchmarkClass::Transactional), 7);
        assert_eq!(count(BenchmarkClass::WebOriented), 4);
        assert_eq!(count(BenchmarkClass::FeatureTesting), 4);
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("tpcc").is_some());
        assert!(by_name("TPCC").is_some());
        assert!(by_name("nope").is_none());
    }

    /// What a benchmark declares is what it sends, in both directions: its
    /// loader and seeded rounds of every transaction type, twice over on
    /// one connection (the second pass replays the statement cache), send
    /// nothing the statement table lacks and leave no statement of it unsent.
    #[test]
    fn every_benchmark_sends_exactly_its_statement_table() {
        use crate::helpers::is_ddl;
        use bp_sql::Connection;
        use bp_storage::{Database, Personality};
        use bp_util::rng::Rng;
        use std::collections::BTreeSet;
        const ROUNDS: usize = 24;
        for b in &BENCHMARKS {
            let w = (b.new)();
            assert_eq!(w.name(), b.name, "a row's module is its benchmark's name");
            let (mut names, mut declared) = (BTreeSet::new(), BTreeSet::new());
            for (name, sql) in b.statements() {
                assert!(names.insert(name), "{} declares {name} twice", b.name);
                assert_eq!(name.starts_with("CREATE_"), is_ddl(sql), "{}: {name} = {sql}", b.name);
                if !is_ddl(sql) {
                    assert!(declared.insert(sql), "{}: {name} repeats a text: {sql}", b.name);
                }
            }
            assert_eq!(b.catalog().len(), names.len());

            let weights: f64 = w.default_weights().iter().sum();
            assert!((weights - 100.0).abs() < 1e-9, "{} weights sum to {weights}", b.name);

            let db = Database::new(Personality::test());
            let mut conn = Connection::open(&db);
            let mut rng = Rng::new(0xBEEF);
            let summary = w
                .setup(&mut conn, 0.1, &mut rng)
                .unwrap_or_else(|e| panic!("{} setup failed: {e}", b.name));
            assert!(summary.rows > 0, "{} loaded no rows", b.name);
            let tables = b.statements().filter(|(_, sql)| sql.starts_with("CREATE TABLE ")).count();
            assert_eq!(summary.tables, tables, "{} tables loaded", b.name);
            for pass in 0..2 {
                for idx in 0..w.transaction_types().len() {
                    for _ in 0..ROUNDS {
                        w.execute(idx, &mut conn, &mut rng).unwrap_or_else(|e| {
                            panic!("{} txn {idx} failed in pass {pass}: {e}", b.name)
                        });
                        assert!(!conn.in_transaction(), "{} txn {idx} left txn open", b.name);
                    }
                }
            }
            let sent: BTreeSet<&str> = conn.cached_statements().collect();
            let undeclared: Vec<_> = sent.difference(&declared).collect();
            assert!(undeclared.is_empty(), "{} sent what it does not declare: {undeclared:#?}", b.name);
            let unsent: Vec<_> = declared.difference(&sent).collect();
            assert!(unsent.is_empty(), "{} declares what nothing sent: {unsent:#?}", b.name);
        }
    }

    #[test]
    fn default_mixtures_valid() {
        for w in all_workloads() {
            let types = w.transaction_types();
            let m = bp_core::Mixture::default_of(&types);
            assert_eq!(m.len(), types.len());
        }
    }
}
