//! The benchmark registry: Table 1 of the paper as code.

use std::sync::Arc;

use bp_core::{BenchmarkClass, Workload};
use bp_sql::StatementCatalog;

/// Instantiate every bundled benchmark, in Table 1 order.
pub fn all_workloads() -> Vec<Arc<dyn Workload>> {
    vec![
        Arc::new(crate::auctionmark::AuctionMark::new()),
        Arc::new(crate::chbenchmark::ChBenchmark::new()),
        Arc::new(crate::seats::Seats::new()),
        Arc::new(crate::smallbank::SmallBank::new()),
        Arc::new(crate::tatp::Tatp::new()),
        Arc::new(crate::tpcc::Tpcc::new()),
        Arc::new(crate::voter::Voter::new()),
        Arc::new(crate::epinions::Epinions::new()),
        Arc::new(crate::linkbench::LinkBench::new()),
        Arc::new(crate::twitter::Twitter::new()),
        Arc::new(crate::wikipedia::Wikipedia::new()),
        Arc::new(crate::resourcestresser::ResourceStresser::new()),
        Arc::new(crate::ycsb::Ycsb::new()),
        Arc::new(crate::jpab::Jpab::new()),
        Arc::new(crate::sibench::SiBench::new()),
    ]
}

/// Instantiate one benchmark by name.
pub fn by_name(name: &str) -> Option<Arc<dyn Workload>> {
    let name = name.to_ascii_lowercase();
    all_workloads().into_iter().find(|w| w.name() == name)
}

/// The statement catalog of a benchmark (DDL + named DML, per dialect).
pub fn catalog_of(name: &str) -> Option<StatementCatalog> {
    match name.to_ascii_lowercase().as_str() {
        "auctionmark" => Some(crate::auctionmark::catalog()),
        "chbenchmark" => Some(crate::chbenchmark::catalog()),
        "seats" => Some(crate::seats::catalog()),
        "smallbank" => Some(crate::smallbank::catalog()),
        "tatp" => Some(crate::tatp::catalog()),
        "tpcc" => Some(crate::tpcc::catalog()),
        "voter" => Some(crate::voter::catalog()),
        "epinions" => Some(crate::epinions::catalog()),
        "linkbench" => Some(crate::linkbench::catalog()),
        "twitter" => Some(crate::twitter::catalog()),
        "wikipedia" => Some(crate::wikipedia::catalog()),
        "resourcestresser" => Some(crate::resourcestresser::catalog()),
        "ycsb" => Some(crate::ycsb::catalog()),
        "jpab" => Some(crate::jpab::catalog()),
        "sibench" => Some(crate::sibench::catalog()),
        _ => None,
    }
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
    fn fifteen_benchmarks() {
        assert_eq!(all_workloads().len(), 15);
    }

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

    #[test]
    fn every_benchmark_has_a_catalog() {
        for w in all_workloads() {
            let cat = catalog_of(w.name()).unwrap_or_else(|| panic!("{} missing catalog", w.name()));
            assert!(!cat.is_empty(), "{} catalog empty", w.name());
        }
    }

    #[test]
    fn every_benchmark_loads_and_runs_every_transaction() {
        use bp_sql::Connection;
        use bp_storage::{Database, Personality};
        use bp_util::rng::Rng;
        for w in all_workloads() {
            let db = Database::new(Personality::test());
            let mut conn = Connection::open(&db);
            let mut rng = Rng::new(0xBEEF);
            let summary = w
                .setup(&mut conn, 0.1, &mut rng)
                .unwrap_or_else(|e| panic!("{} setup failed: {e}", w.name()));
            assert!(summary.rows > 0, "{} loaded no rows", w.name());
            // Two passes on one connection: in the second, every statement
            // is replayed from the connection's statement cache.
            for pass in 0..2 {
                for idx in 0..w.transaction_types().len() {
                    for _ in 0..3 {
                        w.execute(idx, &mut conn, &mut rng).unwrap_or_else(|e| {
                            panic!("{} txn {idx} failed in pass {pass}: {e}", w.name())
                        });
                        assert!(!conn.in_transaction(), "{} txn {idx} left txn open", w.name());
                    }
                }
            }
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
