//! `bp-workloads`: the 15 benchmarks bundled with the testbed (Table 1 of
//! the paper), each implemented as transaction control code over the SQL
//! connection layer. A benchmark's SQL is one `statements!` table in its
//! module: the control code sends its constants, its schema is created from
//! it and it is the benchmark's catalog for the SQL-dialect management layer.

pub mod auctionmark;
pub mod chbenchmark;
pub mod epinions;
pub mod helpers;
pub mod jpab;
pub mod linkbench;
pub mod registry;
pub mod resourcestresser;
pub mod seats;
pub mod sibench;
pub mod smallbank;
pub mod tatp;
pub mod tpcc;
pub mod twitter;
pub mod voter;
pub mod wikipedia;
pub mod ycsb;

pub use registry::{all_workloads, by_name, catalog_of, table1, Benchmark, Table1Row, BENCHMARKS};
