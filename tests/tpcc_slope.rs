//! TPC-C must not slow down, or cost more memory per row than it has to, as
//! its tables grow — judged by counts, not clocks.
//!
//! StockLevel asks for the order lines of a district's last twenty orders.
//! Its range path reads those and the warehouse's stock; a prefix path would
//! read every order line the district ever got, more with every NewOrder.
//!
//! An `order_line` row is what a run adds most of. Its cost is measured by
//! copying the table a run has grown, in the order it grew, into an empty one
//! under a counting allocator: the row, its slot and its primary-key entry.
//!
//! The counting allocator counts per thread, so the test harness's threads do
//! not show in the figure.

#[path = "support/counting.rs"]
mod counting;

use std::cell::Cell;

use bp_core::Workload;
use bp_sql::Connection;
use bp_storage::{Database, Personality, Table};
use bp_util::rng::{Discrete, Rng};
use bp_workloads::tpcc::Tpcc;
use counting::LIVE;

const STOCK_LEVEL: usize = 4;
const THIRD: usize = 4_000;

#[test]
fn stock_level_reads_a_window_and_an_order_line_costs_what_it_holds() {
    let tpcc = Tpcc::new();
    let db = Database::new(Personality::test());
    let mut conn = Connection::open(&db);
    let mut rng = Rng::new(0x51_0BE);
    tpcc.setup(&mut conn, 2.0, &mut rng).unwrap();
    let mix = Discrete::new(&tpcc.default_weights());

    // Rows read per StockLevel, third by third.
    let mut thirds = Vec::new();
    for _ in 0..3 {
        let (mut calls, mut read) = (0u64, 0u64);
        for _ in 0..THIRD {
            let txn = mix.sample(&mut rng);
            let before = db.metrics().snapshot().rows_read;
            tpcc.execute(txn, &mut conn, &mut rng).unwrap();
            if txn == STOCK_LEVEL {
                calls += 1;
                read += db.metrics().snapshot().rows_read - before;
            }
        }
        assert!(calls > 100, "{calls} StockLevel calls in a third");
        thirds.push(read as f64 / calls as f64);
    }
    let (first, last) = (thirds[0], thirds[2]);
    assert!(last <= 1.05 * first, "rows read per StockLevel grew: {thirds:?}");
    assert!(last <= 450.0, "rows read per StockLevel: {thirds:?}");

    // What the order lines of that run cost to hold.
    let grown = db.table("order_line").unwrap();
    assert!(grown.len() > 50_000, "{} order lines", grown.len());
    let copy = Table::new(0, grown.schema.clone());
    let before = LIVE.with(Cell::get);
    for (_, row) in grown.scan() {
        copy.insert(row).unwrap();
    }
    let per_row = (LIVE.with(Cell::get) - before) as f64 / copy.len() as f64;
    assert_eq!(copy.len(), grown.len());
    println!("rows read per StockLevel, by third: {thirds:.0?}; {per_row:.0} live bytes per order_line row");
    assert!(per_row <= 330.0, "{per_row:.0} live bytes per order_line row");
}
