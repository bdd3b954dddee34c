//! TPC-C must not slow down, or cost more memory per row than it has to, as
//! its tables grow — judged by counts, not clocks.
//!
//! StockLevel asks for the order lines of a district's last twenty orders.
//! Its range path reads those and the warehouse's stock; a prefix path would
//! read every order line the district ever got, more with every NewOrder.
//!
//! Delivery asks for each district's oldest undelivered order, `ORDER BY
//! no_o_id LIMIT 1` over a primary key that ends in `no_o_id`: the first
//! entry of the range. A fetch that reads the range to its end reads every
//! undelivered order there is, more with every NewOrder that outruns it.
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

const DELIVERY: usize = 3;
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

    // Rows read per StockLevel and per Delivery, third by third.
    let (mut thirds, mut delivery_thirds) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        // Calls and rows read, of StockLevel and of Delivery.
        let mut counts = [(0u64, 0u64); 2];
        for _ in 0..THIRD {
            let txn = mix.sample(&mut rng);
            let before = db.metrics().snapshot().rows_read;
            tpcc.execute(txn, &mut conn, &mut rng).unwrap();
            if let Some(at) = [STOCK_LEVEL, DELIVERY].iter().position(|t| *t == txn) {
                counts[at].0 += 1;
                counts[at].1 += db.metrics().snapshot().rows_read - before;
            }
        }
        let [stock_level, delivery] = counts.map(|(calls, read)| {
            assert!(calls > 100, "{calls} calls in a third");
            read as f64 / calls as f64
        });
        thirds.push(stock_level);
        delivery_thirds.push(delivery);
    }
    let (first, last) = (thirds[0], thirds[2]);
    assert!(last <= 1.05 * first, "rows read per StockLevel grew: {thirds:?}");
    assert!(last <= 450.0, "rows read per StockLevel: {thirds:?}");
    // Ten districts, each: the oldest new order, its order, its ten or so
    // lines, its customer. With the whole range read: 237, 319, 353.
    let (first, last) = (delivery_thirds[0], delivery_thirds[2]);
    assert!(last <= 1.05 * first, "rows read per Delivery grew: {delivery_thirds:?}");
    assert!(last <= 160.0, "rows read per Delivery: {delivery_thirds:?}");

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
    println!(
        "rows read by third, per StockLevel: {thirds:.0?}, per Delivery: {delivery_thirds:.0?}; \
         {per_row:.0} live bytes per order_line row"
    );
    assert!(per_row <= 330.0, "{per_row:.0} live bytes per order_line row");
}
