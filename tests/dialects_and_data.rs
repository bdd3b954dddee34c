//! E10 + loader integrity across the whole Table 1 suite.

use benchpress::sql::{parse, Connection, Dialect};
use benchpress::storage::{Database, Personality};
use benchpress::util::rng::Rng;
use benchpress::workloads::BENCHMARKS;

/// Every statement of every benchmark — each catalog is the benchmark's
/// statement table — renders in all four dialects and parses back through
/// the front end: DML to the statement the canonical text is. (E10's
/// criterion; `harness dialects` checks it on the release build.)
#[test]
fn all_catalogs_render_in_all_dialects() {
    let mut total = 0;
    for b in &BENCHMARKS {
        let cat = b.catalog();
        for name in cat.declared() {
            let text = cat.canonical(name).unwrap();
            let canonical = parse(text).unwrap_or_else(|e| panic!("{}/{name}: {e}\n{text}", b.name));
            // `perf/` and the DDL test below tell schema from DML by this prefix.
            assert_eq!(name.starts_with("create_"), !canonical.is_dml(), "{}/{name}", b.name);
            for d in Dialect::all() {
                let sql = cat
                    .resolve(name, d)
                    .unwrap_or_else(|| panic!("{}/{name} missing for {d:?}", b.name));
                let back = parse(&sql).unwrap_or_else(|e| panic!("{}/{name}/{d:?}: {e}\n{sql}", b.name));
                if back.is_dml() {
                    assert_eq!(back, canonical, "{}/{name}/{d:?}: {sql}", b.name);
                }
                total += 1;
            }
        }
    }
    assert!(total > 1000, "only {total} renderings checked");
}

/// Dialect-specific DDL actually executes: build each benchmark's schema
/// from the *rendered* MySQL and Postgres DDL texts, in declaration order.
#[test]
fn rendered_ddl_executes_on_engine() {
    for dialect in [Dialect::MySql, Dialect::Postgres] {
        for b in &BENCHMARKS {
            let cat = b.catalog();
            let db = Database::new(Personality::test());
            let mut conn = Connection::open(&db);
            for name in cat.declared().filter(|n| n.starts_with("create_")) {
                let sql = cat.resolve(name, dialect).unwrap();
                conn.execute(&sql, &[])
                    .unwrap_or_else(|e| panic!("{} under {dialect:?}: {e}\n{sql}", b.name));
            }
        }
    }
}

/// Loaders are deterministic: same seed, same row counts; different scale,
/// different sizes.
#[test]
fn loaders_deterministic_and_scale() {
    for name in ["ycsb", "smallbank", "twitter"] {
        let load = |scale: f64, seed: u64| {
            let db = Database::new(Personality::test());
            let w = benchpress::workloads::by_name(name).unwrap();
            let mut conn = Connection::open(&db);
            w.setup(&mut conn, scale, &mut Rng::new(seed)).unwrap().rows
        };
        assert_eq!(load(0.2, 1), load(0.2, 1), "{name} loader not deterministic");
        assert!(load(0.4, 1) > load(0.1, 1), "{name} does not scale");
    }
}

/// Scale factor changes the working set the workload actually touches.
#[test]
fn working_set_scales_with_database() {
    let db_small = Database::new(Personality::test());
    let db_large = Database::new(Personality::test());
    let w = benchpress::workloads::by_name("ycsb").unwrap();
    let mut c1 = Connection::open(&db_small);
    let mut c2 = Connection::open(&db_large);
    let small = w.setup(&mut c1, 0.05, &mut Rng::new(9)).unwrap();
    // A fresh workload instance is required per database (it captures the
    // record count), so re-create it.
    let w2 = benchpress::workloads::by_name("ycsb").unwrap();
    let large = w2.setup(&mut c2, 1.0, &mut Rng::new(9)).unwrap();
    assert!(large.rows >= small.rows * 10);
}
