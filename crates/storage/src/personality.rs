//! DBMS personalities: the one definition of each DBMS the testbed emulates.
//!
//! The demo lets the player pick among several real DBMSs (Fig. 2b shows
//! MySQL, PostgreSQL, Apache Derby and Oracle); each system responds
//! differently to the same requested load. We cannot ship those engines, so
//! a personality parameterizes our embedded engine to *behave* like a
//! distinct system: per-operation service costs, commit/fsync cost with or
//! without group commit, IO cost on buffer-pool misses, lock granularity and
//! timeout, and execution jitter. A session charges each cost by sleeping on
//! its database's clock: a wall clock spins or sleeps for it in a live run,
//! and the game's stage (`bp_core::VirtualRun`) reads what a `SimClock`
//! accumulated as the service time. The parameter values are synthetic but
//! the mechanisms (and therefore the relative behaviours the game exposes)
//! are real.

use std::time::Duration;

use bp_util::rng::Rng;

/// A named parameter set emulating one DBMS.
#[derive(Debug, Clone)]
pub struct Personality {
    pub name: &'static str,
    /// Point-read service cost (µs).
    pub read_us: f64,
    /// In-place update service cost (µs).
    pub write_us: f64,
    /// Insert service cost (µs).
    pub insert_us: f64,
    /// Per-row cost during scans (µs).
    pub scan_row_us: f64,
    /// Commit (fsync) cost (µs).
    pub commit_us: f64,
    /// Commits within this window share one fsync (0 = no group commit).
    pub group_commit_window_us: u64,
    /// Cost of one simulated page IO on a buffer miss (µs).
    pub io_us: f64,
    /// Execution jitter as a ± fraction of each cost.
    pub jitter: f64,
    /// Lock wait timeout.
    pub lock_timeout: Duration,
    /// Row-level locking; when `false`, writers take table-level X locks
    /// (coarse-grained engines serialize all writes to a table).
    pub row_locking: bool,
    /// Buffer pool capacity in pages.
    pub buffer_pages: usize,
    /// Rows per simulated page.
    pub rows_per_page: u64,
    /// WAL write cost per KiB (µs).
    pub wal_us_per_kb: f64,
}

impl Personality {
    /// Fast, row-locking engine with aggressive group commit.
    pub fn mysql_like() -> Personality {
        Personality {
            name: "mysql",
            read_us: 8.0,
            write_us: 20.0,
            insert_us: 16.0,
            scan_row_us: 0.8,
            commit_us: 150.0,
            group_commit_window_us: 1_000,
            io_us: 80.0,
            jitter: 0.15,
            lock_timeout: Duration::from_millis(300),
            row_locking: true,
            buffer_pages: 16_384,
            rows_per_page: 64,
            wal_us_per_kb: 6.0,
        }
    }

    /// Slightly heavier per-op cost, larger commit, wider group window.
    pub fn postgres_like() -> Personality {
        Personality {
            name: "postgres",
            read_us: 10.0,
            write_us: 26.0,
            insert_us: 20.0,
            scan_row_us: 0.6,
            commit_us: 220.0,
            group_commit_window_us: 2_000,
            io_us: 90.0,
            jitter: 0.10,
            lock_timeout: Duration::from_millis(400),
            row_locking: true,
            buffer_pages: 16_384,
            rows_per_page: 64,
            wal_us_per_kb: 7.0,
        }
    }

    /// Coarse-grained locking, no group commit, slow ops: the "hard stage".
    pub fn derby_like() -> Personality {
        Personality {
            name: "derby",
            read_us: 35.0,
            write_us: 80.0,
            insert_us: 60.0,
            scan_row_us: 2.5,
            commit_us: 500.0,
            group_commit_window_us: 0,
            io_us: 150.0,
            jitter: 0.35,
            lock_timeout: Duration::from_millis(150),
            row_locking: false,
            buffer_pages: 4_096,
            rows_per_page: 64,
            wal_us_per_kb: 15.0,
        }
    }

    /// Fastest point ops, very stable (low jitter): the "easy stage".
    pub fn oracle_like() -> Personality {
        Personality {
            name: "oracle",
            read_us: 6.0,
            write_us: 15.0,
            insert_us: 12.0,
            scan_row_us: 0.5,
            commit_us: 120.0,
            group_commit_window_us: 1_500,
            io_us: 70.0,
            jitter: 0.05,
            lock_timeout: Duration::from_millis(500),
            row_locking: true,
            buffer_pages: 32_768,
            rows_per_page: 64,
            wal_us_per_kb: 5.0,
        }
    }

    /// Zero-cost personality for unit tests: its operations cost nothing,
    /// so a session sleeps on the clock only for an injected latency spike;
    /// row locks, generous timeout. Contention behaviour is still real (locks are taken).
    pub fn test() -> Personality {
        Personality {
            name: "test",
            read_us: 0.0,
            write_us: 0.0,
            insert_us: 0.0,
            scan_row_us: 0.0,
            commit_us: 0.0,
            group_commit_window_us: 0,
            io_us: 0.0,
            jitter: 0.0,
            lock_timeout: Duration::from_millis(250),
            row_locking: true,
            buffer_pages: 1_024,
            rows_per_page: 64,
            wal_us_per_kb: 0.0,
        }
    }

    /// Look up a personality by name (used by configs and the API).
    pub fn by_name(name: &str) -> Option<Personality> {
        match name.to_ascii_lowercase().as_str() {
            "mysql" => Some(Personality::mysql_like()),
            "postgres" | "postgresql" => Some(Personality::postgres_like()),
            "derby" => Some(Personality::derby_like()),
            "oracle" => Some(Personality::oracle_like()),
            "test" => Some(Personality::test()),
            _ => None,
        }
    }

    /// All demo personalities: the Fig. 2b selection screen and the game's
    /// stages.
    pub fn all() -> Vec<Personality> {
        vec![
            Personality::mysql_like(),
            Personality::postgres_like(),
            Personality::derby_like(),
            Personality::oracle_like(),
        ]
    }

    /// Apply jitter to a base cost, returning the effective cost in µs.
    pub fn jittered(&self, base_us: f64, rng: &mut Rng) -> f64 {
        if self.jitter <= 0.0 || base_us <= 0.0 {
            return base_us.max(0.0);
        }
        let factor = 1.0 + rng.f64_range(-self.jitter, self.jitter);
        (base_us * factor).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        assert_eq!(Personality::by_name("MySQL").unwrap().name, "mysql");
        assert_eq!(Personality::by_name("postgresql").unwrap().name, "postgres");
        assert!(Personality::by_name("sqlserver").is_none());
    }

    #[test]
    fn all_personalities_distinct() {
        let all = Personality::all();
        assert_eq!(all.len(), 4);
        let names: std::collections::HashSet<_> = all.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn jitter_bounds() {
        let p = Personality::mysql_like();
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            let c = p.jittered(100.0, &mut rng);
            assert!((85.0 - 1e-9..=115.0 + 1e-9).contains(&c), "cost {c}");
        }
    }

    #[test]
    fn zero_jitter_identity() {
        let p = Personality::test();
        let mut rng = Rng::new(2);
        assert_eq!(p.jittered(42.0, &mut rng), 42.0);
    }

    #[test]
    fn derby_is_coarse_grained() {
        assert!(!Personality::derby_like().row_locking);
        assert!(Personality::mysql_like().row_locking);
    }
}
