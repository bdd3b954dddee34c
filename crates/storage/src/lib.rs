//! `bp-storage`: the embedded transactional storage engine that stands in
//! for the real DBMSs (MySQL, PostgreSQL, Apache Derby, Oracle) the
//! BenchPress demo runs against.
//!
//! The engine provides real concurrency semantics — multigranularity strict
//! two-phase locking with wait-die deadlock avoidance, undo-log rollback, a
//! simulated WAL with group commit and a CLOCK buffer pool — plus a
//! [`personality::Personality`] cost model that makes different "DBMS
//! stages" respond differently to the same requested load, which is the
//! behaviour the game exposes to players.

pub mod bufferpool;
pub mod engine;
pub mod error;
pub mod key;
pub mod lock;
pub mod metrics;
pub mod personality;
pub mod recovery;
pub mod schema;
pub mod table;
pub mod value;
pub mod wal;

pub use engine::{Database, Session};
pub use error::{Result, StorageError};
pub use key::Key;
pub use lock::{LockManager, LockMode, LockTarget, TxnId};
pub use metrics::{MetricsSnapshot, ServerMetrics};
pub use personality::Personality;
pub use recovery::{
    CheckpointStats, CrashPoint, RecoveryConfig, RecoveryReport, RecoveryStatus,
};
pub use schema::{Column, IndexDef, TableSchema};
pub use table::{RangeCursor, RowId, Table};
pub use value::{DataType, Row, SharedRow, Value};
