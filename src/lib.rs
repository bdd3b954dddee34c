//! Facade crate re-exporting the whole BenchPress workspace.
pub use bp_api as api;
pub use bp_chaos as chaos;
pub use bp_cluster as cluster;
pub use bp_core as core;
pub use bp_game as game;
pub use bp_obs as obs;
pub use bp_replay as replay;
pub use bp_sql as sql;
pub use bp_storage as storage;
pub use bp_util as util;
pub use bp_workloads as workloads;
