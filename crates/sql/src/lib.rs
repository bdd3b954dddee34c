//! `bp-sql`: the SQL front end over the embedded storage engine.
//!
//! Provides the JDBC-analogue [`Connection`] used by the benchmark
//! transaction control code, a recursive-descent parser for the SQL subset
//! the 15 bundled benchmarks need, a lightweight access-path planner, and
//! the *SQL-dialect management* layer (human-written per-DBMS variants,
//! §2.1 of the paper).

pub mod ast;
pub mod connection;
pub mod dialect;
pub mod error;
pub mod exec;
pub mod expr;
pub mod parser;
mod plan;
pub mod token;

pub use connection::{Connection, Prepared};
pub use dialect::{Dialect, StatementCatalog};
pub use error::{Result, SqlError};
pub use exec::{ResultSet, StatementResult};
pub use parser::parse;
