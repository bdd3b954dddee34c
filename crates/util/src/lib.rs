//! `bp-util`: shared substrate for the BenchPress / OLTP-Bench reproduction.
//!
//! This crate contains the dependency-free building blocks the rest of the
//! workspace is made of:
//!
//! - [`rng`]: deterministic PRNG plus the workload distributions
//!   (uniform, zipfian, scrambled-zipfian, exponential, normal, TPC-C NURand,
//!   weighted discrete mixtures);
//! - [`histogram`]: HDR-style log-linear latency histograms;
//! - [`timeseries`]: per-second counts and summary
//!   statistics;
//! - [`clock`]: the wall/virtual clock abstraction that lets the same
//!   workload-control logic run in real time or in deterministic simulation;
//! - [`periodic`]: the one background ticker — every periodic thread in
//!   util/obs/core/cluster is a [`Periodic`], paced and stopped here;
//! - [`ring`]: the one bounded flight-recorder ring;
//! - [`hash`]: the one fast hasher, [`Mix`](hash::Mix), that keys every map
//!   the storage engine and the SQL layer build over their own keys;
//! - [`sync`]: std-only `Mutex`/`RwLock`/`Condvar` wrappers with a
//!   `parking_lot`-style call-site API (guards returned directly, poison
//!   ignored) so the workspace builds with zero external dependencies;
//! - [`artifact`]: the reader/writer skeleton of the line-oriented versioned
//!   text artifacts (`#bp-trace`, `#bp-replay`, `#bp-report`);
//! - [`json`]: the JSON value model used by the control API;
//! - [`xml`]: the `config.xml` parser for OLTP-Bench style workload files;
//! - [`text`]: synthetic text generators for benchmark data loaders.

pub mod artifact;
pub mod clock;
pub mod hash;
pub mod histogram;
pub mod json;
pub mod periodic;
pub mod ring;
pub mod rng;
pub mod sync;
pub mod text;
pub mod timeseries;
pub mod xml;

pub use clock::{Clock, Micros, SharedClock, SimClock, WallClock, MICROS_PER_SEC};
pub use histogram::Histogram;
pub use json::Json;
pub use periodic::Periodic;
pub use rng::{Discrete, NuRand, Rng, ScrambledZipf, Zipf};
pub use timeseries::{Summary, TimeSeries};
pub use xml::XmlNode;
