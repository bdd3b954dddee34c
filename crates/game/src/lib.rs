//! `bp-game`: the BenchPress game (§4 of the paper).
//!
//! "BenchPress is a game that allows users to control the behavior of
//! OLTP-Bench through its API." The character's height is the *measured*
//! throughput of the target DBMS; jumping requests a higher rate; gravity
//! decays the requested rate linearly to zero; obstacles are expected-
//! throughput ranges over time windows; crashing halts the benchmark and
//! resets the database.
//!
//! Modules: [`challenge`] (Steps / Sinusoidal / Peak / Tunnel courses, plus
//! XML-loaded custom ones), [`physics`] (jump + gravity), [`game`] (the
//! state machine with pause-to-change-mixture), [`session`] (backends: the
//! driver in virtual time or the live control API; two-player
//! multi-tenancy), [`render`] (ASCII frames).

pub mod challenge;
pub mod game;
pub mod physics;
pub mod render;
pub mod session;

pub use challenge::{ChallengeShape, Course, Obstacle};
pub use game::{Game, GameEvent, Input, Screen};
pub use physics::{Character, PhysicsConfig};
pub use render::render;
pub use session::{chase_center_policy, ApiBackend, GameBackend, GameSession, SimBackend, TwoPlayerSession};
