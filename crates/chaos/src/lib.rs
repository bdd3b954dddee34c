//! Deterministic fault injection and client-side resilience.
//!
//! The paper's thesis is that a testbed must be able to *change conditions
//! at runtime* and observe how the system reacts. Rate and mixture cover
//! the benign axis; this crate adds adversity:
//!
//! * [`FaultPlan`] — a named, seeded schedule of fault windows (fsync
//!   stalls, latency spikes, transient errors, deadlock storms, per-tenant
//!   blackouts, buffer-pool thrash). Every injection decision is a pure
//!   function of `(plan seed, fault kind, probe index)`, so the same seed
//!   reproduces the identical fault sequence run after run.
//! * [`ChaosController`] — the arm/disarm gate the storage engine probes
//!   on its hot paths. Disarmed, a probe is one relaxed atomic load
//!   (same design as `bp-obs`'s off-mode span gate); armed, it evaluates
//!   the active plan and counts every injected fault per kind.
//! * [`CircuitBreaker`] — the client-side half: a per-tenant admission
//!   controller that sheds load (fast-fail, counted as `shed`, never
//!   `failed`) when the failure rate crosses a threshold, then half-opens
//!   to probe recovery.
//!
//! Both halves export their counters as `bp_chaos_*` / `bp_resilience_*`
//! metrics through `bp-obs`'s [`MetricsSource`](bp_obs::MetricsSource).
//! This crate depends only on `bp-util` and `bp-obs`, so `bp-storage`,
//! `bp-core` and `bp-api` can all depend on it without cycles.

pub mod breaker;
pub mod inject;
pub mod plan;

pub use breaker::{Admission, BreakerState, CircuitBreaker};
pub use inject::{ChaosController, ChaosStatus};
pub use plan::{FaultKind, FaultPlan, FaultWindow};
