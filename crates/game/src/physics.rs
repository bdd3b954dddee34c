//! Game physics (§4.1): jumps and simulated gravity in throughput space.
//!
//! The player's input sets the *requested* throughput; the character's
//! height tracks only the *measured* throughput the DBMS actually delivers.
//! A jump raises the requested rate; without input, gravity decreases the
//! requested rate linearly until it reaches 0 tx/s and the character falls
//! to the floor.

use bp_util::clock::Micros;

/// Physics configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicsConfig {
    /// Requested-rate increase per jump (tx/s).
    pub jump_tps: f64,
    /// Linear gravity decay of the requested rate (tx/s per second).
    pub gravity_tps_per_s: f64,
    /// Maximum requestable rate (the top of the screen).
    pub max_tps: f64,
}

impl Default for PhysicsConfig {
    fn default() -> Self {
        PhysicsConfig { jump_tps: 120.0, gravity_tps_per_s: 180.0, max_tps: 2_000.0 }
    }
}

/// The character's control state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Character {
    /// Requested throughput (what the player asks the DBMS for).
    pub requested_tps: f64,
    /// Measured throughput (where the character actually is).
    pub measured_tps: f64,
    config: PhysicsConfig,
}

impl Character {
    pub fn new(config: PhysicsConfig) -> Character {
        Character { requested_tps: 0.0, measured_tps: 0.0, config }
    }

    pub fn config(&self) -> PhysicsConfig {
        self.config
    }

    /// Jump: request a higher throughput rate (§4.1 "A jump requests a
    /// higher throughput rate and makes the game character move upwards").
    pub fn jump(&mut self) {
        self.requested_tps = (self.requested_tps + self.config.jump_tps).min(self.config.max_tps);
    }

    /// Dive: explicitly request a lower rate (the "manual decrease" setup
    /// the demo mentions as an alternative to gravity).
    pub fn dive(&mut self) {
        self.requested_tps = (self.requested_tps - self.config.jump_tps).max(0.0);
    }

    /// Set an absolute requested rate (autopilot input).
    pub fn set_requested(&mut self, tps: f64) {
        self.requested_tps = tps.clamp(0.0, self.config.max_tps);
    }

    /// Apply gravity over `dt_us`: the requested throughput decreases
    /// linearly until reaching 0 tx/s.
    pub fn apply_gravity(&mut self, dt_us: Micros) {
        let dt_s = dt_us as f64 / 1_000_000.0;
        self.requested_tps = (self.requested_tps - self.config.gravity_tps_per_s * dt_s).max(0.0);
    }

    /// Record the measured throughput reported by the testbed.
    pub fn observe(&mut self, measured_tps: f64) {
        self.measured_tps = measured_tps.max(0.0);
    }

    /// Character height as a fraction of the screen (0 = floor, 1 = top).
    pub fn height_fraction(&self) -> f64 {
        (self.measured_tps / self.config.max_tps).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn character() -> Character {
        Character::new(PhysicsConfig { jump_tps: 100.0, gravity_tps_per_s: 200.0, max_tps: 1_000.0 })
    }

    #[test]
    fn jump_raises_requested_only() {
        let mut c = character();
        c.jump();
        assert_eq!(c.requested_tps, 100.0);
        assert_eq!(c.measured_tps, 0.0, "character moves only with measured tps");
        c.jump();
        assert_eq!(c.requested_tps, 200.0);
    }

    #[test]
    fn jump_capped_at_max() {
        let mut c = character();
        for _ in 0..50 {
            c.jump();
        }
        assert_eq!(c.requested_tps, 1_000.0);
    }

    #[test]
    fn gravity_decays_linearly_to_zero() {
        let mut c = character();
        c.set_requested(500.0);
        c.apply_gravity(1_000_000); // 1s at 200 tps/s
        assert!((c.requested_tps - 300.0).abs() < 1e-9);
        c.apply_gravity(2_000_000);
        assert_eq!(c.requested_tps, 0.0, "decays to 0 and stops");
    }

    #[test]
    fn dive_lowers_requested() {
        let mut c = character();
        c.set_requested(500.0);
        c.dive();
        assert_eq!(c.requested_tps, 400.0);
        c.set_requested(50.0);
        c.dive();
        assert_eq!(c.requested_tps, 0.0);
    }

    #[test]
    fn height_follows_measured() {
        let mut c = character();
        c.set_requested(900.0);
        c.observe(450.0);
        assert!((c.height_fraction() - 0.45).abs() < 1e-9);
    }

    #[test]
    fn fractional_gravity_steps() {
        let mut c = character();
        c.set_requested(100.0);
        for _ in 0..10 {
            c.apply_gravity(100_000); // 10 × 0.1s = 1s total
        }
        assert!((c.requested_tps - (100.0 - 200.0 * 1.0)).abs() < 1e-9 || c.requested_tps == 0.0);
        assert_eq!(c.requested_tps, 0.0);
    }
}
