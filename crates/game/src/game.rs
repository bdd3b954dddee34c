//! The BenchPress game state machine (§4, Fig. 2).
//!
//! A game starts with its benchmark (the character) and DBMS (the stage)
//! chosen — the menus of Fig. 2a/2b are the caller's arguments to
//! [`Game::new`]. Screens: play through the obstacle course, optionally
//! pause to change the workload mixture (Fig. 2d), crash (halting the
//! benchmark and resetting the database) or win.

use bp_core::MixturePreset;
use bp_util::clock::Micros;

use crate::challenge::Course;
use crate::physics::{Character, PhysicsConfig};

/// Player input, one per tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Input {
    None,
    Jump,
    Dive,
    /// Pause and open the mixture dialog.
    Pause,
    /// Resume play (closing the dialog).
    Resume,
    /// While paused: pick a preset mixture.
    SelectPreset(MixturePreset),
    /// While paused: fully custom weights.
    SelectCustomMixture,
}

/// Game screens (Fig. 2c–2d).
#[derive(Debug, Clone, PartialEq)]
pub enum Screen {
    Playing,
    /// Mixture dialog open; the benchmark is paused (workers blocked).
    Paused,
    Crashed { at_us: Micros, obstacle_center: f64 },
    Won,
}

/// Events emitted by a tick, for the embedding session to act on.
#[derive(Debug, Clone, PartialEq)]
pub enum GameEvent {
    /// The benchmark must be paused (block all workers).
    PauseBenchmark,
    /// The benchmark must resume.
    ResumeBenchmark,
    /// Apply this preset mixture.
    ApplyPreset(MixturePreset),
    /// Game over: halt the benchmark and reset the database (§4.1.1).
    HaltAndReset,
    /// Course completed.
    Victory,
}

/// The core game: pure state, no IO.
#[derive(Debug, Clone)]
pub struct Game {
    pub benchmark: String,
    pub dbms: String,
    pub course: Course,
    pub character: Character,
    screen: Screen,
    /// Elapsed play time (pauses excluded), µs.
    t_us: Micros,
    score: u64,
    obstacles_cleared: usize,
    last_obstacle_idx: Option<usize>,
}

impl Game {
    pub fn new(benchmark: &str, dbms: &str, course: Course, physics: PhysicsConfig) -> Game {
        Game {
            benchmark: benchmark.to_string(),
            dbms: dbms.to_string(),
            course,
            character: Character::new(physics),
            screen: Screen::Playing,
            t_us: 0,
            score: 0,
            obstacles_cleared: 0,
            last_obstacle_idx: None,
        }
    }

    pub fn screen(&self) -> &Screen {
        &self.screen
    }

    pub fn elapsed_us(&self) -> Micros {
        self.t_us
    }

    pub fn score(&self) -> u64 {
        self.score
    }

    pub fn obstacles_cleared(&self) -> usize {
        self.obstacles_cleared
    }

    pub fn is_over(&self) -> bool {
        matches!(self.screen, Screen::Crashed { .. } | Screen::Won)
    }

    /// Requested rate the testbed should be driven at right now.
    pub fn requested_tps(&self) -> f64 {
        if self.screen == Screen::Paused {
            0.0
        } else {
            self.character.requested_tps
        }
    }

    /// Advance the game by `dt_us`, given the measured throughput reported
    /// by the testbed and the player's input. Returns events for the
    /// embedding session.
    pub fn tick(&mut self, dt_us: Micros, measured_tps: f64, input: Input) -> Vec<GameEvent> {
        let mut events = Vec::new();
        match self.screen {
            Screen::Playing => {}
            Screen::Paused => {
                match input {
                    Input::Resume => {
                        self.screen = Screen::Playing;
                        events.push(GameEvent::ResumeBenchmark);
                    }
                    Input::SelectPreset(p) => {
                        events.push(GameEvent::ApplyPreset(p));
                    }
                    _ => {}
                }
                return events;
            }
            _ => return events, // over: nothing moves
        }

        // Input (ignored inside autopilot zones, §4.1.2).
        let autopilot = self.course.in_autopilot(self.t_us);
        if !autopilot {
            match input {
                Input::Jump => self.character.jump(),
                Input::Dive => self.character.dive(),
                Input::Pause => {
                    // "The user can pause at any moment in time to change
                    // the workload parameters" — OLTP-Bench temporarily
                    // blocks all threads.
                    self.screen = Screen::Paused;
                    events.push(GameEvent::PauseBenchmark);
                    return events;
                }
                _ => {}
            }
        }
        // Gravity always applies when there was no upward input.
        if !matches!(input, Input::Jump) {
            self.character.apply_gravity(dt_us);
        }

        self.character.observe(measured_tps);
        self.t_us += dt_us;
        self.score += dt_us / 1_000; // 1 point per millisecond survived

        // Collision: inside an obstacle window, the measured throughput
        // must be within the opening.
        let current_idx = self
            .course
            .obstacles
            .iter()
            .position(|o| self.t_us >= o.start_us && self.t_us < o.end_us);
        if let Some(idx) = current_idx {
            let o = self.course.obstacles[idx];
            if !o.contains(self.character.measured_tps) {
                self.screen = Screen::Crashed { at_us: self.t_us, obstacle_center: o.center() };
                events.push(GameEvent::HaltAndReset);
                return events;
            }
        }
        // Count cleared obstacles on edge transitions.
        if self.last_obstacle_idx.is_some() && current_idx != self.last_obstacle_idx {
            self.obstacles_cleared += 1;
            self.score += 1_000;
        }
        self.last_obstacle_idx = current_idx;

        if self.course.is_finished(self.t_us) {
            self.screen = Screen::Won;
            events.push(GameEvent::Victory);
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::challenge::ChallengeShape;

    fn game() -> Game {
        let course = Course::generate(
            "steps",
            ChallengeShape::Steps { levels: 2, low: 100.0, high: 200.0, ascending: true },
            20.0,
            0.6,
        );
        Game::new(
            "voter",
            "mysql",
            course,
            PhysicsConfig { jump_tps: 50.0, gravity_tps_per_s: 20.0, max_tps: 500.0 },
        )
    }

    #[test]
    fn survives_when_tracking_gap() {
        let mut g = game();
        // Feed measured == obstacle center at all times.
        let mut t = 0u64;
        while !g.is_over() && t < 25_000_000 {
            // Collision is checked at the post-tick time, so feed the
            // measured value for t + dt.
            let measured = g
                .course
                .active_at(t + 100_000)
                .map(|o| o.center())
                .unwrap_or(100.0);
            g.tick(100_000, measured, Input::None);
            t += 100_000;
        }
        assert_eq!(*g.screen(), Screen::Won);
        assert!(g.obstacles_cleared() >= 1);
        assert!(g.score() > 0);
    }

    #[test]
    fn crashes_outside_gap() {
        let mut g = game();
        let start = g.course.obstacles[0].start_us;
        let mut events = Vec::new();
        let mut t = 0u64;
        while t <= start + 200_000 {
            // Measured far below every opening.
            events = g.tick(100_000, 1.0, Input::None);
            if g.is_over() {
                break;
            }
            t += 100_000;
        }
        assert!(matches!(g.screen(), Screen::Crashed { .. }), "{:?}", g.screen());
        assert!(events.contains(&GameEvent::HaltAndReset));
    }

    #[test]
    fn jump_and_gravity_shape_requested_rate() {
        let mut g = game();
        g.tick(100_000, 0.0, Input::Jump);
        assert_eq!(g.requested_tps(), 50.0);
        g.tick(1_000_000, 40.0, Input::None); // gravity 20 tps/s
        assert!((g.requested_tps() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn pause_blocks_and_preset_applies() {
        let mut g = game();
        let ev = g.tick(100_000, 0.0, Input::Pause);
        assert_eq!(ev, vec![GameEvent::PauseBenchmark]);
        assert_eq!(*g.screen(), Screen::Paused);
        assert_eq!(g.requested_tps(), 0.0);
        // Time does not advance while paused.
        let before = g.elapsed_us();
        let ev = g.tick(500_000, 0.0, Input::SelectPreset(MixturePreset::ReadOnly));
        assert_eq!(ev, vec![GameEvent::ApplyPreset(MixturePreset::ReadOnly)]);
        assert_eq!(g.elapsed_us(), before);
        let ev = g.tick(100_000, 0.0, Input::Resume);
        assert_eq!(ev, vec![GameEvent::ResumeBenchmark]);
        assert_eq!(*g.screen(), Screen::Playing);
    }

    #[test]
    fn autopilot_ignores_input() {
        let course = Course::generate(
            "t",
            ChallengeShape::Tunnel { target: 200.0, half_width: 50.0 },
            20.0,
            0.3,
        );
        let mut g = Game::new("ycsb", "oracle", course, PhysicsConfig::default());
        // Advance into the tunnel.
        let tunnel_start = g.course.obstacles[0].start_us;
        while g.elapsed_us() <= tunnel_start {
            g.tick(100_000, 200.0, Input::None);
        }
        let req_before = g.requested_tps();
        g.tick(100_000, 200.0, Input::Jump); // ignored
        assert_eq!(g.requested_tps(), (req_before - 0.1 * PhysicsConfig::default().gravity_tps_per_s).max(0.0));
        // Pause is also ignored inside the tunnel.
        g.tick(100_000, 200.0, Input::Pause);
        assert_eq!(*g.screen(), Screen::Playing);
    }

    #[test]
    fn no_ticks_after_game_over() {
        let mut g = game();
        // Force a crash.
        while !g.is_over() {
            g.tick(100_000, 0.0, Input::None);
        }
        let score = g.score();
        let ev = g.tick(100_000, 150.0, Input::Jump);
        assert!(ev.is_empty());
        assert_eq!(g.score(), score);
    }
}
