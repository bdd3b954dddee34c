//! ASCII renderer for the game (the demo's visuals, in a terminal).
//!
//! Renders a side-scrolling window: time on the X axis, throughput on the
//! Y axis, pipes (`#`) for obstacles with an opening, and `@` for the
//! character at the measured throughput.

use bp_util::clock::{Micros, MICROS_PER_SEC};

use crate::game::{Game, Screen};

/// Render a frame of `width`×`height` characters covering `window_s`
/// seconds ahead of the character.
pub fn render(game: &Game, width: usize, height: usize, window_s: f64) -> String {
    let width = width.max(16);
    let height = height.max(8);
    let max_tps = game.character.config().max_tps;
    let t0 = game.elapsed_us();
    let window_us = (window_s * MICROS_PER_SEC as f64) as Micros;

    let mut grid = vec![vec![' '; width]; height];

    // Obstacles: columns where an obstacle window covers that time.
    for (x, col) in grid.iter_mut().enumerate().skip(1) {
        let t = t0 + (x as u64 * window_us) / width as u64;
        if let Some(o) = game.course.active_at(t) {
            for (y, cell) in col.iter_mut().enumerate() {
                // y=0 is the top.
                let tps = max_tps * (1.0 - y as f64 / (height - 1) as f64);
                if !o.contains(tps) {
                    *cell = if o.autopilot { '=' } else { '#' };
                }
            }
        }
    }

    // Character at x=0 column, at the measured height.
    let frac = game.character.height_fraction();
    let y = ((1.0 - frac) * (height - 1) as f64).round() as usize;
    grid[y.min(height - 1)][0] = '@';

    let mut out = String::with_capacity((width + 1) * (height + 2));
    for row in grid {
        out.extend(row);
        out.push('\n');
    }
    let status = match game.screen() {
        Screen::Playing => format!(
            "[{} on {}] t={:.1}s req={:.0}tps meas={:.0}tps score={}",
            game.benchmark,
            game.dbms,
            game.elapsed_us() as f64 / MICROS_PER_SEC as f64,
            game.character.requested_tps,
            game.character.measured_tps,
            game.score()
        ),
        Screen::Paused => "[PAUSED] choose mixture: default / read-only / super-writes / custom".into(),
        Screen::Crashed { at_us, obstacle_center } => format!(
            "[GAME OVER] crashed at {:.1}s (needed ~{obstacle_center:.0} tps) — benchmark halted, database reset",
            *at_us as f64 / MICROS_PER_SEC as f64
        ),
        Screen::Won => format!("[YOU WIN] score={} obstacles={}", game.score(), game.obstacles_cleared()),
    };
    out.push_str(&status);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::challenge::{ChallengeShape, Course};
    use crate::game::Input;
    use crate::physics::PhysicsConfig;

    fn game() -> Game {
        let course = Course::generate(
            "steps",
            ChallengeShape::Steps { levels: 2, low: 200.0, high: 400.0, ascending: true },
            20.0,
            0.4,
        );
        Game::new("voter", "mysql", course, PhysicsConfig { max_tps: 1_000.0, ..Default::default() })
    }

    #[test]
    fn frame_dimensions() {
        let g = game();
        let frame = render(&g, 40, 12, 10.0);
        let lines: Vec<&str> = frame.lines().collect();
        assert_eq!(lines.len(), 13); // 12 rows + status
        assert!(lines[..12].iter().all(|l| l.chars().count() == 40));
    }

    #[test]
    fn character_rendered_at_height() {
        let mut g = game();
        g.character.observe(500.0); // half height
        let frame = render(&g, 30, 11, 10.0);
        let lines: Vec<&str> = frame.lines().collect();
        // Row 5 of 0..=10 is the midpoint.
        assert_eq!(lines[5].chars().next(), Some('@'));
    }

    #[test]
    fn obstacles_rendered_with_gap() {
        let g = game();
        let frame = render(&g, 60, 20, 25.0);
        assert!(frame.contains('#'), "no pipes rendered:\n{frame}");
        // There must be gap cells in obstacle columns (not a solid wall).
        let lines: Vec<&str> = frame.lines().collect();
        let mut has_gap_column = false;
        for x in 1..60 {
            let column: Vec<char> = lines[..20].iter().filter_map(|l| l.chars().nth(x)).collect();
            let pipes = column.iter().filter(|c| **c == '#').count();
            if pipes > 0 && pipes < 20 {
                has_gap_column = true;
            }
        }
        assert!(has_gap_column);
    }

    #[test]
    fn status_lines() {
        let mut g = game();
        assert!(render(&g, 30, 10, 5.0).contains("[voter on mysql]"));
        g.tick(1_000, 0.0, Input::Pause);
        assert!(render(&g, 30, 10, 5.0).contains("PAUSED"));
    }
}
