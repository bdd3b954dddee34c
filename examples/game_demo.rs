//! BenchPress game demo: the autopilot plays the "steps" course against two
//! different DBMS stages, each the real driver in virtual time, rendering
//! ASCII frames (Fig. 2c in a terminal).
//!
//! ```sh
//! cargo run --release --example game_demo
//! ```

use benchpress::game::{
    chase_center_policy, render, Course, Game, GameSession, PhysicsConfig, SimBackend,
};
use benchpress::storage::Personality;
use benchpress::workloads::by_name;

fn play(personality: Personality) {
    println!("================ stage: {} ================", personality.name);
    let course = Course::demo_set(1_000.0).remove(0); // steps
    let game = Game::new(
        "ycsb",
        personality.name,
        course,
        PhysicsConfig { jump_tps: 60.0, gravity_tps_per_s: 40.0, max_tps: 1_500.0 },
    );
    let backend = SimBackend::new(personality, by_name("ycsb").unwrap(), 42);
    let mut session = GameSession::new(game, backend);

    let mut frame_count = 0;
    while !session.game.is_over() && frame_count < 600 {
        let input = chase_center_policy(&session.game);
        session.tick(100_000, input);
        frame_count += 1;
        // Print a frame every simulated 5 seconds.
        if frame_count % 50 == 0 {
            println!("{}", render(&session.game, 64, 16, 12.0));
        }
    }
    println!("{}", render(&session.game, 64, 16, 12.0));
    println!();
}

fn main() {
    // Oracle: stable stage, the autopilot clears the course.
    play(Personality::oracle_like());
    // Derby: even the course's first step is past its capacity — expect a
    // crash (and a DB reset).
    play(Personality::derby_like());
}
