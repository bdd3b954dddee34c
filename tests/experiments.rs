//! The experiment rows whose outcome is deterministic, each run and judged
//! as the harness prints it, against a committed golden file.
//!
//! `tests/golden/experiments.txt` is what
//! `harness table1 challenges physics dialects queue` prints: one section
//! per row, its title, its text, one line per criterion with the measured
//! value beside its bound, and `pass`. These rows run single-threaded on
//! seeded data or in virtual time, so the text is the same in every run and
//! build profile; a change that moves it either restores it or explains
//! the lines it changes and updates the file.

use bp_bench::EXPERIMENTS;

const GOLDEN: &str = include_str!("golden/experiments.txt");

fn matches_golden(name: &str) {
    let row = EXPERIMENTS.iter().find(|e| e.name == name).expect("a row of the table");
    let (printout, _) = row.judge(&(row.run)());
    let title = format!("=== {} ===\n", row.title);
    let start = GOLDEN.find(&title).expect("a section of tests/golden/experiments.txt per row");
    let golden = GOLDEN[start..].split_inclusive("\n\n").next().expect("the row's section");
    assert!(
        format!("{printout}\n") == golden,
        "`{name}` no longer prints its section of tests/golden/experiments.txt; it now prints:\n{printout}"
    );
}

#[test]
fn table1_matches_golden() {
    matches_golden("table1")
}

#[test]
fn challenges_match_golden() {
    matches_golden("challenges")
}

#[test]
fn physics_matches_golden() {
    matches_golden("physics")
}

#[test]
fn dialects_match_golden() {
    matches_golden("dialects")
}

#[test]
fn queue_ablation_matches_golden() {
    matches_golden("queue")
}
