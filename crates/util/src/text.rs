//! Synthetic text generators used by benchmark data loaders
//! (customer names, emails, document text, TPC-C last names).

use crate::rng::Rng;

/// TPC-C clause 4.3.2.3 last-name syllables.
pub const LAST_NAME_SYLLABLES: [&str; 10] = [
    "BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
];

/// Build the TPC-C last name for a number in `[0, 999]`.
pub fn tpcc_last_name(num: i64) -> String {
    let num = num.clamp(0, 999) as usize;
    let mut s = String::new();
    s.push_str(LAST_NAME_SYLLABLES[num / 100]);
    s.push_str(LAST_NAME_SYLLABLES[(num / 10) % 10]);
    s.push_str(LAST_NAME_SYLLABLES[num % 10]);
    s
}

const FIRST_NAMES: [&str; 24] = [
    "James", "Mary", "Robert", "Patricia", "John", "Jennifer", "Michael", "Linda",
    "David", "Elizabeth", "William", "Barbara", "Richard", "Susan", "Joseph", "Jessica",
    "Thomas", "Sarah", "Charles", "Karen", "Dana", "Djellel", "Andy", "Carlo",
];

const LAST_NAMES: [&str; 16] = [
    "Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller", "Davis",
    "Rodriguez", "Martinez", "Pavlo", "Curino", "VanAken", "Difallah", "Bailis", "Gray",
];

const WORDS: [&str; 32] = [
    "lorem", "ipsum", "dolor", "sit", "amet", "consectetur", "adipiscing", "elit",
    "sed", "do", "eiusmod", "tempor", "incididunt", "labore", "dolore", "magna",
    "aliqua", "enim", "minim", "veniam", "quis", "nostrud", "exercitation", "ullamco",
    "laboris", "nisi", "aliquip", "commodo", "consequat", "duis", "aute", "irure",
];

const DOMAINS: [&str; 6] = [
    "example.com", "mail.test", "web.org", "inbox.net", "cmu.edu", "unifr.ch",
];

/// A plausible first name.
pub fn first_name(rng: &mut Rng) -> String {
    (*rng.choose(&FIRST_NAMES)).to_string()
}

/// A plausible last name.
pub fn last_name(rng: &mut Rng) -> String {
    (*rng.choose(&LAST_NAMES)).to_string()
}

/// A full name.
pub fn full_name(rng: &mut Rng) -> String {
    format!("{} {}", first_name(rng), last_name(rng))
}

/// An email address.
pub fn email(rng: &mut Rng) -> String {
    format!(
        "{}.{}{}@{}",
        first_name(rng).to_lowercase(),
        last_name(rng).to_lowercase(),
        rng.int_range(1, 9999),
        rng.choose(&DOMAINS)
    )
}

/// `n` lorem words joined by spaces.
pub fn words(rng: &mut Rng, n: usize) -> String {
    let mut out = String::with_capacity(n * 7);
    for i in 0..n {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(rng.choose::<&str>(&WORDS));
    }
    out
}

/// Paragraph-ish text of roughly `len` bytes (used for article/page bodies).
pub fn text(rng: &mut Rng, len: usize) -> String {
    let mut out = String::with_capacity(len + 16);
    while out.len() < len {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(rng.choose::<&str>(&WORDS));
    }
    out.truncate(len);
    out
}

/// US-style phone number string.
pub fn phone(rng: &mut Rng) -> String {
    format!(
        "{}-{}-{}",
        rng.nstring(3, 3),
        rng.nstring(3, 3),
        rng.nstring(4, 4)
    )
}

/// 2-letter state code.
pub fn state(rng: &mut Rng) -> String {
    const STATES: [&str; 12] = [
        "PA", "CA", "NY", "TX", "WA", "MA", "IL", "OH", "GA", "NC", "MI", "VA",
    ];
    (*rng.choose(&STATES)).to_string()
}

/// Zip code in TPC-C style (4 random digits + "11111").
pub fn zip(rng: &mut Rng) -> String {
    format!("{}11111", rng.nstring(4, 4))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpcc_names_match_spec() {
        assert_eq!(tpcc_last_name(0), "BARBARBAR");
        assert_eq!(tpcc_last_name(371), "PRICALLYOUGHT");
        assert_eq!(tpcc_last_name(999), "EINGEINGEING");
    }

    #[test]
    fn tpcc_name_clamped() {
        assert_eq!(tpcc_last_name(-5), tpcc_last_name(0));
        assert_eq!(tpcc_last_name(5000), tpcc_last_name(999));
    }

    #[test]
    fn generators_are_nonempty_and_deterministic() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(1);
        assert_eq!(email(&mut a), email(&mut b));
        assert!(!full_name(&mut a).is_empty());
    }

    #[test]
    fn text_has_requested_length() {
        let mut rng = Rng::new(2);
        for len in [1usize, 10, 100, 1000] {
            assert_eq!(text(&mut rng, len).len(), len);
        }
    }

    #[test]
    fn words_count() {
        let mut rng = Rng::new(3);
        let w = words(&mut rng, 5);
        assert_eq!(w.split(' ').count(), 5);
    }

    #[test]
    fn phone_and_zip_shapes() {
        let mut rng = Rng::new(4);
        let p = phone(&mut rng);
        assert_eq!(p.len(), 12);
        let z = zip(&mut rng);
        assert_eq!(z.len(), 9);
        assert!(z.ends_with("11111"));
    }
}
