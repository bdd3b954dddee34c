//! The one skeleton of the line-oriented, versioned text artifacts
//! (`#bp-replay`, `#bp-report`, `#bp-trace`):
//!
//! ```text
//! #<magic> v<N>      <- first line; a reader refuses any other N
//! key value          <- scalar fields
//! name 3             <- a counted section: the count, then that many lines
//! …
//! end                <- a truncated file fails to parse
//! ```
//!
//! Blank lines and other `#` lines are comments. Errors name the line.
//! What the fields and section lines mean stays with each format.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// `line` trimmed, or `None` for a blank or comment line. A `#<magic> v<N>`
/// line is a comment too, but only with the `version` this build reads.
pub fn significant<'a>(
    line: &'a str,
    magic: &str,
    version: u32,
) -> Result<Option<&'a str>, String> {
    let line = line.trim();
    match line.strip_prefix(magic).and_then(|rest| rest.strip_prefix(" v")) {
        Some(v) if v.trim().parse() != Ok(version) => Err(format!("unsupported version: {line}")),
        _ if line.is_empty() || line.starts_with('#') => Ok(None),
        _ => Ok(Some(line)),
    }
}

/// Append a counted section: `name <count>`, then one line per item;
/// `line` appends the item's text without its newline.
pub fn write_section<T>(
    out: &mut String,
    name: &str,
    items: &[T],
    mut line: impl FnMut(&mut String, &T),
) {
    let _ = writeln!(out, "{name} {}", items.len());
    for item in items {
        line(out, item);
        out.push('\n');
    }
}

/// Builds an artifact's text; the buffer is public so a format can embed
/// text that has a writer of its own.
pub struct Writer(pub String);

impl Writer {
    /// Starts with the `#<magic> v<version>` header line.
    pub fn new(magic: &str, version: u32, capacity: usize) -> Writer {
        let mut out = String::with_capacity(capacity);
        let _ = writeln!(out, "{magic} v{version}");
        Writer(out)
    }

    pub fn field(&mut self, key: &str, value: impl Display) {
        let _ = writeln!(self.0, "{key} {value}");
    }

    /// Ends with the `end` marker.
    pub fn finish(mut self) -> String {
        self.0.push_str("end\n");
        self.0
    }
}

/// One `key value` line of an artifact.
pub struct Entry<'a> {
    what: &'static str,
    /// 1-based line number.
    pub line: usize,
    pub key: &'a str,
    pub value: &'a str,
}

impl Entry<'_> {
    /// An error naming this entry's line.
    pub fn err(&self, msg: impl Display) -> String {
        format!("{} line {}: {msg}", self.what, self.line)
    }

    pub fn parse<T: FromStr>(&self) -> Result<T, String> {
        self.value.parse().map_err(|_| self.err(format_args!("bad {}", self.key)))
    }
}

/// Reads an artifact's text entry by entry.
pub struct Reader<'a> {
    what: &'static str,
    magic: &'static str,
    version: u32,
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Reader<'a> {
    /// `what` names the artifact in errors. The first line must be the
    /// `#<magic> v<version>` header.
    pub fn open(
        text: &'a str,
        what: &'static str,
        magic: &'static str,
        version: u32,
    ) -> Result<Reader<'a>, String> {
        let mut reader = Reader { what, magic, version, lines: text.lines().enumerate() };
        let first = reader.lines.next().map_or("", |(_, line)| line.trim());
        if !first.starts_with(magic) {
            return Err(format!("{what} line 1: missing {magic} header"));
        }
        significant(first, magic, version).map_err(|e| format!("{what} line 1: {e}"))?;
        Ok(reader)
    }

    fn next_line(&mut self) -> Result<Option<(usize, &'a str)>, String> {
        for (n, raw) in self.lines.by_ref() {
            let line = significant(raw, self.magic, self.version)
                .map_err(|e| format!("{} line {}: {e}", self.what, n + 1))?;
            if let Some(line) = line {
                return Ok(Some((n + 1, line)));
            }
        }
        Ok(None)
    }

    /// The next entry; `None` at the `end` marker, an error if the text
    /// stops without one.
    pub fn entry(&mut self) -> Result<Option<Entry<'a>>, String> {
        let Some((line, text)) = self.next_line()? else {
            return Err(format!("{} missing end marker", self.what));
        };
        let (key, value) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
        Ok((key != "end").then_some(Entry { what: self.what, line, key, value: value.trim() }))
    }

    /// The lines of the counted section that `entry` opened, each through
    /// `parse`.
    pub fn section<T>(
        &mut self,
        entry: &Entry,
        mut parse: impl FnMut(&str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let count: usize =
            entry.value.parse().map_err(|_| entry.err(format_args!("bad {} count", entry.key)))?;
        // The count comes from the input: grow to it, do not trust it.
        let mut items = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let (line, text) = self
                .next_line()?
                .ok_or_else(|| entry.err(format_args!("truncated {}", entry.key)))?;
            items.push(parse(text).map_err(|m| format!("{} line {line}: {m}", self.what))?);
        }
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let mut w = Writer::new("#bp-demo", 2, 64);
        w.field("seed", 42);
        write_section(&mut w.0, "rows", &[1u32, 2, 3], |out, n| {
            let _ = write!(out, "{n} x");
        });
        w.finish()
    }

    fn read(text: &str) -> Result<(u64, Vec<u32>), String> {
        let mut r = Reader::open(text, "demo", "#bp-demo", 2)?;
        let (mut seed, mut rows) = (0, Vec::new());
        while let Some(e) = r.entry()? {
            match e.key {
                "seed" => seed = e.parse()?,
                "rows" => {
                    rows = r.section(&e, |l| {
                        l.split(' ')
                            .next()
                            .and_then(|n| n.parse().ok())
                            .ok_or("bad row".to_string())
                    })?
                }
                _ => return Err(e.err("unknown key")),
            }
        }
        Ok((seed, rows))
    }

    #[test]
    fn writes_and_reads_back() {
        let text = sample();
        assert_eq!(text, "#bp-demo v2\nseed 42\nrows 3\n1 x\n2 x\n3 x\nend\n");
        assert_eq!(read(&text), Ok((42, vec![1, 2, 3])));
        let commented = text.replace("rows 3\n", "\n# note\nrows 3\n#bp-other v9\n");
        assert_eq!(
            read(&commented),
            Ok((42, vec![1, 2, 3])),
            "comments skipped, even in a section"
        );
    }

    #[test]
    fn rejects_with_line_numbers() {
        assert!(read("").unwrap_err().contains("missing #bp-demo header"));
        assert!(read("#bp-demo v3\nend\n").unwrap_err().contains("line 1: unsupported version"));
        assert_eq!(read("#bp-demo v2\nseed 42\n"), Err("demo missing end marker".into()));
        assert_eq!(read("#bp-demo v2\nseed x\nend\n"), Err("demo line 2: bad seed".into()));
        assert_eq!(read("#bp-demo v2\nrows 2\n1 x\n"), Err("demo line 2: truncated rows".into()));
        assert_eq!(read("#bp-demo v2\nrows 1\nq x\nend\n"), Err("demo line 3: bad row".into()));
        assert_eq!(
            read("#bp-demo v2\nrows 9999999999999999999999\n").unwrap_err(),
            "demo line 2: bad rows count"
        );
        assert_eq!(read("#bp-demo v2\nwhat 1\nend\n"), Err("demo line 2: unknown key".into()));
    }
}
