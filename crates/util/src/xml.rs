//! Minimal XML parser for OLTP-Bench style `config.xml` workload files.
//!
//! Supports elements, attributes, text content, comments, CDATA and the XML
//! declaration — the subset used by benchmark configuration files. It is not
//! a validating parser and ignores DTDs, namespaces and processing
//! instructions other than the declaration.

use std::fmt;

/// An XML element node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlNode {
    pub name: String,
    pub attrs: Vec<(String, String)>,
    pub children: Vec<XmlNode>,
    /// Concatenated text content directly inside this element (trimmed).
    pub text: String,
}

impl XmlNode {
    pub fn new(name: &str) -> XmlNode {
        XmlNode { name: name.to_string(), attrs: Vec::new(), children: Vec::new(), text: String::new() }
    }

    /// Parse a document, returning the root element.
    pub fn parse(input: &str) -> Result<XmlNode, XmlError> {
        let mut p = XmlParser { bytes: input.as_bytes(), pos: 0 };
        p.skip_misc()?;
        let root = p.element()?;
        p.skip_misc()?;
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after root element"));
        }
        Ok(root)
    }

    /// First child element with the given name.
    pub fn child(&self, name: &str) -> Option<&XmlNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All child elements with the given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlNode> + 'a {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// Text of the first child element with the given name.
    pub fn child_text(&self, name: &str) -> Option<&str> {
        self.child(name).map(|c| c.text.as_str())
    }

    /// Attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Parse the text of a named child as `T`.
    pub fn child_parse<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.child_text(name).and_then(|t| t.trim().parse().ok())
    }
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        if let Some(semi) = rest.find(';') {
            let ent = &rest[1..semi];
            match ent {
                "amp" => out.push('&'),
                "lt" => out.push('<'),
                "gt" => out.push('>'),
                "quot" => out.push('"'),
                "apos" => out.push('\''),
                _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                    if let Ok(cp) = u32::from_str_radix(&ent[2..], 16) {
                        if let Some(c) = char::from_u32(cp) {
                            out.push(c);
                        }
                    }
                }
                _ if ent.starts_with('#') => {
                    if let Ok(cp) = ent[1..].parse::<u32>() {
                        if let Some(c) = char::from_u32(cp) {
                            out.push(c);
                        }
                    }
                }
                _ => {
                    out.push('&');
                    out.push_str(ent);
                    out.push(';');
                }
            }
            rest = &rest[semi + 1..];
        } else {
            out.push_str(rest);
            rest = "";
        }
    }
    out.push_str(rest);
    out
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xml error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

struct XmlParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> XmlParser<'a> {
    fn err(&self, msg: &str) -> XmlError {
        XmlError { message: msg.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), XmlError> {
        match self.find(end) {
            Some(i) => {
                self.pos = i + end.len();
                Ok(())
            }
            None => Err(self.err(&format!("unterminated construct, expected '{end}'"))),
        }
    }

    fn find(&self, needle: &str) -> Option<usize> {
        let hay = &self.bytes[self.pos..];
        hay.windows(needle.len())
            .position(|w| w == needle.as_bytes())
            .map(|i| self.pos + i)
    }

    /// Skip whitespace, comments, declaration, doctype between elements.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_until(">")?;
            } else {
                return Ok(());
            }
        }
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in name"))?
            .to_string())
    }

    fn element(&mut self) -> Result<XmlNode, XmlError> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let name = self.name()?;
        let mut node = XmlNode::new(&name);

        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() == Some(b'>') {
                        self.pos += 1;
                        return Ok(node);
                    }
                    return Err(self.err("expected '>' after '/'"));
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected '=' in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = self.peek();
                    if !matches!(quote, Some(b'"' | b'\'')) {
                        return Err(self.err("expected quoted attribute value"));
                    }
                    let q = quote.unwrap();
                    self.pos += 1;
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == q {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.peek() != Some(q) {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8 in attribute"))?;
                    node.attrs.push((key, unescape(raw)));
                    self.pos += 1;
                }
                None => return Err(self.err("unexpected end inside tag")),
            }
        }

        // Content.
        let mut text = String::new();
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.name()?;
                if close != name {
                    return Err(self.err(&format!("mismatched close tag: <{name}> vs </{close}>")));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(self.err("expected '>' in close tag"));
                }
                self.pos += 1;
                node.text = text.trim().to_string();
                return Ok(node);
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<![CDATA[") {
                let start = self.pos + 9;
                let end = self.find("]]>").ok_or_else(|| self.err("unterminated CDATA"))?;
                text.push_str(
                    std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid utf-8 in CDATA"))?,
                );
                self.pos = end + 3;
            } else if self.peek() == Some(b'<') {
                node.children.push(self.element()?);
            } else {
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == b'<' {
                        break;
                    }
                    self.pos += 1;
                }
                if self.pos == self.bytes.len() {
                    return Err(self.err(&format!("unterminated element <{name}>")));
                }
                let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in text"))?;
                text.push_str(&unescape(raw));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<?xml version="1.0"?>
<!-- OLTP-Bench style configuration -->
<parameters>
    <dbtype>mysql</dbtype>
    <scalefactor>2</scalefactor>
    <terminals>8</terminals>
    <works>
        <work>
            <time>60</time>
            <rate>500</rate>
            <weights>45,43,4,4,4</weights>
        </work>
        <work arrival="exponential">
            <time>30</time>
            <rate>unlimited</rate>
            <weights>100,0,0,0,0</weights>
        </work>
    </works>
</parameters>"#;

    #[test]
    fn parse_sample_config() {
        let root = XmlNode::parse(SAMPLE).unwrap();
        assert_eq!(root.name, "parameters");
        assert_eq!(root.child_text("dbtype"), Some("mysql"));
        assert_eq!(root.child_parse::<u32>("scalefactor"), Some(2));
        assert_eq!(root.child_parse::<u32>("terminals"), Some(8));
        let works = root.child("works").unwrap();
        let phases: Vec<_> = works.children_named("work").collect();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].child_text("rate"), Some("500"));
        assert_eq!(phases[1].attr("arrival"), Some("exponential"));
        assert_eq!(phases[1].child_text("rate"), Some("unlimited"));
    }

    #[test]
    fn self_closing_and_attrs() {
        let root = XmlNode::parse(r#"<a x="1" y='2'><b/><c z="&lt;&amp;&gt;"/></a>"#).unwrap();
        assert_eq!(root.attr("x"), Some("1"));
        assert_eq!(root.attr("y"), Some("2"));
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[1].attr("z"), Some("<&>"));
    }

    #[test]
    fn entities_in_text() {
        let root = XmlNode::parse("<t>a &amp; b &lt;c&gt; &#65;&#x42;</t>").unwrap();
        assert_eq!(root.text, "a & b <c> AB");
    }

    #[test]
    fn cdata() {
        let root = XmlNode::parse("<q><![CDATA[SELECT * FROM t WHERE a < 5 && b > 1]]></q>").unwrap();
        assert_eq!(root.text, "SELECT * FROM t WHERE a < 5 && b > 1");
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(XmlNode::parse("<a><b></a></b>").is_err());
        assert!(XmlNode::parse("<a>").is_err());
        assert!(XmlNode::parse("<a></a><b></b>").is_err());
    }

    #[test]
    fn comments_inside_elements() {
        let root = XmlNode::parse("<a><!-- hi --><b>1</b><!-- bye --></a>").unwrap();
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.child_text("b"), Some("1"));
    }
}
