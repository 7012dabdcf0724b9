//! A Prometheus text-format scraper.
//!
//! `efex-health` exposes the metric registry in Prometheus text format; this
//! module reads that format back, the same way [`crate::jsonval`] reads our
//! JSON back — so tests can prove the exposition is *lossless* (every
//! `StatsSnapshot` counter and `Histogram` field re-parses to the exact
//! `u64` that was recorded) and tooling can consume a scrape without a
//! Prometheus server in the loop.
//!
//! The parser accepts the subset of the text format the workspace emits:
//! `# TYPE` comments (kept), other comments (skipped), and sample lines
//! `family{label="value",…} value` with escaped label values (`\\`, `\"`,
//! `\n`). Sample values are kept as raw text so integer counters round-trip
//! exactly via [`PromSample::value_u64`].

use std::fmt;

/// One scraped sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// Metric family name (e.g. `"efex_counter"`).
    pub family: String,
    /// Label pairs in source order, unescaped.
    pub labels: Vec<(String, String)>,
    /// The sample value, verbatim as printed.
    pub raw_value: String,
}

impl PromSample {
    /// Looks a label up by name.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value as an exact `u64` (fails on floats and negatives).
    pub fn value_u64(&self) -> Option<u64> {
        self.raw_value.parse().ok()
    }
}

/// A parsed scrape: samples in source order plus the `# TYPE` declarations.
#[derive(Clone, Debug, Default)]
pub struct PromText {
    samples: Vec<PromSample>,
    types: Vec<(String, String)>,
}

impl PromText {
    /// All samples, in source order.
    pub fn samples(&self) -> &[PromSample] {
        &self.samples
    }

    /// The declared type of a family (`"counter"`, `"gauge"`, …).
    pub fn family_type(&self, family: &str) -> Option<&str> {
        self.types
            .iter()
            .find(|(f, _)| f == family)
            .map(|(_, t)| t.as_str())
    }

    /// The first sample of `family` whose labels include every given pair
    /// (extra labels on the sample are allowed).
    pub fn get(&self, family: &str, labels: &[(&str, &str)]) -> Option<&PromSample> {
        self.samples
            .iter()
            .find(|s| s.family == family && labels.iter().all(|&(n, v)| s.label(n) == Some(v)))
    }

    /// Samples of one family, in source order.
    pub fn family(&self, family: &str) -> Vec<&PromSample> {
        self.samples.iter().filter(|s| s.family == family).collect()
    }
}

/// A scrape failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PromError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PromError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prom text line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PromError {}

/// Parses Prometheus text exposition format.
///
/// # Errors
///
/// Returns [`PromError`] (with the offending line number) on malformed
/// sample lines or unterminated label blocks.
pub fn parse(text: &str) -> Result<PromText, PromError> {
    let mut out = PromText::default();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let err = |message: String| PromError {
            line: lineno,
            message,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let family = parts
                    .next()
                    .ok_or_else(|| err("# TYPE without a family name".into()))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| err(format!("# TYPE {family} without a type")))?;
                out.types.push((family.to_string(), kind.to_string()));
            }
            continue; // HELP and free-form comments are skipped
        }
        out.samples.push(parse_sample(line).map_err(err)?);
    }
    Ok(out)
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    let (name_part, rest) = match line.find('{') {
        Some(brace) => (&line[..brace], &line[brace..]),
        None => match line.find(char::is_whitespace) {
            Some(sp) => (&line[..sp], &line[sp..]),
            None => return Err("sample line has no value".into()),
        },
    };
    let family = name_part.trim();
    if family.is_empty() {
        return Err("sample line has no metric name".into());
    }
    let (labels, value_part) = if let Some(body) = rest.strip_prefix('{') {
        let (labels, after) = parse_labels(body)?;
        (labels, after)
    } else {
        (Vec::new(), rest)
    };
    let raw_value = value_part.trim();
    if raw_value.is_empty() {
        return Err(format!("sample {family} has no value"));
    }
    // Timestamps (a second whitespace-separated field) are not emitted by
    // this workspace; reject rather than mis-read.
    if raw_value.split_whitespace().count() != 1 {
        return Err(format!("sample {family} has trailing fields"));
    }
    Ok(PromSample {
        family: family.to_string(),
        labels,
        raw_value: raw_value.to_string(),
    })
}

/// Parsed label pairs plus the remainder after the closing brace.
type ParsedLabels<'a> = (Vec<(String, String)>, &'a str);

/// Parses `name="value",…}` (the leading `{` already consumed); returns the
/// labels and the remainder after the closing brace.
fn parse_labels(mut s: &str) -> Result<ParsedLabels<'_>, String> {
    let mut labels = Vec::new();
    loop {
        s = s.trim_start_matches(',').trim_start();
        if let Some(rest) = s.strip_prefix('}') {
            return Ok((labels, rest));
        }
        let eq = s.find('=').ok_or("label without '='")?;
        let name = s[..eq].trim().to_string();
        s = s[eq + 1..]
            .strip_prefix('"')
            .ok_or("label value must be quoted")?;
        let mut value = String::new();
        let mut chars = s.char_indices();
        let close = loop {
            let (at, c) = chars.next().ok_or("unterminated label value")?;
            match c {
                '"' => break at,
                '\\' => match chars.next().ok_or("dangling escape")?.1 {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    other => return Err(format!("unknown escape \\{other}")),
                },
                c => value.push(c),
            }
        };
        labels.push((name, value));
        s = &s[close + 1..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_families_labels_and_values() {
        let text = "\
# HELP ignored free text
# TYPE efex_counter counter
efex_counter{component=\"gc\",name=\"faults\"} 42
efex_counter{component=\"gc\",name=\"faults\",tenant=\"3\"} 7
# TYPE efex_health_findings gauge
efex_health_findings 0
";
        let scrape = parse(text).unwrap();
        assert_eq!(scrape.family_type("efex_counter"), Some("counter"));
        assert_eq!(scrape.family_type("efex_health_findings"), Some("gauge"));
        let agg = scrape
            .get("efex_counter", &[("component", "gc"), ("name", "faults")])
            .unwrap();
        assert_eq!(agg.value_u64(), Some(42));
        assert_eq!(agg.label("tenant"), None);
        let tenant = scrape
            .get("efex_counter", &[("name", "faults"), ("tenant", "3")])
            .unwrap();
        assert_eq!(tenant.value_u64(), Some(7));
        let bare = scrape.get("efex_health_findings", &[]).unwrap();
        assert!(bare.labels.is_empty());
        assert_eq!(bare.value_u64(), Some(0));
    }

    #[test]
    fn unescapes_label_values() {
        let text = "efex_counter{name=\"quote\\\"back\\\\slash\\nnl\"} 1\n";
        let scrape = parse(text).unwrap();
        assert_eq!(
            scrape.samples()[0].label("name"),
            Some("quote\"back\\slash\nnl")
        );
    }

    #[test]
    fn u64_values_round_trip_exactly() {
        let big = u64::MAX;
        let text = format!("efex_counter{{name=\"x\"}} {big}\n");
        let scrape = parse(&text).unwrap();
        assert_eq!(scrape.samples()[0].value_u64(), Some(big));
    }

    #[test]
    fn malformed_lines_carry_the_line_number() {
        let e = parse("efex_counter{name=\"x\" 1\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse("# TYPE ok counter\nnovalue\n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
    }
}
