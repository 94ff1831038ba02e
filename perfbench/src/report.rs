//! The benchmark's result line and its human-readable tables.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": bool, "attempted": int, "failed": int, "metrics":
//! {"<name>": {"value": number, "unit": "<unit>"}, ...}}`.
//! [`Outcome::parse`] reads that line back (it is what the tests use to
//! round-trip the format).

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `op_p50_us`.
    pub name: String,
    /// Unit, e.g. `us`.
    pub unit: String,
    /// Value as measured, with all its digits.
    pub value: f64,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &str, unit: &str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        }
    }
}

/// The result line.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (cycles, periods, steps, appends).
    pub attempted: u64,
    /// Operations that failed, failed output checks included.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Outcome {
    /// Render the result line. Non-finite values cannot be written as
    /// JSON numbers; they are written as 0 and the outcome is marked
    /// incorrect.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && finite,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            escape(&m.name, &mut s);
            s.push_str(": {\"value\": ");
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            // `{:?}` is Rust's shortest round-trip form; it always keeps a
            // decimal point or exponent, which JSON accepts.
            let _ = write!(s, "{v:?}");
            s.push_str(", \"unit\": ");
            escape(&m.unit, &mut s);
            s.push('}');
        }
        s.push_str("}}");
        s
    }

    /// Parse a result line written by [`Outcome::to_json`].
    pub fn parse(line: &str) -> Result<Outcome, String> {
        let mut p = Parser {
            s: line.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        let Json::Obj(top) = v else {
            return Err("result is not an object".into());
        };
        let field = |k: &str| {
            top.iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v)
                .ok_or(format!("missing key {k}"))
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("unexpected keys {keys:?}"));
        }
        let correct = match field("correct")? {
            Json::Bool(b) => *b,
            _ => return Err("correct is not a bool".into()),
        };
        let count = |k: &str| match field(k)? {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(format!("{k} is not a whole number")),
        };
        let (attempted, failed) = (count("attempted")?, count("failed")?);
        let Json::Obj(ms) = field("metrics")? else {
            return Err("metrics is not an object".into());
        };
        let mut metrics = Vec::with_capacity(ms.len());
        for (name, m) in ms {
            let Json::Obj(kv) = m else {
                return Err(format!("metric {name} is not an object"));
            };
            match kv.as_slice() {
                [(v, Json::Num(value)), (u, Json::Str(unit))] if v == "value" && u == "unit" => {
                    metrics.push(Metric::new(name, unit, *value))
                }
                _ => return Err(format!("metric {name} is malformed")),
            }
        }
        Ok(Outcome {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            Some(c) if *c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut out = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.eat(b':')?;
            out.push((k, self.value()?));
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.i += 4;
                        }
                        _ => return Err(format!("unknown escape at byte {}", self.i)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8 passes through byte by byte.
                    let start = self.i - 1;
                    let mut end = self.i;
                    while end < self.s.len() && (self.s[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.s[start..end]).map_err(|e| e.to_string())?,
                    );
                    self.i = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?}"))
    }
}

/// One workload-specific end-to-end figure, printed with its unit
/// and sample count above the result line.
#[derive(Clone, Debug)]
pub struct Detail {
    /// Name, e.g. `append_p99_us`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples the value summarises.
    pub samples: usize,
    /// What the value is next to (a budget, a paper figure), if anything.
    pub note: String,
}

impl Detail {
    /// A detail line without a note.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Detail {
            name,
            unit,
            value,
            samples,
            note: String::new(),
        }
    }

    /// Attach a note.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Render detail lines as an aligned table.
pub fn render_details(title: &str, rows: &[Detail]) -> String {
    let mut s = format!("{title}\n");
    for d in rows {
        let _ = write!(
            s,
            "  {:<26} {:>14.4} {:<6} n={:<8}",
            d.name, d.value, d.unit, d.samples
        );
        if !d.note.is_empty() {
            let _ = write!(s, " {}", d.note);
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let o = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric::new("latency_ms", "ms", 1.2034),
                Metric::new("setup_s", "s", 8.127e-7),
                Metric::new("odd \"name\"", "1/s", 3.0),
            ],
        };
        let line = o.to_json();
        assert_eq!(Outcome::parse(&line), Ok(o));
    }

    #[test]
    fn non_finite_values_mark_the_outcome_incorrect() {
        let o = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![Metric::new("x", "ms", f64::NAN)],
        };
        let back = Outcome::parse(&o.to_json()).expect("valid JSON");
        assert!(!back.correct);
        assert_eq!(back.metrics[0].value, 0.0);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{",
            "[]",
            "{\"correct\": true}",
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} x",
        ] {
            assert!(Outcome::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
