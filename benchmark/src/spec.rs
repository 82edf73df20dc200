//! `BENCHMARK.json`: the declared metrics, and the check that a run emits
//! exactly those names with exactly those units.
//!
//! The file is small and fixed-shape, so a minimal JSON reader suffices
//! (the workspace has no JSON dependency to lean on).

use std::path::Path;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// A description of the first syntax error and its byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value(0)?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > 32 {
            return self.err("nesting too deep");
        }
        self.ws();
        match self.s.get(self.i) {
            None => self.err("unexpected end"),
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return self.err("expected `:`");
                    }
                    members.push((key, self.value(depth + 1)?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    if !self.eat(",") {
                        return self.err("expected `,` or `}`");
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return self.err("expected `,` or `]`");
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                let tok = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII digits");
                match tok.parse::<f64>() {
                    Ok(v) if !tok.is_empty() => Ok(Json::Num(v)),
                    _ => self.err("expected a value"),
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return self.err("expected a string");
        }
        let mut out = Vec::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|_| "invalid UTF-8".to_string()),
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else {
                        break;
                    };
                    self.i += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        _ => return self.err("unsupported escape"),
                    }
                }
                _ => out.push(c),
            }
        }
        self.err("unterminated string")
    }
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
}

/// The metric lists of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Spec {
    /// Reads and parses `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// I/O or syntax errors, or a missing `workloads`, `end_to_end` or
    /// `per_layer` list.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let json = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| -> Result<Vec<Json>, String> {
            match json.get(key) {
                Some(Json::Arr(items)) => Ok(items.clone()),
                _ => Err(format!("{}: `{key}` is not a list", path.display())),
            }
        };
        let field = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{}: an entry lacks `{key}`", path.display()))
        };
        let metrics = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Declared {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Checks that `emitted` carries every declared metric once, with its
/// declared unit, a finite value, and nothing else.
///
/// # Errors
///
/// Every discrepancy, one per line.
pub fn validate(declared: &[Declared], emitted: &[Metric]) -> Result<(), String> {
    let mut problems = Vec::new();
    for d in declared {
        match emitted.iter().filter(|m| m.name == d.name).count() {
            0 => problems.push(format!("metric `{}` is declared but not emitted", d.name)),
            1 => {}
            n => problems.push(format!("metric `{}` is emitted {n} times", d.name)),
        }
    }
    for m in emitted {
        match declared.iter().find(|d| d.name == m.name) {
            None => problems.push(format!("metric `{}` is emitted but not declared", m.name)),
            Some(d) if d.unit != m.unit => problems.push(format!(
                "metric `{}` has unit `{}`, declared `{}`",
                m.name, m.unit, d.unit
            )),
            Some(_) => {}
        }
        if !m.value.is_finite() {
            problems.push(format!("metric `{}` is not finite ({})", m.name, m.value));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`. Values print in
/// Rust's shortest round-trip form, so every measured digit survives.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite `f64` as a JSON number (`Display` never uses exponents, and
/// integral values print without a fraction — both valid JSON).
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "JSON has no non-finite numbers");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest_spec() -> Spec {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Spec::load(&path).expect("BENCHMARK.json parses")
    }

    #[test]
    fn parser_reads_nested_documents() {
        let v = parse(r#" {"a": [1, -2.5e1, "x\"y"], "b": {"c": true, "d": null}} "#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-25.0),
                Json::Str("x\"y".into())
            ]))
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Bool(true)));
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} x").is_err());
    }

    #[test]
    fn benchmark_json_declares_the_emitted_metrics() {
        let spec = manifest_spec();
        assert_eq!(spec.workloads, crate::WORKLOADS);
        let e2e: Vec<_> = crate::END_TO_END
            .iter()
            .map(|&(name, unit)| metric(name, unit, 1.0))
            .collect();
        validate(&spec.end_to_end, &e2e).expect("end-to-end metrics match BENCHMARK.json");
        let layers: Vec<_> = crate::PER_LAYER
            .iter()
            .map(|&(name, unit)| metric(name, unit, 1.0))
            .collect();
        validate(&spec.per_layer, &layers).expect("per-layer metrics match BENCHMARK.json");
    }

    #[test]
    fn validation_names_every_discrepancy() {
        let declared = vec![
            Declared {
                name: "a_s".into(),
                unit: "s".into(),
            },
            Declared {
                name: "b".into(),
                unit: "count".into(),
            },
        ];
        let emitted = vec![metric("a_s", "ms", 1.0), metric("c", "s", f64::NAN)];
        let err = validate(&declared, &emitted).unwrap_err();
        assert!(err.contains("`b` is declared but not emitted"), "{err}");
        assert!(err.contains("`a_s` has unit `ms`, declared `s`"), "{err}");
        assert!(err.contains("`c` is emitted but not declared"), "{err}");
        assert!(err.contains("`c` is not finite"), "{err}");
    }

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let line = result_line(
            true,
            3,
            0,
            &[
                metric("x_s", "s", 0.1234567890123),
                metric("n", "count", 42.0),
            ],
        );
        let v = parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let x = v.get("metrics").and_then(|m| m.get("x_s")).unwrap();
        assert_eq!(x.get("value"), Some(&Json::Num(0.1234567890123)));
        assert_eq!(x.get("unit"), Some(&Json::Str("s".into())));
    }
}
