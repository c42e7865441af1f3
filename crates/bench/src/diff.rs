//! The bench-regression gate: one record form, one comparator.
//!
//! Every gated `BENCH_*.json` record declares the numbers it gates. The
//! bench that measures them writes them, each with its [`Rule`], into
//! the record's `metrics` object through `write_bench_record`:
//!
//! ```json
//! "metrics": {
//!   "flash_crowd/p999_ms": {"value": 4.73, "better": "lower", "rel": 0.25, "floor": 2},
//!   "flash_crowd/shed_leaves": {"value": 0, "max": 0},
//!   "events_per_s": {"value": 5463341.4, "better": "higher", "rel": 0.25}
//! }
//! ```
//!
//! [`compare`] holds a freshly measured record against the committed
//! one, metric by metric, with the rules the fresh record declares. A
//! committed metric the fresh record lacks fails; a fresh metric the
//! committed record lacks is reported as added (a `max` rule still
//! gates it); a record with no `metrics` object gates nothing. The two
//! records must come from the same experiment and the same worker
//! width, and a changed `tier` fails. [`exit_code`] maps every outcome
//! to the `bench_diff` exit status.
//!
//! The workspace's serde is a vendored no-op stub (`vendor/README.md`),
//! so this module carries its own minimal JSON reader: [`parse`]
//! understands exactly the JSON subset the baseline files use (objects,
//! arrays, strings without escapes beyond `\"`/`\\`/`\/`/`\n`/`\t`,
//! f64 numbers, booleans, null).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (f64 precision, like the emitter).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What was expected.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error<T>(&self, message: &str) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message: message.to_string(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            self.error(&format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b.is_ascii_digit() || *b == b'-' => self.number(),
            _ => self.error("expected a value"),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            self.error(&format!("expected '{text}'"))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are utf8");
        match text.parse::<f64>() {
            Ok(x) => Ok(Json::Num(x)),
            Err(_) => {
                self.pos = start;
                self.error("malformed number")
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.error("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    // Collected as raw bytes so multi-byte UTF-8
                    // sequences survive intact; validate once at the end.
                    return match String::from_utf8(out) {
                        Ok(s) => Ok(s),
                        Err(_) => self.error("invalid UTF-8 in string"),
                    };
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.bytes.get(self.pos) {
                        Some(b'"') => b'"',
                        Some(b'\\') => b'\\',
                        Some(b'/') => b'/',
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        _ => return self.error("unsupported escape"),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            self.expect(b',')?;
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(members));
            }
            self.expect(b',')?;
        }
    }
}

/// Parses a JSON document (the subset the baseline files use).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return parser.error("trailing content");
    }
    Ok(value)
}

/// How one gated metric may move between the committed record and a
/// fresh one. [`compare`] applies the fresh record's rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Lower is better (a time, an event count, bytes): fails when
    /// `fresh > max((1 + rel) · baseline, floor)`, so nothing at or
    /// under the noise floor fails.
    Lower {
        /// Allowed relative growth (0.25: +25%).
        rel: f64,
        /// Noise floor, in the metric's unit.
        floor: f64,
    },
    /// Higher is better (a throughput): fails when
    /// `fresh < baseline / (1 + rel)`.
    Higher {
        /// Allowed relative loss (0.25: down to 1/1.25 of the baseline).
        rel: f64,
    },
    /// An absolute ceiling: fails when `fresh > max`, whatever the
    /// committed record holds, including when it lacks the metric.
    Max(f64),
}

impl Rule {
    /// The bound this rule holds a fresh value to, given the committed
    /// value. A relative rule has no bound when the committed record
    /// lacks the metric.
    pub fn limit(self, baseline: Option<f64>) -> Option<f64> {
        match self {
            Rule::Lower { rel, floor } => baseline.map(|b| ((1.0 + rel) * b).max(floor)),
            Rule::Higher { rel } => baseline.map(|b| b / (1.0 + rel)),
            Rule::Max(max) => Some(max),
        }
    }

    /// Whether `fresh` lies on the wrong side of `limit`.
    fn breaks(self, fresh: f64, limit: f64) -> bool {
        match self {
            Rule::Higher { .. } => fresh < limit,
            Rule::Lower { .. } | Rule::Max(_) => fresh > limit,
        }
    }
}

/// One gated number of a record.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, unique within the record (e.g. `flash_crowd/p999_ms`).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// How the value is gated.
    pub rule: Rule,
}

/// Builds one [`Metric`]: what a bench hands `write_bench_record` for
/// each number it gates.
pub fn metric(name: impl Into<String>, value: f64, rule: Rule) -> Metric {
    Metric {
        name: name.into(),
        value,
        rule,
    }
}

impl Metric {
    /// The metric's member of a record's `metrics` object, in the form
    /// [`metrics`] reads back. A non-finite number is written as `null`,
    /// which [`metrics`] refuses.
    pub fn to_json(&self) -> String {
        let num = |x: f64| {
            if x.is_finite() {
                format!("{x}")
            } else {
                "null".to_string()
            }
        };
        let rule = match self.rule {
            Rule::Lower { rel, floor } => format!(
                "\"better\": \"lower\", \"rel\": {}, \"floor\": {}",
                num(rel),
                num(floor)
            ),
            Rule::Higher { rel } => format!("\"better\": \"higher\", \"rel\": {}", num(rel)),
            Rule::Max(max) => format!("\"max\": {}", num(max)),
        };
        format!(
            "\"{}\": {{\"value\": {}, {rule}}}",
            self.name,
            num(self.value)
        )
    }
}

/// Reads a record's `metrics` object. A record without one declares no
/// gates. An entry without a numeric `value`, or in none of the three
/// rule forms, is refused.
pub fn metrics(doc: &Json) -> Result<Vec<Metric>, String> {
    let members = match doc.get("metrics") {
        None => return Ok(Vec::new()),
        Some(Json::Obj(members)) => members,
        Some(_) => return Err("'metrics' is not an object".to_string()),
    };
    members
        .iter()
        .map(|(name, entry)| {
            let num = |key: &str| entry.get(key).and_then(Json::as_num);
            let value = num("value").ok_or_else(|| format!("metric '{name}' has no value"))?;
            let rule = match (entry.get("better").map(Json::as_str), num("max")) {
                (None, Some(max)) => Some(Rule::Max(max)),
                (Some(Some("lower")), None) => num("rel")
                    .zip(num("floor"))
                    .map(|(rel, floor)| Rule::Lower { rel, floor }),
                (Some(Some("higher")), None) => num("rel").map(|rel| Rule::Higher { rel }),
                _ => None,
            }
            .ok_or_else(|| format!("metric '{name}' has no valid rule"))?;
            Ok(metric(name.as_str(), value, rule))
        })
        .collect()
}

/// The top-level `threads` field of a record: the worker width it was
/// measured at.
pub fn doc_threads(doc: &Json) -> Option<u64> {
    doc.get("threads").and_then(Json::as_num).map(|x| x as u64)
}

/// Why two records cannot be compared at all.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffError {
    /// A usage error, an unreadable or malformed record, or records of
    /// different experiments.
    Invalid(String),
    /// The records were measured at different worker widths. Timings
    /// from different widths are not like for like, so the gate refuses
    /// them instead of comparing.
    Widths {
        /// Width of the fresh record.
        fresh: u64,
        /// Width of the committed record.
        baseline: u64,
    },
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::Invalid(message) => f.write_str(message),
            DiffError::Widths { fresh, baseline } => write!(
                f,
                "refusing to compare: the fresh record was measured on {fresh} thread(s), the \
                 committed one on {baseline}; widths must match (re-measure at the committed \
                 width, or commit a record for this width)"
            ),
        }
    }
}

/// One fresh metric held to its rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Gated {
    /// The fresh metric, with the rule applied.
    pub metric: Metric,
    /// The committed value, when the committed record has the metric.
    pub baseline: Option<f64>,
    /// The bound applied ([`Rule::limit`]).
    pub limit: f64,
}

impl Gated {
    /// Whether the fresh value is within its limit.
    pub fn passed(&self) -> bool {
        !self.metric.rule.breaks(self.metric.value, self.limit)
    }
}

/// Outcome of comparing a fresh record against the committed one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// The experiment both records come from.
    pub experiment: String,
    /// The worker width both records were measured at.
    pub threads: u64,
    /// Every fresh metric that has a limit: each relative rule with a
    /// committed value, and each `max` rule.
    pub gated: Vec<Gated>,
    /// Committed metrics the fresh record lacks. These fail: a dropped
    /// measurement can hide a regression.
    pub missing: Vec<String>,
    /// Fresh metrics the committed record lacks. These are additions,
    /// reported but not failed (a `max` rule still gates its value).
    pub added: Vec<String>,
    /// `(fresh, committed)` tiers when they differ (`-` for none). The
    /// numbers are then not comparable, so this fails.
    pub tier_changed: Option<(String, String)>,
}

impl Report {
    /// The gated metrics that broke their limit.
    pub fn regressions(&self) -> impl Iterator<Item = &Gated> {
        self.gated.iter().filter(|g| !g.passed())
    }

    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.missing.is_empty()
            && self.tier_changed.is_none()
            && self.gated.iter().all(Gated::passed)
    }
}

/// Compares a `fresh` record against the committed `baseline`, metric
/// by metric, with the rules the fresh record declares (see the module
/// docs). Records of different experiments, and records without
/// `experiment` or `threads` or with a malformed `metrics` object, are
/// [`DiffError::Invalid`]; records of different widths are refused
/// with [`DiffError::Widths`].
pub fn compare(fresh: &Json, baseline: &Json) -> Result<Report, DiffError> {
    fn identity<'a>(doc: &'a Json, side: &str) -> Result<(&'a str, u64, Vec<Metric>), DiffError> {
        let invalid = |what: String| DiffError::Invalid(format!("the {side} record {what}"));
        let experiment = doc
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid("has no 'experiment'".to_string()))?;
        let threads = doc_threads(doc).ok_or_else(|| invalid("has no 'threads'".to_string()))?;
        let declared = metrics(doc).map_err(|e| invalid(format!("is malformed: {e}")))?;
        Ok((experiment, threads, declared))
    }
    let (experiment, threads, declared) = identity(fresh, "fresh")?;
    let (committed_experiment, committed_threads, committed) = identity(baseline, "committed")?;
    if experiment != committed_experiment {
        return Err(DiffError::Invalid(format!(
            "refusing to compare a {experiment} record with a {committed_experiment} record"
        )));
    }
    if threads != committed_threads {
        return Err(DiffError::Widths {
            fresh: threads,
            baseline: committed_threads,
        });
    }
    let tier = |doc: &Json| {
        doc.get("tier")
            .and_then(Json::as_str)
            .unwrap_or("-")
            .to_string()
    };
    let mut report = Report {
        experiment: experiment.to_string(),
        threads,
        missing: committed
            .iter()
            .filter(|b| !declared.iter().any(|m| m.name == b.name))
            .map(|b| b.name.clone())
            .collect(),
        tier_changed: (tier(fresh) != tier(baseline)).then(|| (tier(fresh), tier(baseline))),
        ..Report::default()
    };
    for metric in declared {
        let baseline = committed
            .iter()
            .find(|b| b.name == metric.name)
            .map(|b| b.value);
        if baseline.is_none() {
            report.added.push(metric.name.clone());
        }
        if let Some(limit) = metric.rule.limit(baseline) {
            report.gated.push(Gated {
                metric,
                baseline,
                limit,
            });
        }
    }
    Ok(report)
}

/// The `bench_diff` exit status of an outcome: 0 when the gate passes;
/// 1 when a metric regressed or is missing, or the tier changed; 2 on a
/// usage error, an unreadable or malformed record, or a different
/// experiment; 3 when the records' widths differ.
pub fn exit_code(outcome: &Result<Report, DiffError>) -> i32 {
    match outcome {
        Ok(report) if report.passed() => 0,
        Ok(_) => 1,
        Err(DiffError::Invalid(_)) => 2,
        Err(DiffError::Widths { .. }) => 3,
    }
}

/// A number to four significant digits, for the report.
fn short(x: f64) -> String {
    let digits = if x == 0.0 || !x.is_finite() {
        0
    } else {
        (3 - x.abs().log10().floor() as i64).max(0) as usize
    };
    format!("{x:.digits$}")
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "bench_diff: {} record at {} thread(s), {} metric(s) gated",
            self.experiment,
            self.threads,
            self.gated.len()
        )?;
        for g in &self.gated {
            let m = &g.metric;
            let rule = match m.rule {
                Rule::Lower { rel, floor } => format!("lower, rel {rel}, floor {floor}"),
                Rule::Higher { rel } => format!("higher, rel {rel}"),
                Rule::Max(_) => "max".to_string(),
            };
            let change = g.baseline.filter(|&b| b != 0.0).map_or(String::new(), |b| {
                format!(" ({:+.1}%)", (m.value / b - 1.0) * 100.0)
            });
            writeln!(
                f,
                "  {:<10} {:<44} {:>10} -> {:<10}{change:<10} limit {} ({rule})",
                if g.passed() { "ok" } else { "REGRESSION" },
                m.name,
                g.baseline.map_or("-".to_string(), short),
                short(m.value),
                short(g.limit)
            )?;
        }
        for name in &self.added {
            writeln!(f, "  NEW (no committed value): {name}")?;
        }
        for name in &self.missing {
            writeln!(f, "  MISSING from the fresh record: {name}")?;
        }
        if let Some((fresh, committed)) = &self.tier_changed {
            writeln!(f, "  TIER CHANGED: {committed} -> {fresh}")?;
        }
        if self.passed() {
            writeln!(f, "bench_diff: PASS")
        } else {
            writeln!(
                f,
                "bench_diff: FAIL ({} regressed, {} missing{})",
                self.regressions().count(),
                self.missing.len(),
                if self.tier_changed.is_some() {
                    ", tier changed"
                } else {
                    ""
                }
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1_exec_rule;

    const TIER: &str = "100s-1000z-50000c-65000cp";

    /// The lower-is-better rule at +25% over `floor`.
    fn lower(floor: f64) -> Rule {
        Rule::Lower { rel: 0.25, floor }
    }

    /// A width-1 record of `experiment` on `tier`, declaring `metrics`.
    fn record(experiment: &str, tier: &str, metrics: &[Metric]) -> Json {
        let members: Vec<String> = metrics.iter().map(Metric::to_json).collect();
        parse(&format!(
            r#"{{"experiment": "{experiment}", "threads": 1, "tier": "{tier}",
                "metrics": {{{}}}}}"#,
            members.join(", ")
        ))
        .unwrap()
    }

    fn diff(fresh: &Json, baseline: &Json) -> Report {
        compare(fresh, baseline).expect("comparable records")
    }

    fn regressed(report: &Report) -> Vec<&str> {
        report
            .regressions()
            .map(|g| g.metric.name.as_str())
            .collect()
    }

    /// A Table 1 record of `(config/algorithm, min exec_ms, replications)`
    /// pairs, under the rule the table1 writer declares.
    fn table1(pairs: &[(&str, f64, u64)]) -> Json {
        let metrics: Vec<Metric> = pairs
            .iter()
            .map(|&(pair, ms, n)| metric(format!("{pair}/exec_ms"), ms, table1_exec_rule(n)))
            .collect();
        record("table1", "-", &metrics)
    }

    /// A recover record of `(scenario, events_to_recover, full_repairs)`.
    fn recover(rows: &[(&str, f64, f64)]) -> Json {
        let metrics: Vec<Metric> = rows
            .iter()
            .flat_map(|&(s, events, full_repairs)| {
                [
                    metric(format!("{s}/events_to_recover"), events, lower(600.0)),
                    metric(format!("{s}/full_repairs"), full_repairs, Rule::Max(0.0)),
                ]
            })
            .collect();
        record("recover", TIER, &metrics)
    }

    /// A burst record of `(scenario, p999_ms, shed_leaves)`.
    fn burst(rows: &[(&str, f64, f64)]) -> Json {
        let metrics: Vec<Metric> = rows
            .iter()
            .flat_map(|&(s, p999_ms, shed_leaves)| {
                [
                    metric(format!("{s}/p999_ms"), p999_ms, lower(2.0)),
                    metric(format!("{s}/shed_leaves"), shed_leaves, Rule::Max(0.0)),
                ]
            })
            .collect();
        record("burst", TIER, &metrics)
    }

    /// A throughput record with a speedup curve, in the `serve_mc`
    /// shape: headline events/s plus `(threads, events/s)` curve points.
    /// No committed record has this shape now; it exercises the
    /// higher-is-better and per-curve-width rules.
    fn serve_mc(tier: &str, events_per_s: f64, curve: &[(u64, f64)]) -> Json {
        let higher = Rule::Higher { rel: 0.25 };
        let mut metrics = vec![metric("events_per_s", events_per_s, higher)];
        for &(w, eps) in curve {
            metrics.push(metric(format!("curve/{w}/events_per_s"), eps, higher));
        }
        record("serve_mc", tier, &metrics)
    }

    /// An alloc record.
    fn alloc(tier: &str, allocs_per_event: f64, bytes_per_event: f64) -> Json {
        let metrics = [
            metric("allocs_per_event", allocs_per_event, Rule::Max(2.0)),
            metric("bytes_per_event", bytes_per_event, lower(8.0)),
        ];
        record("alloc", tier, &metrics)
    }

    /// A committed record at the workspace root.
    fn committed(file: &str) -> Json {
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// A committed record passes against itself, which also holds every
    /// absolute (`max`) gate it declares.
    fn assert_self_compares(doc: &Json) -> Report {
        let report = diff(doc, doc);
        assert!(report.passed(), "{report}");
        report
    }

    /// Refuses each `metrics` object in `bad`.
    fn assert_refused(experiment: &str, bad: &[&str]) {
        for members in bad {
            let doc = parse(&format!(
                r#"{{"experiment": "{experiment}", "threads": 1, "metrics": {members}}}"#
            ))
            .unwrap();
            assert!(metrics(&doc).is_err(), "{members}");
            assert!(matches!(compare(&doc, &doc), Err(DiffError::Invalid(_))));
        }
    }

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse("\"a\\\"b\"").unwrap(), Json::Str("a\"b".to_string()));
        let doc = parse(r#"{"a": [1, 2, {"b": false}], "c": "x"}"#).unwrap();
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&Json::Bool(false)));
    }

    #[test]
    fn multibyte_utf8_strings_survive_parsing() {
        assert_eq!(
            parse("\"naïve — ünïcodé\"").unwrap(),
            Json::Str("naïve — ünïcodé".to_string())
        );
    }

    #[test]
    fn single_sample_pairs_get_doubled_threshold() {
        let base = table1(&[("tier1/lp_solve", 100.0, 1)]);
        // +40% on a single-sample pair: inside the doubled (+50%) limit,
        // and the report prints the limit it applied.
        let report = diff(&table1(&[("tier1/lp_solve", 140.0, 1)]), &base);
        assert!(report.passed());
        assert_eq!(report.gated[0].limit, 150.0);
        assert!(report.to_string().contains("limit 150.0"), "{report}");
        // +60% fails even with the slack.
        assert!(!diff(&table1(&[("tier1/lp_solve", 160.0, 1)]), &base).passed());
        // The fresh record's rule applies: a replicated pair gets none.
        assert!(!diff(&table1(&[("tier1/lp_solve", 140.0, 20)]), &base).passed());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn thread_mismatch_refusal_logic() {
        let at = |threads: &str| {
            parse(&format!(
                r#"{{"experiment": "table1"{threads}, "rows": []}}"#
            ))
            .unwrap()
        };
        let (one, eight, unmarked) = (at(r#", "threads": 1"#), at(r#", "threads": 8"#), at(""));
        assert_eq!(doc_threads(&one), Some(1));
        assert_eq!(doc_threads(&unmarked), None);
        // Mismatched widths are refused in both directions.
        let refused = |fresh, baseline| Err(DiffError::Widths { fresh, baseline });
        assert_eq!(compare(&eight, &one), refused(8, 1));
        assert_eq!(compare(&one, &eight), refused(1, 8));
        // The same width compares.
        assert!(diff(&one, &one).passed());
        // A record without `threads` is malformed, on either side.
        assert!(matches!(
            compare(&one, &unmarked),
            Err(DiffError::Invalid(_))
        ));
        assert!(matches!(
            compare(&unmarked, &eight),
            Err(DiffError::Invalid(_))
        ));
    }

    #[test]
    fn parses_the_committed_baseline() {
        let doc = committed("BENCH_table1.json");
        let list = metrics(&doc).expect("committed baseline declares its metrics");
        assert!(list.len() >= 16, "4 tiers x 4 heuristics at least");
        // Every pair is gated on its replication minimum, under the
        // rule the table1 writer declares for its replication count.
        for row in doc.get("rows").and_then(Json::as_arr).unwrap() {
            let config = row.get("config").and_then(Json::as_str).unwrap();
            for algo in row.get("algorithms").and_then(Json::as_arr).unwrap() {
                let name = algo.get("algorithm").and_then(Json::as_str).unwrap();
                let exec = algo.get("exec_ms").unwrap();
                let m = list
                    .iter()
                    .find(|m| m.name == format!("{config}/{name}/exec_ms"))
                    .unwrap_or_else(|| panic!("{config}/{name} is not gated"));
                assert_eq!(Some(m.value), exec.get("min").and_then(Json::as_num));
                let n = exec.get("n").and_then(Json::as_num).unwrap() as u64;
                assert_eq!(m.rule, table1_exec_rule(n));
            }
        }
        assert!(list
            .iter()
            .any(|m| m.name == "30s-160z-2000c-1000cp/GreZ-GreC/exec_ms"));
        assert_eq!(assert_self_compares(&doc).gated.len(), list.len());
    }

    #[test]
    fn flags_regressions_over_threshold_only() {
        let baseline = table1(&[("tier1/A", 10.0, 20), ("tier1/B", 10.0, 20)]);
        let fresh = table1(&[("tier1/A", 12.4, 20), ("tier1/B", 12.6, 20)]);
        let report = diff(&fresh, &baseline);
        assert_eq!(report.gated.len(), 2);
        assert_eq!(regressed(&report), ["tier1/B/exec_ms"]);
        let r = report.regressions().next().unwrap();
        assert!((r.metric.value / r.baseline.unwrap() - 1.26).abs() < 1e-9);
        assert!(!report.passed());
    }

    #[test]
    fn noise_floor_suppresses_micro_timings() {
        // 3.3x, but microseconds: held to the 0.05 ms floor, not +25%.
        let report = diff(
            &table1(&[("tier1/A", 0.010, 20)]),
            &table1(&[("tier1/A", 0.003, 20)]),
        );
        assert!(report.passed());
        assert_eq!(report.gated[0].limit, 0.05);
    }

    #[test]
    fn a_sub_floor_baseline_is_held_to_the_floor() {
        // A pair under the floor is gated once the fresh minimum leaves
        // the floor: it fails past both the floor and +25%.
        let base = table1(&[("tier1/A", 0.046, 20)]);
        assert!(diff(&table1(&[("tier1/A", 0.057, 20)]), &base).passed());
        assert!(!diff(&table1(&[("tier1/A", 0.058, 20)]), &base).passed());
    }

    #[test]
    fn missing_pairs_fail_the_gate() {
        let report = diff(&table1(&[]), &table1(&[("tier1/A", 10.0, 20)]));
        assert_eq!(report.missing, ["tier1/A/exec_ms"]);
        assert!(!report.passed());
    }

    #[test]
    fn recover_documents_are_recognised_and_parsed() {
        let doc = parse(
            r#"{"experiment": "recover", "threads": 1, "scenarios": [
                {"scenario": "single", "pre_pqos": 0.95, "trough_pqos": 0.8,
                 "recovered_epoch": 4, "events_to_recover": 600, "full_repairs": 0,
                 "shed_events": 0, "queued_joins": 0, "zones_migrated": 42}
            ], "metrics": {
                "single/events_to_recover":
                    {"value": 600, "better": "lower", "rel": 0.25, "floor": 600},
                "single/full_repairs": {"value": 0, "max": 0}
            }}"#,
        )
        .unwrap();
        assert_eq!(
            metrics(&doc).unwrap(),
            [
                metric("single/events_to_recover", 600.0, lower(600.0)),
                metric("single/full_repairs", 0.0, Rule::Max(0.0)),
            ]
        );
        // A record without a metrics object declares no gates.
        let bare = parse(r#"{"experiment": "recover", "threads": 1}"#).unwrap();
        assert_eq!(metrics(&bare), Ok(vec![]));
        assert!(diff(&bare, &bare).gated.is_empty());
        // No value, or a lower rule without its floor, is refused.
        assert_refused(
            "recover",
            &[
                r#"{"single/full_repairs": {"max": 0}}"#,
                r#"{"single/events_to_recover": {"value": 600, "better": "lower", "rel": 0.25}}"#,
            ],
        );
    }

    #[test]
    fn recover_gate_bounds_events_and_forbids_full_repairs() {
        let baseline = recover(&[("single", 1200.0, 0.0), ("correlated", 1800.0, 0.0)]);
        // Within threshold: passes.
        let fresh = recover(&[("single", 1400.0, 0.0), ("correlated", 1800.0, 0.0)]);
        let report = diff(&fresh, &baseline);
        assert!(report.passed());
        assert_eq!(report.gated.len(), 4);
        // Recovery slowed past the threshold: fails.
        let slow = recover(&[("single", 1600.0, 0.0), ("correlated", 1800.0, 0.0)]);
        let report = diff(&slow, &baseline);
        assert_eq!(regressed(&report), ["single/events_to_recover"]);
        assert!(!report.passed());
        // A full repair on the failure path fails even when events shrink —
        // and even when the (broken) baseline had one too.
        let escalated = recover(&[("single", 600.0, 1.0), ("correlated", 1800.0, 0.0)]);
        let broken_baseline = recover(&[("single", 1200.0, 2.0), ("correlated", 1800.0, 0.0)]);
        let report = diff(&escalated, &broken_baseline);
        assert_eq!(regressed(&report), ["single/full_repairs"]);
        assert!(!report.passed());
    }

    #[test]
    fn recover_gate_floors_epoch_quantization_and_tracks_row_churn() {
        // Both sides within one epoch: quantization, not a regression.
        let baseline = recover(&[("correlated", 396.0, 0.0)]);
        assert!(diff(&recover(&[("correlated", 600.0, 0.0)]), &baseline).passed());
        assert!(!diff(&recover(&[("correlated", 601.0, 0.0)]), &baseline).passed());
        // New scenarios are additions (their max rule still gates);
        // vanished scenarios fail.
        let baseline = recover(&[("single", 600.0, 0.0)]);
        let report = diff(&recover(&[("fail_recover", 600.0, 0.0)]), &baseline);
        assert_eq!(
            report.added,
            [
                "fail_recover/events_to_recover",
                "fail_recover/full_repairs"
            ]
        );
        assert_eq!(
            report.missing,
            ["single/events_to_recover", "single/full_repairs"]
        );
        assert_eq!(report.gated.len(), 1);
        assert!(!report.passed());
    }

    #[test]
    fn parses_the_committed_recovery_baseline() {
        let doc = committed("BENCH_recover.json");
        let list = metrics(&doc).expect("committed recovery baseline declares its metrics");
        for scenario in ["single", "correlated", "fail_recover"] {
            let find = |stat: &str| {
                list.iter()
                    .find(|m| m.name == format!("{scenario}/{stat}"))
                    .unwrap_or_else(|| panic!("{scenario}/{stat} is not gated"))
            };
            assert!(find("events_to_recover").value >= 0.0);
            assert_eq!(find("full_repairs").rule, Rule::Max(0.0));
        }
        assert_self_compares(&doc);
    }

    #[test]
    fn burst_documents_are_recognised_and_parsed() {
        let doc = parse(
            r#"{"experiment": "burst", "threads": 1, "scenarios": [
                {"scenario": "flash_crowd", "events": 16000, "committed": 16000,
                 "flushes": 125, "shed_events": 0, "shed_leaves": 0,
                 "mean_ms": 1.6, "p99_ms": 3.1, "p999_ms": 4.5}
            ], "metrics": {
                "flash_crowd/p999_ms": {"value": 4.5, "better": "lower", "rel": 0.25, "floor": 2},
                "flash_crowd/shed_leaves": {"value": 0, "max": 0}
            }}"#,
        )
        .unwrap();
        let list = metrics(&doc).unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].name, "flash_crowd/p999_ms");
        assert_eq!(list[0].value, 4.5);
        assert_eq!(list[0].rule, lower(2.0));
        assert_eq!(list[1].rule, Rule::Max(0.0));
        // A non-numeric ceiling, or two rules at once, is refused.
        assert_refused(
            "burst",
            &[
                r#"{"flash_crowd/shed_leaves": {"value": 0, "max": "0"}}"#,
                r#"{"flash_crowd/p999_ms": {"value": 4.5, "better": "lower", "rel": 0.25,
                    "floor": 2, "max": 5}}"#,
            ],
        );
    }

    #[test]
    fn burst_gate_bounds_p999_and_forbids_shed_leaves() {
        let baseline = burst(&[("flash_crowd", 4.5, 0.0), ("exponential", 2.5, 0.0)]);
        // Within threshold: passes.
        let fresh = burst(&[("flash_crowd", 5.0, 0.0), ("exponential", 2.5, 0.0)]);
        let report = diff(&fresh, &baseline);
        assert!(report.passed());
        assert_eq!(report.gated.len(), 4);
        // Tail latency past the threshold: fails.
        let slow = burst(&[("flash_crowd", 6.0, 0.0), ("exponential", 2.5, 0.0)]);
        let report = diff(&slow, &baseline);
        assert_eq!(regressed(&report), ["flash_crowd/p999_ms"]);
        assert!(!report.passed());
        // A shed Leave fails even with a faster tail — and even when the
        // (broken) baseline shed one too.
        let shedding = burst(&[("flash_crowd", 3.0, 1.0), ("exponential", 2.5, 0.0)]);
        let broken_baseline = burst(&[("flash_crowd", 4.5, 2.0), ("exponential", 2.5, 0.0)]);
        let report = diff(&shedding, &broken_baseline);
        assert_eq!(regressed(&report), ["flash_crowd/shed_leaves"]);
        assert!(!report.passed());
    }

    #[test]
    fn burst_gate_floors_jitter_and_tracks_row_churn() {
        // Both tails under the floor: runner jitter, not a regression.
        let baseline = burst(&[("exponential", 1.0, 0.0)]);
        assert!(diff(&burst(&[("exponential", 1.9, 0.0)]), &baseline).passed());
        // New scenarios are additions, and a shed Leave in one still
        // fails; vanished scenarios fail.
        let report = diff(&burst(&[("diurnal", 1.0, 0.0)]), &baseline);
        assert_eq!(report.added, ["diurnal/p999_ms", "diurnal/shed_leaves"]);
        assert_eq!(
            report.missing,
            ["exponential/p999_ms", "exponential/shed_leaves"]
        );
        assert!(!report.passed());
        let report = diff(
            &burst(&[("exponential", 1.0, 0.0), ("diurnal", 1.0, 1.0)]),
            &baseline,
        );
        assert_eq!(regressed(&report), ["diurnal/shed_leaves"]);
    }

    #[test]
    fn parses_the_committed_burst_baseline() {
        let doc = committed("BENCH_burst.json");
        assert_eq!(doc_threads(&doc), Some(1), "baselines are single-core");
        let list = metrics(&doc).expect("committed burst baseline declares its metrics");
        for scenario in ["flash_crowd", "exponential"] {
            let find = |stat: &str| {
                list.iter()
                    .find(|m| m.name == format!("{scenario}/{stat}"))
                    .unwrap_or_else(|| panic!("{scenario}/{stat} is not gated"))
            };
            assert!(
                find("p999_ms").value <= 5.0,
                "{scenario}: inside the bench budget"
            );
            assert_eq!(find("shed_leaves").rule, Rule::Max(0.0));
        }
        assert_self_compares(&doc);
    }

    #[test]
    fn serve_mc_documents_are_recognised_and_parsed() {
        let doc = parse(
            r#"{"experiment": "serve_mc", "threads": 8,
                "tier": "100s-1000z-50000c-65000cp", "events_per_s": 200000.0,
                "curve": [{"threads": 1, "events_per_s": 80000.0}],
                "metrics": {
                    "events_per_s": {"value": 200000.0, "better": "higher", "rel": 0.25},
                    "curve/1/events_per_s": {"value": 80000.0, "better": "higher", "rel": 0.25}
                }}"#,
        )
        .unwrap();
        assert_eq!(doc_threads(&doc), Some(8));
        let higher = Rule::Higher { rel: 0.25 };
        assert_eq!(
            metrics(&doc).unwrap(),
            [
                metric("events_per_s", 200000.0, higher),
                metric("curve/1/events_per_s", 80000.0, higher),
            ]
        );
        // A higher rule without its tolerance, or an unknown direction,
        // is refused.
        assert_refused(
            "serve_mc",
            &[
                r#"{"events_per_s": {"value": 1.0, "better": "higher"}}"#,
                r#"{"events_per_s": {"value": 1.0, "better": "faster", "rel": 0.25}}"#,
            ],
        );
    }

    /// The serving-throughput gate is inverted relative to the solve
    /// gates: lower events/s is the regression.
    #[test]
    fn serve_mc_gate_bounds_throughput_loss() {
        let base = serve_mc(TIER, 100_000.0, &[]);
        // Within threshold: 20% slower at the 25% threshold passes.
        assert!(diff(&serve_mc(TIER, 80_001.0, &[]), &base).passed());
        // Past it: fails with the throughput numbers attached.
        let report = diff(&serve_mc(TIER, 70_000.0, &[]), &base);
        assert!(!report.passed());
        assert_eq!(regressed(&report), ["events_per_s"]);
        // A tier change is incomparable: it fails.
        let report = diff(&serve_mc("10s-100z-5000c", 100_000.0, &[]), &base);
        assert!(!report.passed());
        assert_eq!(
            report.tier_changed,
            Some(("10s-100z-5000c".to_string(), TIER.to_string()))
        );
        // Identical records never regress against themselves.
        assert!(diff(&base, &base).passed());
    }

    /// Each width of a committed speedup curve is gated on its own: a
    /// lost width fails, a slowed width fails even when the headline
    /// clears, and a fresh extra width is an addition.
    #[test]
    fn serve_mc_gate_holds_every_curve_width() {
        let curve = [(1, 80_000.0), (2, 140_000.0), (4, 200_000.0)];
        let base = serve_mc(TIER, 200_000.0, &curve);
        // Identical curves never regress, and every point is compared.
        let report = diff(&base, &base);
        assert!(report.passed());
        assert_eq!(report.gated.len(), 1 + 3);
        // One mid-curve width loses its scaling while the headline
        // holds: still a regression, pinned to that width.
        let sagging = serve_mc(
            TIER,
            200_000.0,
            &[(1, 80_000.0), (2, 90_000.0), (4, 200_000.0)],
        );
        let report = diff(&sagging, &base);
        assert!(!report.passed());
        assert_eq!(regressed(&report), ["curve/2/events_per_s"]);
        // A vanished width fails; a new wider point is an addition.
        let reshaped = serve_mc(
            TIER,
            200_000.0,
            &[(1, 80_000.0), (4, 200_000.0), (8, 320_000.0)],
        );
        let report = diff(&reshaped, &base);
        assert!(!report.passed());
        assert_eq!(report.missing, ["curve/2/events_per_s"]);
        assert_eq!(report.added, ["curve/8/events_per_s"]);
        // A baseline with no curve gates only the headline, so a fresh
        // record that *gains* a curve passes with additions.
        let report = diff(&base, &serve_mc(TIER, 200_000.0, &[]));
        assert!(report.passed());
        assert_eq!(report.added.len(), 3);
    }

    /// New (tier, algorithm) pairs appearing only in the fresh JSON are
    /// additions: reported as such, never failed — while vanished pairs
    /// keep failing. The asymmetry is the point: dropping a measurement
    /// hides a regression, adding one cannot.
    #[test]
    fn new_pairs_are_reported_as_additions_not_failures() {
        let baseline = table1(&[("tier1/A", 10.0, 20)]);
        let fresh = table1(&[
            ("tier1/A", 10.0, 20),
            ("tier9/Z", 1.0, 20),
            ("tier1/B", 2.0, 20),
        ]);
        let report = diff(&fresh, &baseline);
        assert!(report.passed());
        assert_eq!(report.added, ["tier9/Z/exec_ms", "tier1/B/exec_ms"]);
        assert_eq!(report.gated.len(), 1);
        // Both directions at once: additions reported, the vanished pair
        // still fails.
        let report = diff(&table1(&[("tier2/A", 10.0, 20)]), &baseline);
        assert!(!report.passed());
        assert_eq!(report.added, ["tier2/A/exec_ms"]);
        assert_eq!(report.missing, ["tier1/A/exec_ms"]);
    }

    #[test]
    fn alloc_documents_are_recognised_and_parsed() {
        let doc = parse(
            r#"{"experiment": "alloc", "threads": 1,
                "tier": "100s-1000z-50000c-65000cp", "epochs": 5,
                "steady_events": 3000, "steady_allocs": 722, "steady_bytes": 72318,
                "allocs_per_event": 0.2407, "bytes_per_event": 24.1,
                "steady_mean_ns": 100253, "steady_p99_ns": 720895, "pqos": 0.942849,
                "metrics": {
                    "allocs_per_event": {"value": 0.2407, "max": 2},
                    "bytes_per_event": {"value": 24.1, "better": "lower", "rel": 0.25, "floor": 8}
                }}"#,
        )
        .unwrap();
        let list = metrics(&doc).unwrap();
        assert_eq!(list[0], metric("allocs_per_event", 0.2407, Rule::Max(2.0)));
        assert_eq!(list[1].name, "bytes_per_event");
        assert_eq!(list[1].value, 24.1);
        // A null value, or a metrics member that is not an object, is
        // refused.
        assert_refused(
            "alloc",
            &[r#"{"allocs_per_event": {"value": null, "max": 2}}"#, "[]"],
        );
    }

    #[test]
    fn alloc_gate_is_absolute_on_allocs_and_relative_on_bytes() {
        let baseline = alloc(TIER, 0.25, 24.0);
        // Under budget and within the bytes threshold: passes, even when
        // allocs drifted *up* relative to the baseline.
        let report = diff(&alloc(TIER, 1.5, 26.0), &baseline);
        assert!(report.passed());
        assert_eq!(report.gated.len(), 2);
        // Over the absolute budget: fails no matter what the baseline
        // says — even a crept-up baseline cannot launder it.
        let report = diff(&alloc(TIER, 2.5, 24.0), &alloc(TIER, 3.0, 24.0));
        assert_eq!(regressed(&report), ["allocs_per_event"]);
        assert!(!report.passed());
        // Bytes past the relative threshold: fails.
        let report = diff(&alloc(TIER, 0.25, 40.0), &baseline);
        assert_eq!(regressed(&report), ["bytes_per_event"]);
        // Both byte rates under the floor: bookkeeping noise.
        assert!(diff(&alloc(TIER, 0.0, 7.0), &alloc(TIER, 0.0, 2.0)).passed());
        // A tier change is incomparable, not a silent pass.
        let report = diff(&alloc("other", 0.25, 24.0), &baseline);
        assert!(!report.passed());
        assert!(report.tier_changed.is_some());
    }

    #[test]
    fn parses_the_committed_alloc_baseline() {
        let doc = committed("BENCH_alloc.json");
        assert_eq!(doc_threads(&doc), Some(1), "baselines are single-core");
        let list = metrics(&doc).expect("committed alloc baseline declares its metrics");
        let allocs = list.iter().find(|m| m.name == "allocs_per_event").unwrap();
        assert_eq!(allocs.rule, Rule::Max(2.0), "the landing budget");
        assert!(list.iter().any(|m| m.name == "bytes_per_event"));
        assert_self_compares(&doc);
    }

    #[test]
    fn every_committed_record_parses_and_passes_against_itself() {
        const GATED: [&str; 6] = ["table1", "recover", "burst", "alloc", "million", "stream"];
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut gated = Vec::new();
        for entry in std::fs::read_dir(root).unwrap() {
            let file = entry.unwrap().file_name().into_string().unwrap();
            if !(file.starts_with("BENCH_") && file.ends_with(".json")) {
                continue;
            }
            let doc = committed(&file);
            assert_self_compares(&doc);
            let experiment = doc.get("experiment").and_then(Json::as_str).unwrap();
            if GATED.contains(&experiment) {
                assert!(!metrics(&doc).unwrap().is_empty(), "{file} gates nothing");
                gated.push(experiment.to_string());
            }
        }
        gated.sort();
        let mut expected = GATED.map(String::from);
        expected.sort();
        assert_eq!(gated, expected);
    }

    #[test]
    fn metrics_round_trip_for_every_rule() {
        let declared = [
            metric("flash_crowd/p999_ms", 4.731469, lower(2.0)),
            metric(
                "curve/4/events_per_s",
                0.1 + 0.2,
                Rule::Higher { rel: 0.25 },
            ),
            metric("allocs_per_event", 0.2407, Rule::Max(2.0)),
        ];
        assert_eq!(metrics(&record("x", TIER, &declared)).unwrap(), declared);
        // A non-finite value is written as null, which is refused.
        let nan = [metric("m", f64::NAN, Rule::Max(1.0))];
        assert!(metrics(&record("x", TIER, &nan)).is_err());
    }

    #[test]
    fn exit_codes_name_every_outcome() {
        let base = alloc(TIER, 0.25, 24.0);
        assert_eq!(exit_code(&compare(&base, &base)), 0);
        // A regressed or missing metric, or a changed tier: 1.
        assert_eq!(exit_code(&compare(&alloc(TIER, 2.5, 24.0), &base)), 1);
        assert_eq!(exit_code(&compare(&record("alloc", TIER, &[]), &base)), 1);
        assert_eq!(exit_code(&compare(&alloc("other", 0.25, 24.0), &base)), 1);
        // A different experiment, a malformed record, a usage error: 2.
        assert_eq!(exit_code(&compare(&serve_mc(TIER, 1.0, &[]), &base)), 2);
        let malformed = parse(r#"{"experiment": "alloc", "threads": 1, "metrics": []}"#).unwrap();
        assert_eq!(exit_code(&compare(&malformed, &base)), 2);
        assert_eq!(exit_code(&Err(DiffError::Invalid("usage".to_string()))), 2);
        // Different widths: 3, the only code a width-keyed CI step may
        // treat as a skip.
        let wide = parse(r#"{"experiment": "alloc", "threads": 4}"#).unwrap();
        assert_eq!(exit_code(&compare(&wide, &base)), 3);
    }
}
