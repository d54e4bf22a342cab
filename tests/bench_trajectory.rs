//! `BENCH_trajectory.jsonl` stays machine-readable: every line is one flat
//! JSON object for one measured PR × workload, PR numbers never decrease
//! down the file, and every metric a line records is an `end_to_end` or
//! `per_layer` metric that `BENCHMARK.json` declares, as a `<metric>.parent`
//! median beside a `<metric>.change` median. A line may also give the
//! spread behind a metric's medians, as `<metric>.parent_iqr` and
//! `<metric>.change_iqr` (the interquartile ranges of the runs), but only
//! beside both of that metric's medians. Every `PR N (perf_opt` entry
//! of CHANGES.md from PR 27 on has a line, and only the newest PR's lines
//! may still lack their commit.
//!
//! The workspace has no JSON dependency, so the test carries the small
//! parser it needs: objects, arrays, strings, numbers and `null`, which is
//! all either file holds.

use std::collections::BTreeSet;

#[derive(Debug)]
enum Json {
    Null,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos == p.bytes.len() {
            Ok(value)
        } else {
            Err(format!("trailing bytes at {}", p.pos))
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(&b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "expected `{}` at {}, found {:?}",
                byte as char,
                self.pos,
                other.map(|&b| b as char)
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if !self.bytes[self.pos..].starts_with(word.as_bytes()) {
            return Err(format!("bad literal at {}", self.pos));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("key `{key}` appears twice"));
            }
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at {}", self.pos)),
            }
        }
    }

    /// A string without escapes other than `\"` and `\\`: all this test's
    /// inputs need.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => match self.bytes.get(self.pos + 1) {
                    Some(&escaped @ (b'"' | b'\\')) => {
                        out.push(escaped);
                        self.pos += 2;
                    }
                    _ => return Err(format!("unsupported escape at {}", self.pos)),
                },
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let numeric = |b: &u8| b.is_ascii_digit() || b"+-.eE".contains(b);
        while self.bytes.get(self.pos).is_some_and(numeric) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number `{text}` at {start}"))
    }
}

fn root_file(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `name` of every entry of `BENCHMARK.json`'s array `section`.
fn declared_names(benchmark: &Json, section: &str) -> BTreeSet<String> {
    let Some(Json::Arr(entries)) = benchmark.get(section) else {
        panic!("BENCHMARK.json has no `{section}` array");
    };
    (entries.iter())
        .map(|entry| match entry.get("name") {
            Some(Json::Str(name)) => name.clone(),
            other => panic!("a `{section}` entry has name {other:?}"),
        })
        .collect()
}

/// Every line of `BENCH_trajectory.jsonl`, parsed.
fn trajectory() -> Vec<Json> {
    (root_file("BENCH_trajectory.jsonl").lines().enumerate())
        .map(|(at, line)| {
            Parser::parse(line)
                .unwrap_or_else(|e| panic!("BENCH_trajectory.jsonl line {}: {e}", at + 1))
        })
        .collect()
}

fn pr(record: &Json) -> u64 {
    match record.get("pr") {
        Some(Json::Num(v)) => *v as u64,
        other => panic!("a trajectory line has `pr` {other:?}"),
    }
}

/// The `N` of every `PR N (perf_opt` entry in a CHANGES.md text.
fn perf_opt_prs(changes: &str) -> BTreeSet<u64> {
    (changes.split("PR ").skip(1))
        .filter_map(|rest| {
            let digits = rest.find(|c: char| !c.is_ascii_digit())?;
            let (number, tail) = rest.split_at(digits);
            if !tail.starts_with(" (perf_opt") {
                return None;
            }
            number.parse().ok()
        })
        .collect()
}

/// The fields every line carries beside its medians.
const REQUIRED: [&str; 6] = ["pr", "commit", "workload", "pairs", "seconds", "vcpus"];

/// The workloads and the metrics `BENCHMARK.json` declares.
fn declared() -> (BTreeSet<String>, BTreeSet<String>) {
    let benchmark = Parser::parse(&root_file("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let mut metrics = declared_names(&benchmark, "end_to_end");
    metrics.extend(declared_names(&benchmark, "per_layer"));
    (declared_names(&benchmark, "workloads"), metrics)
}

/// Checks one trajectory line against the rules of the module docs and
/// returns its PR number; `what` names the line in the panic message.
fn check_line(
    line: &str,
    what: &str,
    workloads: &BTreeSet<String>,
    metrics: &BTreeSet<String>,
) -> f64 {
    let record = Parser::parse(line).unwrap_or_else(|e| panic!("{what}: {e}"));
    let Json::Obj(fields) = &record else {
        panic!("{what}: not an object");
    };
    for key in REQUIRED {
        assert!(record.get(key).is_some(), "{what}: no `{key}`");
    }
    let (mut medians, mut spreads) = (BTreeSet::new(), BTreeSet::new());
    for (key, value) in fields {
        match (key.as_str(), value) {
            ("pr" | "pairs" | "seconds" | "vcpus", Json::Num(v)) => {
                assert!(*v >= 1.0 && v.fract() == 0.0, "{what}: `{key}` is {v}");
            }
            // A PR's commit does not exist yet when its own line is
            // written; the next change fills it in (see
            // `only_the_newest_pr_may_lack_its_commit`).
            ("commit", Json::Str(_) | Json::Null) => {}
            ("workload", Json::Str(name)) => {
                assert!(workloads.contains(name), "{what}: unknown workload {name}");
            }
            (key, Json::Num(v)) => {
                let (metric, side) = (key.rsplit_once('.'))
                    .unwrap_or_else(|| panic!("{what}: unknown field `{key}`"));
                assert!(
                    metrics.contains(metric),
                    "{what}: `{metric}` is not a metric BENCHMARK.json declares"
                );
                match side {
                    "parent" | "change" => {
                        medians.insert((metric.to_string(), side == "change"));
                    }
                    "parent_iqr" | "change_iqr" => {
                        assert!(*v >= 0.0, "{what}: `{key}` is {v}");
                        spreads.insert(metric.to_string());
                    }
                    _ => panic!(
                        "{what}: `{key}` is neither a median nor an IQR of a parent or a change"
                    ),
                }
            }
            (key, value) => panic!("{what}: `{key}` has value {value:?}"),
        }
    }
    assert!(!medians.is_empty(), "{what}: records no metric");
    for metric in medians.iter().map(|(metric, _)| metric).chain(&spreads) {
        assert!(
            medians.contains(&(metric.clone(), false)) && medians.contains(&(metric.clone(), true)),
            "{what}: `{metric}` needs both a parent and a change median"
        );
    }
    match record.get("pr") {
        Some(Json::Num(pr)) => *pr,
        _ => unreachable!("checked above"),
    }
}

#[test]
fn every_line_is_a_flat_record_of_declared_metrics() {
    let (workloads, metrics) = declared();
    let trajectory = root_file("BENCH_trajectory.jsonl");
    let mut last_pr = 0.0;
    let mut lines = 0;
    for (at, line) in trajectory.lines().enumerate() {
        let what = format!("BENCH_trajectory.jsonl line {}", at + 1);
        let pr = check_line(line, &what, &workloads, &metrics);
        assert!(pr >= last_pr, "{what}: PR {pr} after PR {last_pr}");
        last_pr = pr;
        lines += 1;
    }
    assert!(lines > 0, "BENCH_trajectory.jsonl is empty");
}

#[test]
fn an_iqr_stands_only_beside_both_medians() {
    let (workloads, metrics) = declared();
    let head = r#"{"pr": 1, "commit": null, "workload": "audio_verify", "pairs": 5, "seconds": 20, "vcpus": 2"#;
    let line = |tail: &str| format!("{head}, {tail}}}");
    let medians = r#""query_p50_us.parent": 2.0, "query_p50_us.change": 1.0"#;
    let accepted = [
        medians.to_string(),
        format!(r#"{medians}, "query_p50_us.parent_iqr": 0.5, "query_p50_us.change_iqr": 0.25"#),
        format!(r#"{medians}, "query_p50_us.change_iqr": 0.0"#),
    ];
    for tail in accepted {
        check_line(&line(&tail), &tail, &workloads, &metrics);
    }
    let refused = [
        format!(r#"{medians}, "query_qps.parent_iqr": 3.0"#),
        r#""query_p50_us.parent": 2.0, "query_p50_us.parent_iqr": 0.5"#.to_string(),
        format!(r#"{medians}, "query_p50_us.change_iqr": -1.0"#),
        format!(r#"{medians}, "query_p50_us.iqr": 1.0"#),
        format!(r#"{medians}, "no_such_metric.parent_iqr": 1.0"#),
    ];
    for tail in refused {
        let checked =
            std::panic::catch_unwind(|| check_line(&line(&tail), "", &workloads, &metrics));
        assert!(checked.is_err(), "accepted {tail}");
    }
}

#[test]
fn every_perf_opt_pr_from_27_has_a_trajectory_line() {
    let recorded: BTreeSet<u64> = trajectory().iter().map(pr).collect();
    let claimed = perf_opt_prs(&root_file("CHANGES.md"));
    assert!(
        claimed.range(27..).next().is_some(),
        "found no `PR N (perf_opt` entry from PR 27 on in CHANGES.md"
    );
    let missing: Vec<&u64> = (claimed.range(27..))
        .filter(|n| !recorded.contains(n))
        .collect();
    assert!(
        missing.is_empty(),
        "CHANGES.md has perf_opt PRs {missing:?} that BENCH_trajectory.jsonl has no line for"
    );
}

#[test]
fn only_the_newest_pr_may_lack_its_commit() {
    let records = trajectory();
    let newest = records
        .iter()
        .map(pr)
        .max()
        .expect("BENCH_trajectory.jsonl is empty");
    for record in &records {
        if matches!(record.get("commit"), Some(Json::Null)) {
            assert_eq!(
                pr(record),
                newest,
                "PR {}'s line has `commit: null`; only the newest PR ({newest}) may",
                pr(record)
            );
        }
    }
}

#[test]
fn the_parser_refuses_what_the_file_must_not_hold() {
    for bad in [
        "{\"pr\": 1,}",
        "{\"pr\": 1} trailing",
        "{\"pr\": 1, \"pr\": 2}",
        "{\"pr\": NaN}",
        "{\"pr\" 1}",
        "{\"pr\": true}",
        "",
    ] {
        assert!(Parser::parse(bad).is_err(), "{bad:?} parsed");
    }
    let ok = Parser::parse("{\"a\": [1, -2.5e3, null], \"b\": \"x\\\"y\"}").unwrap();
    assert!(matches!(ok.get("b"), Some(Json::Str(s)) if s == "x\"y"));
}

#[test]
fn perf_opt_entries_are_read_by_number() {
    let entries = "PR 40 (perf_opt: a) PR 41 (simplicity: b) PR 4 (perf_opt PR x (perf_opt PR 7";
    assert_eq!(perf_opt_prs(entries), BTreeSet::from([4, 40]));
}
