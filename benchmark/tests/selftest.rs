//! Self-test of the benchmark harness at a seconds-scale configuration:
//! every metric `BENCHMARK.json` names is emitted, finite and carries its
//! unit; every answer checks; the count-pass counts repeat exactly; and
//! each request's spans account for its wall time.

use rox_benchmark::serve::{count_pass, Checker};
use rox_benchmark::trace::SpanLog;
use rox_benchmark::workloads::setup;
use rox_benchmark::{run, Config, Scale, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Just enough JSON for `BENCHMARK.json`.
#[derive(Debug, Clone)]
enum Json {
    /// `true`, `false` or `null`.
    Lit,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
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

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {:?} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(
                self.s[self.i], b'\\',
                "escapes are not used in BENCHMARK.json"
            );
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.eat(b'{');
                let mut map = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(map);
                }
                loop {
                    let key = self.string();
                    self.eat(b':');
                    assert!(map.insert(key, self.value()).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(map);
                    }
                }
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                let word = ["true", "false", "null"]
                    .into_iter()
                    .find(|w| self.s[self.i..].starts_with(w.as_bytes()))
                    .unwrap_or_else(|| panic!("bad literal at byte {}", self.i));
                self.i += word.len();
                Json::Lit
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("utf-8");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("number {text:?}")))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes");
    v
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }
}

fn manifest() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark"))
}

/// `(name, unit)` of every metric of one `BENCHMARK.json` section.
fn named(section: &Json) -> Vec<(String, String)> {
    section
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn tiny(workload: Workload, trace: bool, dir: &str) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        scale: Scale::tiny(),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir),
    }
}

#[test]
fn manifest_names_what_the_harness_reports() {
    let m = manifest();
    let workloads: Vec<&str> = m
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, known);
    let as_owned = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
        xs.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        named(m.get("end_to_end")),
        as_owned(&rox_benchmark::END_TO_END)
    );
    assert_eq!(
        named(m.get("per_layer")),
        as_owned(&rox_benchmark::PER_LAYER)
    );
    assert!(m.get("run_seconds").num() >= 1.0);
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let m = manifest();
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let cfg = tiny(
                workload,
                trace,
                &format!("emit-{}-{trace}", workload.name()),
            );
            let outcome = run(&cfg).expect("tiny run");
            assert!(
                outcome.correct,
                "{} trace={trace}: wrong answers",
                workload.name()
            );
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            let line = parse(&outcome.result_line());
            let metrics = match line.get("metrics") {
                Json::Obj(map) => map.clone(),
                _ => panic!("metrics is not an object"),
            };
            let want = named(m.get(section));
            assert_eq!(
                metrics.len(),
                want.len(),
                "{}: extra or missing metrics",
                workload.name()
            );
            for (name, unit) in want {
                let metric = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{}: {name} not emitted", workload.name()));
                assert!(
                    metric.get("value").num().is_finite(),
                    "{name} is not finite"
                );
                assert_eq!(metric.get("unit").str(), unit, "{name} unit");
            }
            if !trace {
                for (name, metric) in &metrics {
                    assert!(
                        metric.get("value").num() > 0.0,
                        "{}: {name} is 0",
                        workload.name()
                    );
                }
            }
        }
    }
}

#[test]
fn count_pass_counts_repeat_exactly() {
    for workload in Workload::ALL {
        let dir =
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("counts-{}", workload.name()));
        let counts: Vec<_> = (0..2)
            .map(|i| {
                let dir = dir.join(i.to_string());
                std::fs::remove_dir_all(&dir).ok();
                let mut log = SpanLog::new(Instant::now());
                let bench = setup(workload, Scale::tiny(), 11, &dir, &mut log, 0).expect("setup");
                let (c, log) = count_pass(&bench, &Checker::default());
                assert_eq!(log.errors, 0, "{:?}", log.first_error);
                drop(bench);
                std::fs::remove_dir_all(&dir).ok();
                c
            })
            .collect();
        assert_eq!(counts[0], counts[1], "{}: counts differ", workload.name());
        assert!(counts[0].queries > 0 && counts[0].exec_tuples > 0);
        if workload == Workload::XmarkChurn {
            assert!(counts[0].commits > 0 && counts[0].fsyncs > 0 && counts[0].pool_misses > 0);
        }
    }
}

#[test]
fn request_spans_account_for_request_wall_time() {
    for workload in Workload::ALL {
        let cfg = tiny(workload, true, &format!("spans-{}", workload.name()));
        let outcome = run(&cfg).expect("tiny traced run");
        let spans = outcome.spans.spans();
        let own = outcome.spans.self_times();
        let mut requests = 0;
        for (i, root) in spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "request")
        {
            requests += 1;
            let children: Duration = spans
                .iter()
                .filter(|s| s.parent == Some(i))
                .map(|s| s.duration())
                .sum();
            assert_eq!(
                own[i] + children,
                root.duration(),
                "children overlap in {root:?}"
            );
        }
        assert!(requests > 0, "{}: no traced requests", workload.name());
    }
}
