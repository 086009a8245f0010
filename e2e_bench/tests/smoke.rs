//! Runs the built binary at `--smoke` scale and holds its output to
//! `BENCHMARK.json`: the names it emits are exactly the names declared,
//! each with its unit; every gate passes; the same seed gives the same
//! inputs and another seed gives others.

use std::collections::BTreeMap;
use std::process::Command;

/// Just enough JSON for the benchmark's own output and declaration.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map
                .get(key)
                .unwrap_or_else(|| panic!("no key {key:?} in {self:?}")),
            other => panic!("{key:?} asked of non-object {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.skip_space();
        assert_eq!(
            self.bytes.get(self.at),
            Some(&byte),
            "at offset {}",
            self.at
        );
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.skip_space();
        self.bytes[self.at]
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        loop {
            let b = self.bytes[self.at];
            self.at += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let escaped = self.bytes[self.at];
                    self.at += 1;
                    out.push(match escaped {
                        b'n' => b'\n',
                        b't' => b'\t',
                        other => other,
                    });
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).expect("utf-8 string")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut map = BTreeMap::new();
                while self.peek() != b'}' {
                    let key = self.string();
                    self.eat(b':');
                    let previous = map.insert(key.clone(), self.value());
                    assert!(previous.is_none(), "key {key:?} twice");
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(map)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.at += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.at += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.at += 4;
                Json::Null
            }
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && b"+-.eE0123456789".contains(&self.bytes[self.at])
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|e| panic!("number {text:?}: {e}")),
                )
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = parser.value();
    parser.skip_space();
    assert_eq!(parser.at, text.len(), "trailing bytes after JSON value");
    value
}

/// Run the binary; return its standard output's lines as JSON values.
fn bench(args: &[&str]) -> Vec<Json> {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e-bench"))
        .args(args)
        .output()
        .expect("run e2e-bench");
    assert!(
        out.status.success(),
        "e2e-bench {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .map(parse)
        .collect()
}

fn declaration() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
}

/// `(name, unit)` pairs declared under `section`, sorted.
fn declared(spec: &Json, section: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = spec
        .get(section)
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect();
    out.sort();
    out
}

/// The whole smoke set at one trace level: every workload declared, in
/// order, each a summary line then a result line whose metrics are
/// exactly `section` of the declaration.
fn check_smoke_set(trace: &str, section: &str) {
    let spec = declaration();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let lines = bench(&["--smoke", "--seed", "7", "--trace", trace]);
    assert_eq!(
        lines.len(),
        2 * workloads.len(),
        "a summary and a result per workload"
    );
    let want = declared(&spec, section);
    for (pair, workload) in lines.chunks(2).zip(&workloads) {
        let (summary, result) = (&pair[0], &pair[1]);
        assert_eq!(summary.get("workload").str(), *workload);
        assert_eq!(summary.get("claim"), &Json::Null);
        assert_eq!(summary.get("ops_failed"), &Json::Num(0.0), "{workload}");
        assert_eq!(
            summary.get("gate_failures"),
            &Json::Arr(Vec::new()),
            "{workload}"
        );

        let Json::Obj(keys) = result else {
            panic!("result line is not an object")
        };
        let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}");
        assert_eq!(result.get("failed"), &Json::Num(0.0), "{workload}");
        let Json::Obj(metrics) = result.get("metrics") else {
            panic!("metrics is not an object")
        };
        let got: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(matches!(m.get("value"), Json::Num(_)), "{workload} {name}");
                (name.clone(), m.get("unit").str().to_string())
            })
            .collect();
        assert_eq!(
            got, want,
            "{workload}: emitted metrics differ from BENCHMARK.json {section}"
        );
        if section == "end_to_end" {
            for (name, m) in metrics {
                assert!(
                    m.get("value") != &Json::Num(0.0),
                    "{workload}: end-to-end {name} is 0"
                );
            }
        }
    }
}

#[test]
fn smoke_emits_exactly_the_declared_end_to_end_metrics() {
    check_smoke_set("0", "end_to_end");
}

#[test]
fn smoke_traced_emits_exactly_the_declared_layer_metrics() {
    check_smoke_set("1", "per_layer");
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    // `query_static` fingerprints both halves of the inputs: the MRT
    // bytes and the request schedule.
    let fingerprint = |seed: &str| -> String {
        let lines = bench(&["--smoke", "--workload", "query_static", "--seed", seed]);
        lines[0].get("workload_fingerprint").str().to_string()
    };
    let (first, again, other) = (fingerprint("7"), fingerprint("7"), fingerprint("8"));
    assert_eq!(first, again, "seed 7 twice");
    assert_ne!(first, other, "seeds 7 and 8");
}

#[test]
fn refuses_unknown_workloads_and_missing_arguments() {
    for args in [
        &["--workload", "nope"][..],
        &[][..],
        &["--trace", "2", "--smoke"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_e2e-bench"))
            .args(args)
            .output()
            .expect("run e2e-bench");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
