//! The metric catalogue, the correctness tally and the one-line JSON
//! result.
//!
//! The catalogue here and `BENCHMARK.json` name the same metrics with the
//! same units; a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric: name and unit.
pub type Spec = (&'static str, &'static str);

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[Spec] = &[
    ("setup_s", "s"),
    ("table1_s", "s"),
    ("qucad_acc", "%"),
    ("serve_lo_p50_ms", "ms"),
    ("serve_hi_p50_ms", "ms"),
    ("traj_per_s", "traj/s"),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[Spec] = &[
    ("calibration.history_ms", "ms"),
    ("qnn.data.build_ms", "ms"),
    ("qnn.train.base_ms", "ms"),
    ("qucad.framework.method.baseline_ms", "ms"),
    ("qucad.framework.method.nat_once_ms", "ms"),
    ("qucad.framework.method.nat_everyday_ms", "ms"),
    ("qucad.framework.method.onetime_compression_ms", "ms"),
    ("qucad.framework.method.qucad_wo_offline_ms", "ms"),
    ("qucad.framework.method.qucad_ms", "ms"),
    ("qnn.executor.profile_ms", "ms"),
    ("qucad.cluster.kmedians_ms", "ms"),
    ("qucad.admm.offline_compress_ms", "ms"),
    ("qucad.repository.match_us", "us"),
    ("qucad.admm.online_compress_ms", "ms"),
    ("qnn.executor.daily_eval_ms", "ms"),
    ("qucad.framework.residual_ms", "ms"),
    ("qucad.framework.qucad_acc", "%"),
    ("qucad.framework.days_reused", "count"),
    ("qucad.framework.days_compressed", "count"),
    ("qucad.framework.days_failed", "count"),
    ("qucad.admm.evals", "count"),
    ("qnn.executor.cache_hits", "count"),
    ("qnn.executor.cache_misses", "count"),
    ("qnn.executor.cache_hit_rate", "ratio"),
    ("qnn.executor.evals_per_s", "1/s"),
    ("transpile.template.compile_us", "us"),
    ("transpile.template.bind_us", "us"),
    ("qnn.executor.compile_program_us", "us"),
    ("quasim.density.run_us", "us"),
    ("qnn.executor.z_scores_us", "us"),
    ("quasim.density.segments", "count"),
    ("quasim.density.bytes_moved", "B-computed"),
    ("qnn.executor.parallel_eff_table1", "ratio"),
    ("qnn.executor.parallel_eff_wide", "ratio"),
    ("serve.codec.request_us", "us"),
    ("serve.codec.response_us", "us"),
    ("serve.max_rps", "req/s"),
    ("serve.lo_p99_ms", "ms"),
    ("serve.hi_p99_ms", "ms"),
    ("serve.batch.mean_size_lo", "req"),
    ("serve.batch.mean_size_hi", "req"),
    ("serve.batch.cross_client_share_lo", "ratio"),
    ("serve.batch.cross_client_share_hi", "ratio"),
    ("serve.batch.peak_lo", "req"),
    ("serve.batch.peak_hi", "req"),
    ("qnn.executor.evaluate_probes_us_b1", "us"),
    ("qnn.executor.evaluate_probes_us_bmean", "us"),
    ("serve.residual_p50_ms", "ms"),
    ("serve.gen.late_p99_ms", "ms"),
    ("quasim.trajectory.panel_ms", "ms"),
    ("quasim.trajectory.panel_width", "count"),
    ("quasim.trajectory.state_bytes", "B-computed"),
    ("qnn.executor.compile_program_16q_ms", "ms"),
    ("bench.trace_overhead_table1", "ratio"),
    ("bench.trace_overhead_serve", "ratio"),
    ("bench.trace_overhead_wide", "ratio"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Records `value` under `name`, replacing an earlier value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Tally of checked operations.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
}

impl Checks {
    /// Counts one checked operation; a wrong one is reported on stderr.
    pub fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }
}

/// The result line: every metric of `catalogue` with its unit. A metric
/// that is missing or not finite makes the run incorrect (and is printed
/// as 0 so the line stays valid JSON).
pub fn result_line(catalogue: &[Spec], metrics: &Metrics, checks: &Checks) -> String {
    let mut correct = checks.failed == 0 && checks.attempted > 0;
    let mut body = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = match metrics.get(name) {
            Some(v) if v.is_finite() => v,
            other => {
                eprintln!("metric {name} is missing or not finite: {other:?}");
                correct = false;
                0.0
            }
        };
        if i > 0 {
            body.push_str(", ");
        }
        // `{:?}` prints the shortest string that reads back as the same
        // f64, so every measured digit survives.
        write!(
            body,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        checks.attempted.max(1),
        checks.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Value;

    fn benchmark_json() -> Value {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn specs(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Value::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Value::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    }

    fn owned(catalogue: &[Spec]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let bench = benchmark_json();
        assert_eq!(specs(&bench, "end_to_end"), owned(END_TO_END));
        assert_eq!(specs(&bench, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_round_trips_every_metric() {
        for catalogue in [END_TO_END, PER_LAYER] {
            let mut m = Metrics::default();
            for (i, (name, _)) in catalogue.iter().enumerate() {
                m.set(name, 0.1 + i as f64 / 3.0);
            }
            let checks = Checks {
                attempted: 7,
                failed: 0,
            };
            let line = result_line(catalogue, &m, &checks);
            let v = json::parse(&line).expect("result line is JSON");
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(7.0));
            let metrics = v.get("metrics").expect("metrics");
            assert_eq!(metrics.keys().len(), catalogue.len());
            for (name, unit) in catalogue {
                let entry = metrics.get(name).expect("metric present");
                let value = entry.get("value").and_then(Value::as_f64).expect("value");
                assert_eq!(value.to_bits(), m.get(name).expect("set").to_bits());
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(*unit));
            }
        }
    }

    #[test]
    fn missing_or_non_finite_metric_makes_the_run_incorrect() {
        let mut m = Metrics::default();
        m.set("setup_s", f64::NAN);
        let checks = Checks {
            attempted: 1,
            failed: 0,
        };
        let v = json::parse(&result_line(END_TO_END, &m, &checks)).expect("still JSON");
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let mut c = Checks::default();
        c.op(true, "fine");
        c.op(false, "wrong");
        assert_eq!((c.attempted, c.failed), (2, 1));
    }

    /// A small JSON reader, enough to read `BENCHMARK.json` and the result
    /// line back.
    mod json {
        #[derive(Debug, Clone, PartialEq)]
        pub enum Value {
            Null,
            Bool(bool),
            Num(f64),
            Str(String),
            Arr(Vec<Value>),
            Obj(Vec<(String, Value)>),
        }

        impl Value {
            pub fn get(&self, key: &str) -> Option<&Value> {
                match self {
                    Value::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                    _ => None,
                }
            }
            pub fn keys(&self) -> Vec<&str> {
                match self {
                    Value::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
                    _ => Vec::new(),
                }
            }
            pub fn as_array(&self) -> Option<&[Value]> {
                match self {
                    Value::Arr(a) => Some(a),
                    _ => None,
                }
            }
            pub fn as_str(&self) -> Option<&str> {
                match self {
                    Value::Str(s) => Some(s),
                    _ => None,
                }
            }
            pub fn as_f64(&self) -> Option<f64> {
                match self {
                    Value::Num(n) => Some(*n),
                    _ => None,
                }
            }
        }

        pub fn parse(text: &str) -> Result<Value, String> {
            let mut p = Parser {
                s: text.as_bytes(),
                i: 0,
            };
            let v = p.value()?;
            p.ws();
            if p.i == p.s.len() {
                Ok(v)
            } else {
                Err(format!("trailing input at {}", p.i))
            }
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
            fn eat(&mut self, c: u8) -> Result<(), String> {
                self.ws();
                if self.s.get(self.i) == Some(&c) {
                    self.i += 1;
                    Ok(())
                } else {
                    Err(format!("expected '{}' at {}", c as char, self.i))
                }
            }
            fn value(&mut self) -> Result<Value, String> {
                self.ws();
                match self.s.get(self.i) {
                    Some(b'{') => self.object(),
                    Some(b'[') => self.array(),
                    Some(b'"') => self.string().map(Value::Str),
                    Some(b't') => self.word("true", Value::Bool(true)),
                    Some(b'f') => self.word("false", Value::Bool(false)),
                    Some(b'n') => self.word("null", Value::Null),
                    _ => self.number(),
                }
            }
            fn word(&mut self, w: &str, v: Value) -> Result<Value, String> {
                if self.s[self.i..].starts_with(w.as_bytes()) {
                    self.i += w.len();
                    Ok(v)
                } else {
                    Err(format!("bad literal at {}", self.i))
                }
            }
            fn number(&mut self) -> Result<Value, String> {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at {start}"))
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
                            let e = *self.s.get(self.i).ok_or("bad escape")?;
                            self.i += 1;
                            out.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                other => other as char,
                            });
                        }
                        _ => {
                            let start = self.i - 1;
                            let len = match c {
                                0x00..=0x7f => 1,
                                0xc0..=0xdf => 2,
                                0xe0..=0xef => 3,
                                _ => 4,
                            };
                            self.i = start + len;
                            out.push_str(
                                std::str::from_utf8(&self.s[start..self.i])
                                    .map_err(|e| e.to_string())?,
                            );
                        }
                    }
                }
            }
            fn array(&mut self) -> Result<Value, String> {
                self.eat(b'[')?;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("bad array at {}", self.i)),
                    }
                }
            }
            fn object(&mut self) -> Result<Value, String> {
                self.eat(b'{')?;
                let mut kv = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(kv));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    kv.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Obj(kv));
                        }
                        _ => return Err(format!("bad object at {}", self.i)),
                    }
                }
            }
        }
    }
}
