//! Tests of the benchmark's own arithmetic: the numbers it prints are
//! only as good as the median, percentile, schedule, self-time and
//! share code behind them.

use rlnoc_benchmark::catalog::{Measured, END_TO_END, PER_LAYER};
use rlnoc_benchmark::check::{digest, Checker};
use rlnoc_benchmark::openloop::{due_offset, lane_indices, ops_due_within, wait_until, Timing};
use rlnoc_benchmark::output::{valid_name, valid_unit, Metric, RunResult};
use rlnoc_benchmark::spans::{self_time_ns, Span, SpanLog};
use rlnoc_benchmark::stats::{
    highest_supported_tail, iqr_pct, median, percentile, quartiles, samples_beyond, shares,
};
use rlnoc_benchmark::Workload;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- stats

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 90.0), 90.0);
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    let few = [10.0, 30.0, 20.0];
    assert_eq!(percentile(&few, 90.0), 30.0);
    assert_eq!(percentile(&few, 1.0), 10.0);
    assert_eq!(percentile(&[], 90.0), 0.0);
}

#[test]
fn a_tail_needs_ten_samples_beyond_it() {
    // 480 samples: p90 leaves 48 beyond, p95 24, p99 only 4.
    assert_eq!(samples_beyond(480, 90.0), 48);
    assert_eq!(samples_beyond(480, 99.0), 4);
    assert_eq!(highest_supported_tail(480), Some(95.0));
    // The phase-A size at 30 s: 320 samples, p95 leaves 16.
    assert_eq!(highest_supported_tail(320), Some(95.0));
    // 120 closed-loop ops support p90 (12 beyond) and no more.
    assert_eq!(highest_supported_tail(120), Some(90.0));
    // 100 samples: p90 leaves exactly 10.
    assert_eq!(highest_supported_tail(100), Some(90.0));
    assert_eq!(highest_supported_tail(99), Some(75.0));
    // 16 ops support no tail at all.
    assert_eq!(highest_supported_tail(16), None);
    assert_eq!(highest_supported_tail(10_000), Some(99.9));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
    assert_eq!(quartiles(&[5.0, 7.0]), (4.5, 7.5));
    assert!((iqr_pct(&v) - 100.0).abs() < 1e-12);
    assert_eq!(iqr_pct(&[3.0]), 0.0);
    assert_eq!(iqr_pct(&[2.0, 2.0, 2.0, 2.0]), 0.0);
}

#[test]
fn share_columns_and_the_remainder_sum_to_one() {
    let parts = [
        0.21e9, 0.024e9, 0.46e9, 0.1156e9, 0.097e9, 0.0171e9, 0.0, 0.0, 4.3e5,
    ];
    let (cols, unattributed) = shares(&parts, 1.0e9);
    let total: f64 = cols.iter().sum::<f64>() + unattributed;
    assert!((total - 1.0).abs() < 1e-9, "columns sum to {total}");
    assert!((cols[2] - 0.46).abs() < 1e-12);
    assert!(unattributed > 0.0);

    // Overlapping parts exceed the whole: the remainder goes negative
    // and the sum still closes.
    let (cols, unattributed) = shares(&[0.7, 0.6], 1.0);
    assert!(unattributed < 0.0);
    assert!((cols.iter().sum::<f64>() + unattributed - 1.0).abs() < 1e-9);

    // Nothing timed: everything is unattributed.
    assert_eq!(shares(&[1.0, 2.0], 0.0), (vec![0.0, 0.0], 1.0));
}

// ------------------------------------------------------------ open loop

#[test]
fn due_times_follow_the_rate_not_the_previous_op() {
    assert_eq!(due_offset(0, 16), Duration::ZERO);
    assert_eq!(due_offset(1, 16), Duration::from_micros(62_500));
    assert_eq!(due_offset(16, 16), Duration::from_secs(1));
    assert_eq!(due_offset(479, 16), Duration::from_nanos(29_937_500_000));
    assert_eq!(ops_due_within(30.0, 16), 480);
    assert_eq!(ops_due_within(20.0, 16), 320);
    assert_eq!(ops_due_within(0.01, 16), 0);
}

#[test]
fn lanes_split_the_schedule_round_robin() {
    let a: Vec<usize> = lane_indices(0, 2, 7).collect();
    let b: Vec<usize> = lane_indices(1, 2, 7).collect();
    assert_eq!(a, [0, 2, 4, 6]);
    assert_eq!(b, [1, 3, 5]);
    let mut all: Vec<usize> = a.into_iter().chain(b).collect();
    all.sort_unstable();
    assert_eq!(all, (0..7).collect::<Vec<_>>());
    assert_eq!(lane_indices(1, 2, 1).count(), 0);
}

#[test]
fn latency_counts_from_the_due_time_and_lateness_never_goes_negative() {
    let ms = Duration::from_millis;
    let early = Timing {
        due: ms(100),
        sent: ms(90),
        done: ms(140),
    };
    assert_eq!(early.lateness(), Duration::ZERO);
    assert_eq!(early.latency(), ms(40));
    // A stalled connection sends 40 ms late: the user on the schedule
    // waited those 40 ms too.
    let t = Timing {
        due: ms(1_000),
        sent: ms(1_040),
        done: ms(1_090),
    };
    assert_eq!(t.lateness(), ms(40));
    assert_eq!(t.latency(), ms(90));
}

#[test]
fn wait_until_does_not_return_early() {
    let start = Instant::now();
    wait_until(start, Duration::from_millis(3));
    assert!(start.elapsed() >= Duration::from_millis(3));
    // A due time already past returns at once.
    let t0 = Instant::now();
    wait_until(start, Duration::from_millis(1));
    assert!(t0.elapsed() < Duration::from_millis(50));
}

// ---------------------------------------------------------------- spans

fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        op: Some(1),
        name: "t",
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_is_duration_minus_child_cover() {
    let all = [
        span(0, None, 0, 100),
        span(1, Some(0), 10, 30),
        span(2, Some(0), 20, 50),  // overlaps span 1: counted once
        span(3, Some(0), 90, 120), // runs past the parent: clipped
        span(4, Some(1), 12, 18),  // grandchild: not the parent's cover
        span(5, None, 40, 60),     // unrelated
    ];
    // Cover of span 0 = [10, 50) ∪ [90, 100) = 50.
    assert_eq!(self_time_ns(&all[0], &all), 50);
    assert_eq!(self_time_ns(&all[1], &all), 14);
    assert_eq!(self_time_ns(&all[2], &all), 30);
    // A child that covers its parent entirely leaves no self time.
    let full = [span(0, None, 5, 9), span(1, Some(0), 0, 20)];
    assert_eq!(self_time_ns(&full[0], &full), 0);
}

#[test]
fn span_log_records_nesting_and_a_disabled_log_records_nothing() {
    let mut log = SpanLog::new(true, Instant::now(), 0);
    let root = log.open("run", None, None);
    let op = log.open("op", root.id(), Some(7));
    log.span("call", op.id(), Some(7), || std::hint::black_box(1 + 1));
    log.close(op);
    log.close(root);
    let spans = log.spans();
    assert_eq!(spans.len(), 3);
    let call = spans.iter().find(|s| s.name == "call").expect("call span");
    let op = spans.iter().find(|s| s.name == "op").expect("op span");
    let run = spans.iter().find(|s| s.name == "run").expect("run span");
    assert_eq!(call.parent, Some(op.id));
    assert_eq!(op.parent, Some(run.id));
    assert_eq!(run.parent, None);
    assert_eq!((call.op, op.op, run.op), (Some(7), Some(7), None));
    assert!(run.start_ns <= op.start_ns && op.end_ns <= run.end_ns);
    assert!(self_time_ns(run, spans) <= run.duration_ns());

    let mut jsonl = Vec::new();
    log.write_jsonl(&mut jsonl).expect("write to memory");
    let text = String::from_utf8(jsonl).expect("utf-8");
    assert_eq!(text.lines().count(), 3);
    for line in text.lines() {
        let v = json::parse(line).expect("each span line is JSON");
        for key in [
            "id", "parent", "op", "name", "start_ns", "end_ns", "self_ns",
        ] {
            assert!(v.get(key).is_some(), "span line lacks `{key}`: {line}");
        }
    }

    let mut off = SpanLog::new(false, Instant::now(), 0);
    let root = off.open("run", None, None);
    assert_eq!(root.id(), None);
    off.close(root);
    assert!(off.spans().is_empty());

    // Two threads' logs merge by id range.
    let origin = Instant::now();
    let mut a = SpanLog::new(true, origin, 0);
    let mut b = SpanLog::new(true, origin, 1 << 24);
    a.span("x", None, None, || ());
    b.span("y", None, None, || ());
    a.absorb(b);
    let ids: Vec<u32> = a.spans().iter().map(|s| s.id).collect();
    assert_eq!(ids, [0, 1 << 24]);
}

// --------------------------------------------------------------- output

/// A strict reader for the JSON this benchmark writes and reads,
/// independent of the writer under test.
mod json {
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        Text(String),
        List(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        pub fn keys(&self) -> Vec<&str> {
            match self {
                Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                _ => Vec::new(),
            }
        }
        pub fn list(&self) -> &[Value] {
            match self {
                Value::List(items) => items,
                _ => &[],
            }
        }
        pub fn text(&self) -> &str {
            match self {
                Value::Text(s) => s,
                _ => "",
            }
        }
        pub fn number(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }
        pub fn as_map(&self) -> BTreeMap<&str, &Value> {
            match self {
                Value::Object(fields) => fields.iter().map(|(k, v)| (k.as_str(), v)).collect(),
                _ => BTreeMap::new(),
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.space();
        if p.at != p.bytes.len() {
            return Err(format!("trailing bytes at {}", p.at));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        at: usize,
    }

    impl Parser<'_> {
        fn space(&mut self) {
            while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
                self.at += 1;
            }
        }
        fn eat(&mut self, b: u8) -> Result<(), String> {
            self.space();
            if self.bytes.get(self.at) == Some(&b) {
                self.at += 1;
                Ok(())
            } else {
                Err(format!("expected `{}` at {}", b as char, self.at))
            }
        }
        fn word(&mut self, w: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.at..].starts_with(w.as_bytes()) {
                self.at += w.len();
                Ok(v)
            } else {
                Err(format!("bad literal at {}", self.at))
            }
        }
        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let start = self.at;
            while let Some(&b) = self.bytes.get(self.at) {
                match b {
                    b'"' => {
                        let s = std::str::from_utf8(&self.bytes[start..self.at])
                            .map_err(|e| e.to_string())?
                            .to_string();
                        self.at += 1;
                        return Ok(s);
                    }
                    b'\\' => return Err("escapes are not used by this benchmark".into()),
                    _ => self.at += 1,
                }
            }
            Err("unterminated string".into())
        }
        fn value(&mut self) -> Result<Value, String> {
            self.space();
            match self.bytes.get(self.at) {
                Some(b'{') => {
                    self.at += 1;
                    let mut fields = Vec::new();
                    self.space();
                    if self.bytes.get(self.at) == Some(&b'}') {
                        self.at += 1;
                        return Ok(Value::Object(fields));
                    }
                    loop {
                        self.space();
                        let key = self.string()?;
                        self.eat(b':')?;
                        fields.push((key, self.value()?));
                        self.space();
                        match self.bytes.get(self.at) {
                            Some(b',') => self.at += 1,
                            Some(b'}') => {
                                self.at += 1;
                                return Ok(Value::Object(fields));
                            }
                            _ => return Err(format!("expected `,` or `}}` at {}", self.at)),
                        }
                    }
                }
                Some(b'[') => {
                    self.at += 1;
                    let mut items = Vec::new();
                    self.space();
                    if self.bytes.get(self.at) == Some(&b']') {
                        self.at += 1;
                        return Ok(Value::List(items));
                    }
                    loop {
                        items.push(self.value()?);
                        self.space();
                        match self.bytes.get(self.at) {
                            Some(b',') => self.at += 1,
                            Some(b']') => {
                                self.at += 1;
                                return Ok(Value::List(items));
                            }
                            _ => return Err(format!("expected `,` or `]` at {}", self.at)),
                        }
                    }
                }
                Some(b'"') => Ok(Value::Text(self.string()?)),
                Some(b't') => self.word("true", Value::Bool(true)),
                Some(b'f') => self.word("false", Value::Bool(false)),
                Some(b'n') => self.word("null", Value::Null),
                Some(_) => {
                    let start = self.at;
                    while self.bytes.get(self.at).is_some_and(|b| {
                        matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                    }) {
                        self.at += 1;
                    }
                    let raw = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii");
                    // JSON numbers: no leading `+` or `.`, no bare `-`.
                    let ok = raw
                        .strip_prefix('-')
                        .unwrap_or(raw)
                        .starts_with(|c: char| c.is_ascii_digit());
                    match raw.parse::<f64>() {
                        Ok(n) if ok && n.is_finite() => Ok(Value::Number(n)),
                        _ => Err(format!("bad number `{raw}` at {start}")),
                    }
                }
                None => Err("unexpected end".into()),
            }
        }
    }
}

#[test]
fn result_line_round_trips_with_every_digit() {
    let result = RunResult {
        correct: true,
        attempted: 54_345,
        failed: 0,
        metrics: vec![
            Metric {
                name: "op_p50_ms",
                value: 247.775_698_999_999_97,
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: 0.000_001_931,
                unit: "s",
            },
            Metric {
                name: "sim_cycles_per_s",
                value: 5_218_352.109_554_904_5,
                unit: "1/s",
            },
            Metric {
                name: "noc-rl.mode0_share",
                value: 1.0 / 3.0,
                unit: "share",
            },
            Metric {
                name: "harness.trace_overhead_pct",
                value: -0.25,
                unit: "%",
            },
        ],
    };
    let line = result.to_json();
    assert!(!line.contains('\n'));
    let parsed = json::parse(&line).expect("the result line is JSON");
    assert_eq!(parsed.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(parsed.get("correct"), Some(&json::Value::Bool(true)));
    assert_eq!(
        parsed.get("attempted").and_then(json::Value::number),
        Some(54_345.0)
    );
    assert_eq!(
        parsed.get("failed").and_then(json::Value::number),
        Some(0.0)
    );
    let metrics = parsed.get("metrics").expect("metrics");
    assert_eq!(metrics.keys().len(), result.metrics.len());
    for m in &result.metrics {
        let got = metrics
            .get(m.name)
            .unwrap_or_else(|| panic!("{} missing", m.name));
        assert_eq!(got.keys(), ["value", "unit"]);
        // Bit-exact: the printed digits are all of them.
        assert_eq!(
            got.get("value")
                .and_then(json::Value::number)
                .map(f64::to_bits),
            Some(m.value.to_bits()),
            "{} lost digits",
            m.name
        );
        assert_eq!(got.get("unit").map(json::Value::text), Some(m.unit));
    }
    assert!(result.table().contains("op_p50_ms"));
}

#[test]
#[should_panic(expected = "is NaN")]
fn a_value_that_is_not_a_number_never_reaches_the_result_line() {
    let _ = RunResult {
        correct: true,
        attempted: 1,
        failed: 0,
        metrics: vec![Metric {
            name: "op_p50_ms",
            value: f64::NAN,
            unit: "ms",
        }],
    }
    .to_json();
}

#[test]
fn names_and_units_stay_inside_their_charsets() {
    for good in ["op_p50_ms", "noc-sim.step_loaded_us", "4xx", "a", "A-b_c.9"] {
        assert!(valid_name(good), "{good}");
    }
    let long = "x".repeat(65);
    for bad in [
        "",
        ".leading",
        "-leading",
        "_leading",
        "has space",
        "a/b",
        "ünï",
        &long,
    ] {
        assert!(!valid_name(bad), "{bad}");
    }
    assert!(valid_name(&"x".repeat(64)));
    for good in ["ms", "s", "1/s", "count", "%", "MiB", "1/1000", "pJ"] {
        assert!(valid_unit(good), "{good}");
    }
    for bad in ["", "per second", "µs", "seventeen_chars__"] {
        assert!(!valid_unit(bad), "{bad}");
    }
}

#[test]
fn the_catalog_is_well_formed_and_is_what_benchmark_json_declares() {
    let mut seen = BTreeMap::new();
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "{name}");
        assert!(valid_unit(unit), "{name}: {unit}");
        assert!(seen.insert(name, unit).is_none(), "{name} listed twice");
    }
    assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));

    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&manifest).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    assert_eq!(
        doc.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let declared = |section: &str| -> Vec<(String, String)> {
        doc.get(section)
            .expect("section")
            .list()
            .iter()
            .map(|m| {
                let f = m.as_map();
                (f["name"].text().to_string(), f["unit"].text().to_string())
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
    for m in doc.get("end_to_end").expect("section").list() {
        assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(json::Value::number).expect("bound");
        assert!((0.0..=0.25).contains(&bound));
        assert!(["lower", "higher"].contains(&m.get("better").expect("better").text()));
    }
    for m in doc.get("per_layer").expect("section").list() {
        assert_eq!(m.keys(), ["name", "unit", "better"]);
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .expect("workloads")
        .list()
        .iter()
        .map(|w| {
            assert_eq!(w.keys(), ["name", "why"]);
            let why = w.get("why").expect("why").text();
            assert!(why.len() <= 200 && !why.contains('\n'));
            w.get("name").expect("name").text()
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    assert_eq!(Workload::from_name("adaptive_cool_8x8"), None);
}

#[test]
fn a_run_reports_every_catalog_metric_and_only_those() {
    let mut m = Measured::default();
    for (i, &(name, _)) in END_TO_END.iter().enumerate() {
        m.set(name, i as f64 + 0.5);
    }
    m.set("noc-sim.cycles_per_op", 32_211.0);
    let e2e = m.end_to_end();
    assert_eq!(e2e.len(), END_TO_END.len());
    assert_eq!(e2e[1].name, "op_p50_ms");
    assert_eq!(e2e[1].value, 1.5);
    let layers = m.per_layer();
    assert_eq!(layers.len(), PER_LAYER.len());
    // Measured where measured, 0 where the workload has no such layer.
    let by_name: BTreeMap<&str, f64> = layers.iter().map(|l| (l.name, l.value)).collect();
    assert_eq!(by_name["noc-sim.cycles_per_op"], 32_211.0);
    assert_eq!(by_name["rlnoc-serve.capacity_cps"], 0.0);
    assert_eq!(m.measured_per_layer(), ["noc-sim.cycles_per_op"]);
}

#[test]
#[should_panic(expected = "not in the catalog")]
fn a_metric_outside_the_catalog_is_a_bug() {
    Measured::default().set("op_p99_ms", 1.0);
}

// ---------------------------------------------------------------- check

#[test]
fn repetitions_of_one_op_must_render_identically() {
    assert_eq!(digest(""), 0xCBF2_9CE4_8422_2325);
    assert_ne!(digest("a"), digest("b"));
    // Seed 7 has no golden file, so only the run's own checks apply.
    let mut c = Checker::new("hot_static_8x8", 7);
    assert!(c.check_text("op", "scheme CRC\n"));
    assert!(c.check_text("op", "scheme CRC\n"));
    assert!(c.check_text("other", "scheme RL\n"));
    let verdict = c.finish(false);
    assert!(verdict.violations.is_empty());
    assert_eq!((verdict.attempted, verdict.failed), (0, 0));

    let mut c = Checker::new("hot_static_8x8", 7);
    assert!(c.check_text("op", "packets_delivered 10\n"));
    assert!(!c.check_text("op", "packets_delivered 11\n"));
    // Later repetitions still compare with the first.
    assert!(c.check_text("op", "packets_delivered 10\n"));
    c.op("flow 3", Some("took 1.2s".to_string()));
    c.op("flow 4", None);
    c.ops(
        "round 0",
        6_000,
        Some((2, "campaigns not done".to_string())),
    );
    let verdict = c.finish(false);
    assert_eq!((verdict.attempted, verdict.failed), (6_002, 3));
    assert_eq!(verdict.violations.len(), 3);
    assert!(verdict.violations[0].contains("rendered differently"));
    assert_eq!(verdict.violations[1], "flow 3: took 1.2s");
}

#[test]
fn at_the_golden_seed_an_unknown_digest_fails_the_run() {
    let mut c = Checker::new("hot_static_8x8", 2019);
    c.check_text("op", "not what the simulator prints");
    let verdict = c.finish(false);
    assert!(verdict
        .violations
        .iter()
        .any(|v| v.contains("differs from golden")));
    // A golden mismatch fails the run though no op was counted.
    assert_eq!((verdict.attempted, verdict.failed), (0, 1));
    // A run that produced nothing is missing what the file lists.
    let verdict = Checker::new("serve_mixed", 2019).finish(false);
    assert!(verdict
        .violations
        .iter()
        .any(|v| v.contains("not produced")));
}
