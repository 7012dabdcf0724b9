//! One property for all of the workspace's JSON: writing a
//! [`Value`] and parsing the text returns the same `Value`, in the compact
//! layout and in the line-per-member layouts. It runs over random values
//! (awkward strings, `u64::MAX`, negative, fractional and whole-number
//! floats, repeated object keys) and over every exporter's output on real data: a lifecycle
//! ring, a fleet report, the committed baseline, a Chrome trace, a health
//! monitor and the static gate's result.

use efex_bench::{suite, symgate};
use efex_core::{DeliveryPath, ExceptionKind, System};
use efex_fleet::{run_fleet, FleetConfig};
use efex_mips::cycles::CLOCK_MHZ;
use efex_report::Baseline;
use efex_trace::jsonval::{self, Value};
use efex_trace::{RingSink, Snapshot, StatsSnapshot};
use proptest::prelude::*;
use std::rc::Rc;

/// The property: every layout of `v` parses back to `v`.
fn round_trips(v: &Value) {
    for text in [v.to_string(), v.pretty(1), v.pretty(3)] {
        let back = jsonval::parse(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        assert_eq!(&back, v, "text:\n{text}");
    }
}

/// An emitted document: it parses, and the parsed value round-trips.
fn emitted(text: &str) -> Value {
    let v = jsonval::parse(text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
    round_trips(&v);
    v
}

/// A small deterministic generator (xorshift64*), so one proptest `u64`
/// seeds a whole random document.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn string(&mut self) -> String {
        const CHARS: [char; 16] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
            '\u{2028}', '😀',
        ];
        (0..self.below(6)).map(|_| CHARS[self.below(16)]).collect()
    }

    fn value(&mut self, depth: u32) -> Value {
        let kinds = if depth == 0 { 5 } else { 7 };
        match self.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(self.next() & 1 == 1),
            2 => Value::U64(match self.below(4) {
                0 => u64::MAX,
                1 => (1 << 53) + 1,
                2 => self.next() % 1000,
                _ => self.next(),
            }),
            3 => {
                let x = match self.below(4) {
                    0 => f64::from_bits(self.next()),
                    1 => -((self.next() % 10_000) as f64) / 8.0,
                    2 => (self.next() % 1000) as f64 + 0.5,
                    // Whole-number floats must come back as floats.
                    _ => (self.next() % 1000) as f64,
                };
                Value::F64(if x.is_finite() { x } else { -0.25 })
            }
            4 => Value::Str(self.string()),
            5 => Value::Arr((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
            _ => Value::Obj(
                (0..self.below(4))
                    // Keys from a tiny alphabet, so repeats are common.
                    .map(|_| {
                        (
                            ["k", "\"", "k"][self.below(3)].to_string(),
                            self.value(depth - 1),
                        )
                    })
                    .collect(),
            ),
        }
    }
}

proptest! {
    #[test]
    fn random_values_round_trip(seed: u64) {
        let mut gen = Gen(seed | 1);
        round_trips(&gen.value(3));
    }
}

#[test]
fn counters_above_2_pow_53_stay_exact() {
    let big = (1u64 << 53) + 1;
    let snap = StatsSnapshot::new("demo")
        .counter("big", big)
        .counter("max", u64::MAX)
        .counter("big", 1);
    let v = emitted(&snap.to_value().to_string());
    let counters = v.get("counters").expect("counters");
    assert_eq!(counters.get("big").and_then(Value::as_u64), Some(big));
    assert_eq!(counters.get("max").and_then(Value::as_u64), Some(u64::MAX));
    assert_eq!(
        counters.as_object().map(<[_]>::len),
        Some(3),
        "a repeated counter name is kept, not merged"
    );
}

#[test]
fn lifecycle_ring_round_trips() {
    let ring = Rc::new(RingSink::with_capacity(64));
    let mut sys = System::builder()
        .delivery(DeliveryPath::FastUser)
        .trace_sink(ring.clone())
        .build()
        .expect("boot");
    sys.measure_null_roundtrip(ExceptionKind::WriteProtect)
        .expect("microbenchmark");
    let events = ring.events();
    assert!(!events.is_empty());
    for ev in &events {
        round_trips(&ev.to_value());
    }
    round_trips(&sys.trace_metrics().to_value());
    round_trips(&ring.snapshot().to_value());
}

#[test]
fn fleet_report_and_health_monitor_round_trip() {
    let report = run_fleet(&FleetConfig {
        tenants: 5,
        threads: 1,
        trace: true,
        ..FleetConfig::default()
    })
    .expect("fleet");
    for t in &report.tenants {
        round_trips(&t.stats.to_value());
    }
    round_trips(&report.aggregate.to_value());
    round_trips(&report.latency.to_value());
    emitted(&report.chrome_trace(CLOCK_MHZ));

    let mut mon = report.health_monitor();
    mon.finish();
    let jsonl = efex_health::to_jsonl(&mon);
    assert!(jsonl.lines().count() > 1);
    for line in jsonl.lines() {
        assert_eq!(
            emitted(line).to_string(),
            line,
            "one compact object per line"
        );
    }
}

#[test]
fn committed_baseline_round_trips() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let text = std::fs::read_to_string(path).expect("committed baseline");
    emitted(&text);
    let committed = Baseline::from_json(&text).expect("committed baseline parses");
    round_trips(&committed.to_value());
    let rewritten = committed.to_json();
    assert_eq!(emitted(&rewritten), committed.to_value());
    assert_eq!(Baseline::from_json(&rewritten), Ok(committed));
}

#[test]
fn chrome_trace_round_trips() {
    let text = suite::chrome_trace_fastpath().expect("trace");
    let v = emitted(&text);
    assert!(v.get("traceEvents").and_then(Value::as_array).is_some());
}

#[test]
fn gate_result_round_trips() {
    round_trips(&symgate::run_gate().to_value());
}
