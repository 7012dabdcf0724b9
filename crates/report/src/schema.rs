//! The versioned on-disk baseline format (`BENCH_baseline.json`).
//!
//! A baseline is a flat list of named metrics plus provenance describing how
//! they were produced. Every metric is either *exact* (deterministic cycle or
//! instruction counts — the simulator is cycle-exact, so these must
//! reproduce bit-for-bit) or tolerance-checked (derived floating-point values
//! such as microseconds, compared with a relative tolerance by
//! [`crate::check::compare`]).
//!
//! Provenance deliberately excludes timestamps and host identity: two runs of
//! the same source tree must produce byte-identical baselines, otherwise the
//! committed file churns on every re-record.

use crate::jsonval::{self, Value};
use std::collections::BTreeMap;

/// Current schema version; bumped when the format changes incompatibly.
pub const BASELINE_VERSION: u64 = 1;

/// A recorded measurement value.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum MetricValue {
    /// Deterministic count (cycles, instructions, faults).
    Int(u64),
    /// Derived quantity (microseconds, ratios).
    Float(f64),
}

/// One named measurement.
#[derive(Clone, PartialEq, Debug)]
pub struct Metric {
    /// Hierarchical name, `/`-separated (e.g. `table2/fast-user/breakpoint/deliver_cycles`).
    pub name: String,
    /// The measured value.
    pub value: MetricValue,
    /// Unit label shown in reports (`cycles`, `us`, `instructions`, …).
    pub unit: String,
    /// Whether the checker requires an exact match (no tolerance).
    pub exact: bool,
}

/// A full recorded baseline.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Baseline {
    /// Schema version of the recorded file.
    pub version: u64,
    /// Describes how the numbers were produced (clock, package version,
    /// generator). No timestamps — re-records must be byte-identical.
    pub provenance: BTreeMap<String, String>,
    /// Metrics in recording order; names are unique.
    pub metrics: Vec<Metric>,
}

impl Baseline {
    /// An empty baseline at the current schema version.
    pub fn new() -> Baseline {
        Baseline {
            version: BASELINE_VERSION,
            provenance: BTreeMap::new(),
            metrics: Vec::new(),
        }
    }

    /// Records one provenance key/value pair.
    pub fn set_provenance(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.provenance.insert(key.into(), value.into());
    }

    /// Records a deterministic count; checked exactly.
    pub fn push_int(&mut self, name: impl Into<String>, value: u64, unit: &str) {
        self.push(name, MetricValue::Int(value), unit, true);
    }

    /// Records a derived float; checked with relative tolerance.
    pub fn push_float(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.push(name, MetricValue::Float(value), unit, false);
    }

    /// Records a metric with explicit exactness.
    pub fn push(&mut self, name: impl Into<String>, value: MetricValue, unit: &str, exact: bool) {
        let name = name.into();
        debug_assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "duplicate metric name {name:?}"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit: unit.to_string(),
            exact,
        });
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The baseline as a JSON document.
    pub fn to_value(&self) -> Value {
        let provenance = self
            .provenance
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(v.as_str())));
        let metrics = self.metrics.iter().map(|m| {
            let value = match m.value {
                MetricValue::Int(v) => Value::U64(v),
                MetricValue::Float(v) => Value::F64(v),
            };
            Value::object()
                .with("name", m.name.as_str())
                .with("value", value)
                .with("unit", m.unit.as_str())
                .with("exact", m.exact)
        });
        Value::object()
            .with("version", self.version)
            .with("provenance", Value::Obj(provenance.collect()))
            .with("metrics", metrics.collect::<Value>())
    }

    /// Serializes the baseline. One metric per line so that diffs against the
    /// committed file read metric-by-metric.
    pub fn to_json(&self) -> String {
        self.to_value().pretty(2) + "\n"
    }

    /// Parses a baseline previously written by [`Baseline::to_json`].
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        let doc = jsonval::parse(text).map_err(|e| e.to_string())?;
        let version = doc
            .get("version")
            .and_then(Value::as_u64)
            .ok_or("missing or non-integer \"version\"")?;
        if version != BASELINE_VERSION {
            return Err(format!(
                "baseline version {version} unsupported (expected {BASELINE_VERSION}); re-record with `report --record`"
            ));
        }
        let mut provenance = BTreeMap::new();
        if let Some(obj) = doc.get("provenance").and_then(Value::as_object) {
            for (k, v) in obj {
                let s = v.as_str().ok_or("non-string provenance value")?;
                provenance.insert(k.clone(), s.to_string());
            }
        }
        let metrics_json = doc
            .get("metrics")
            .and_then(Value::as_array)
            .ok_or("missing \"metrics\" array")?;
        let mut metrics = Vec::with_capacity(metrics_json.len());
        for (i, m) in metrics_json.iter().enumerate() {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("metric {i}: missing \"name\""))?
                .to_string();
            let exact = m
                .get("exact")
                .and_then(Value::as_bool)
                .ok_or_else(|| format!("metric {name}: missing \"exact\""))?;
            let raw = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {name}: missing numeric \"value\""))?;
            // Exact metrics are integers by construction; preserve that so the
            // checker compares counts as counts.
            let value = match m.get("value").and_then(Value::as_u64) {
                Some(v) if exact => MetricValue::Int(v),
                _ => MetricValue::Float(raw),
            };
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            metrics.push(Metric {
                name,
                value,
                unit,
                exact,
            });
        }
        Ok(Baseline {
            version,
            provenance,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        let mut b = Baseline::new();
        b.set_provenance("clock_mhz", "25");
        b.set_provenance("generator", "efex-bench report --record");
        b.push_int("table2/fast-user/breakpoint/deliver_cycles", 104, "cycles");
        b.push_float("table1/dec5000-ultrix/round_trip_us", 80.0, "us");
        b
    }

    #[test]
    fn round_trips_through_json() {
        let b = sample();
        let text = b.to_json();
        let back = Baseline::from_json(&text).expect("parse");
        assert_eq!(back, b);
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn rejects_wrong_version() {
        let text = sample()
            .to_json()
            .replace("\"version\": 1", "\"version\": 99");
        let err = Baseline::from_json(&text).unwrap_err();
        assert!(err.contains("re-record"), "unhelpful error: {err}");
    }

    #[test]
    fn exact_metrics_parse_as_integers() {
        let b = Baseline::from_json(&sample().to_json()).unwrap();
        let m = b.get("table2/fast-user/breakpoint/deliver_cycles").unwrap();
        assert_eq!(m.value, MetricValue::Int(104));
        assert!(m.exact);
        let f = b.get("table1/dec5000-ultrix/round_trip_us").unwrap();
        assert_eq!(f.value, MetricValue::Float(80.0));
        assert!(!f.exact);
    }
}
