//! JSONL exposition: one self-describing JSON object per line, each built
//! as an `efex_trace::jsonval::Value` and written by its compact serializer.
//! Lines come in three types: `sample`, `histogram`, and `finding`, so a
//! stream consumer can filter without a schema.

use efex_trace::jsonval::Value;

use crate::monitor::{HealthFinding, HealthMonitor};

fn finding_line(f: &HealthFinding) -> Value {
    let mut line = Value::object()
        .with("type", "finding")
        .with("invariant", f.invariant.as_str());
    if let Some(t) = f.tenant {
        line = line.with("tenant", t);
    }
    if let Some(c) = f.cycles {
        line = line.with("cycles", c);
    }
    line.with("observed", f.observed.as_str())
        .with("bound", f.bound.as_str())
        .with("hint", f.hint.as_str())
}

/// Renders the whole monitor — samples, histograms, findings — as JSONL.
pub fn to_jsonl(mon: &HealthMonitor) -> String {
    let reg = mon.registry_ref();
    let samples = reg.samples().iter().map(|s| {
        let mut line = Value::object()
            .with("type", "sample")
            .with("component", s.component.as_str())
            .with("name", s.name.as_str());
        if let Some(t) = s.tenant {
            line = line.with("tenant", t);
        }
        line.with("kind", s.kind.as_str()).with("value", s.value)
    });
    let histograms = reg.histograms().iter().map(|(name, h)| {
        Value::object()
            .with("type", "histogram")
            .with("name", name.as_str())
            .with("histogram", h.to_value())
    });
    let findings = mon.findings().iter().map(finding_line);
    samples
        .chain(histograms)
        .chain(findings)
        .map(|line| line.to_string() + "\n")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::{Invariant, MetricRef};
    use efex_trace::Histogram;

    #[test]
    fn each_line_is_typed_and_self_contained() {
        let mut mon = HealthMonitor::new()
            .invariant(Invariant::min("floor", MetricRef::new("k", "events"), 10).per_tenant());
        mon.registry().record_counter("k", Some(2), "events", 3);
        let mut h = Histogram::new();
        h.record(44);
        mon.registry().record_histogram("lat", &h);
        mon.finish();

        let text = to_jsonl(&mon);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(
            lines[0].starts_with("{\"type\":\"sample\"") && lines[0].contains("\"tenant\":2"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with("{\"type\":\"histogram\"") && lines[1].contains("\"count\":1"),
            "{}",
            lines[1]
        );
        assert!(
            lines[2].starts_with("{\"type\":\"finding\"")
                && lines[2].contains("\"invariant\":\"floor\""),
            "{}",
            lines[2]
        );
    }
}
