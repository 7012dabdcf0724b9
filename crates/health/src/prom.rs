//! Prometheus text-format exposition.
//!
//! Counter names in this workspace are computed strings (e.g.
//! `fast-user/write-protect/deliver_p50`) that are not legal Prometheus
//! metric names, so the exposition uses fixed metric families and carries
//! the real identifiers in labels — `efex_counter{component=…,name=…}` —
//! which keeps the mapping *lossless*: every `StatsSnapshot` counter and
//! every `Histogram` field round-trips through the text format exactly
//! (values are emitted as decimal `u64`, never floats).
//!
//! Histograms follow the Prometheus convention: cumulative `_bucket` series
//! with inclusive `le` upper bounds plus `le="+Inf"`, and `_sum`/`_count`
//! series; `_min`/`_max` gauges carry the two fields the convention has no
//! slot for.

use efex_trace::Histogram;

use crate::monitor::HealthMonitor;
use crate::registry::{MetricKind, Registry, Sample};

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn sample_labels(s: &Sample<'_>) -> String {
    let mut labels = format!(
        "component=\"{}\",name=\"{}\"",
        escape_label(s.component),
        escape_label(s.name)
    );
    if let Some(t) = s.tenant {
        labels.push_str(&format!(",tenant=\"{t}\""));
    }
    labels
}

fn render_kind(out: &mut String, reg: &Registry, kind: MetricKind) {
    let family = match kind {
        MetricKind::Counter => "efex_counter",
        MetricKind::Gauge => "efex_gauge",
    };
    let samples: Vec<Sample> = reg.samples().filter(|s| s.kind == kind).collect();
    if samples.is_empty() {
        return;
    }
    out.push_str(&format!("# TYPE {family} {}\n", kind.as_str()));
    for s in samples {
        out.push_str(&format!("{family}{{{}}} {}\n", sample_labels(&s), s.value));
    }
}

fn render_histogram(out: &mut String, name: &str, h: &Histogram) {
    let label = format!("name=\"{}\"", escape_label(name));
    let mut cumulative = 0u64;
    for (_lo, hi, count) in h.nonzero_buckets() {
        cumulative += count;
        // Buckets are half-open [lo, hi); Prometheus `le` is inclusive, so
        // the boundary is hi - 1 — which `Histogram::bucket_index` maps
        // straight back to the same bucket on re-parse.
        out.push_str(&format!(
            "efex_histogram_bucket{{{label},le=\"{}\"}} {cumulative}\n",
            hi - 1
        ));
    }
    out.push_str(&format!(
        "efex_histogram_bucket{{{label},le=\"+Inf\"}} {}\n",
        h.count()
    ));
    out.push_str(&format!("efex_histogram_sum{{{label}}} {}\n", h.sum()));
    out.push_str(&format!("efex_histogram_count{{{label}}} {}\n", h.count()));
    if let (Some(min), Some(max)) = (h.min(), h.max()) {
        out.push_str(&format!("efex_histogram_min{{{label}}} {min}\n"));
        out.push_str(&format!("efex_histogram_max{{{label}}} {max}\n"));
    }
}

/// Renders a registry in Prometheus text format.
pub fn registry_to_prometheus(reg: &Registry) -> String {
    let mut out = String::new();
    render_kind(&mut out, reg, MetricKind::Counter);
    render_kind(&mut out, reg, MetricKind::Gauge);
    if !reg.histograms().is_empty() {
        out.push_str("# TYPE efex_histogram histogram\n");
        for (name, h) in reg.histograms() {
            render_histogram(&mut out, name, h);
        }
    }
    out
}

/// Renders a monitor — its registry plus the health-plane summary series
/// (`efex_health_findings`, `efex_health_evaluations`).
pub fn to_prometheus(mon: &HealthMonitor) -> String {
    let mut out = registry_to_prometheus(mon.registry_ref());
    out.push_str("# TYPE efex_health_findings gauge\n");
    out.push_str(&format!("efex_health_findings {}\n", mon.findings().len()));
    out.push_str("# TYPE efex_health_evaluations counter\n");
    out.push_str(&format!("efex_health_evaluations {}\n", mon.evaluations()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_with_labels() {
        let mut reg = Registry::new();
        reg.record_counter("gc", None, "barrier_faults", 42);
        reg.record_counter("gc", Some(3), "barrier_faults", 7);
        reg.record_gauge("fleet", None, "tenants", 16);
        let text = registry_to_prometheus(&reg);
        assert!(text.contains("# TYPE efex_counter counter\n"), "{text}");
        assert!(
            text.contains("efex_counter{component=\"gc\",name=\"barrier_faults\"} 42\n"),
            "{text}"
        );
        assert!(
            text.contains(
                "efex_counter{component=\"gc\",name=\"barrier_faults\",tenant=\"3\"} 7\n"
            ),
            "{text}"
        );
        assert!(
            text.contains("efex_gauge{component=\"fleet\",name=\"tenants\"} 16\n"),
            "{text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf() {
        let mut h = Histogram::new();
        h.record(1);
        h.record(1);
        h.record(1000);
        let mut reg = Registry::new();
        reg.record_histogram("lat", &h);
        let text = registry_to_prometheus(&reg);
        assert!(
            text.contains("efex_histogram_bucket{name=\"lat\",le=\"1\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("efex_histogram_bucket{name=\"lat\",le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("efex_histogram_sum{name=\"lat\"} 1002\n"),
            "{text}"
        );
        assert!(
            text.contains("efex_histogram_count{name=\"lat\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("efex_histogram_min{name=\"lat\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("efex_histogram_max{name=\"lat\"} 1000\n"),
            "{text}"
        );
    }

    #[test]
    fn awkward_names_survive_label_escaping() {
        let mut reg = Registry::new();
        reg.record_counter("trace", None, "fast-user/write-protect/deliver_p50", 91);
        reg.record_counter("odd", None, "quote\"back\\slash", 1);
        let text = registry_to_prometheus(&reg);
        assert!(
            text.contains("name=\"fast-user/write-protect/deliver_p50\"} 91"),
            "{text}"
        );
        assert!(
            text.contains("name=\"quote\\\"back\\\\slash\"} 1"),
            "{text}"
        );
    }
}
