//! The typed effectiveness-metric registry.
//!
//! Every layer of the stack contributes flat counters ([`StatsSnapshot`])
//! or latency distributions ([`Histogram`]); the registry gives them one
//! addressable home so invariants can reference a metric by
//! `(component, name)` — optionally scoped to one tenant — without knowing
//! which struct produced it.
//!
//! Recording is an upsert keyed on `(component, tenant, name)` and storage
//! is insertion-ordered, so re-feeding the registry from fresh snapshots is
//! idempotent and every rendering (Prometheus, JSONL) is deterministic. An
//! index over the keys makes each upsert and lookup a few hash probes, so
//! feeding a fleet's worth of per-tenant snapshots stays linear.

use std::collections::{BTreeMap, HashMap};

use efex_trace::{Histogram, StatsSnapshot};

/// What a registered value means. Counters only grow over a run; gauges are
/// instantaneous levels (a ratio scaled by 1e6, a queue depth) that may move
/// both ways. The distinction is exposed verbatim in the Prometheus output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing over the run.
    Counter,
    /// An instantaneous level.
    Gauge,
}

impl MetricKind {
    /// Stable lowercase name (used in expositions).
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One registered metric sample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Which layer produced it (e.g. `"kernel-health"`, `"gc"`, `"fleet"`).
    pub component: String,
    /// Counter name within the component (e.g. `"decode_cache_hits"`).
    pub name: String,
    /// `Some(id)` for per-tenant samples; `None` for aggregate ones.
    pub tenant: Option<u32>,
    /// Counter vs gauge.
    pub kind: MetricKind,
    /// Current value.
    pub value: u64,
}

/// The metric registry: samples plus named histograms, insertion-ordered.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    samples: Vec<Sample>,
    index: SampleIndex,
    histograms: Vec<(String, Histogram)>,
}

/// Where each sample sits in `samples`: by tenant scope, then by the
/// metric's identity, `component` then `name`. Nested maps let a lookup
/// borrow its `&str` keys instead of allocating a tuple of `String`s; one
/// metric-identity type could later replace the inner two levels.
type SampleIndex = BTreeMap<Option<u32>, HashMap<String, HashMap<String, usize>>>;

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Upserts one sample keyed on `(component, tenant, name)`.
    pub fn record(
        &mut self,
        component: &str,
        tenant: Option<u32>,
        name: &str,
        kind: MetricKind,
        value: u64,
    ) {
        if let Some(i) = self.position(component, tenant, name) {
            let s = &mut self.samples[i];
            s.kind = kind;
            s.value = value;
            return;
        }
        self.index
            .entry(tenant)
            .or_default()
            .entry(component.to_string())
            .or_default()
            .insert(name.to_string(), self.samples.len());
        self.samples.push(Sample {
            component: component.to_string(),
            name: name.to_string(),
            tenant,
            kind,
            value,
        });
    }

    /// Index of the sample with this key in `samples`.
    fn position(&self, component: &str, tenant: Option<u32>, name: &str) -> Option<usize> {
        self.index.get(&tenant)?.get(component)?.get(name).copied()
    }

    /// Upserts a [`MetricKind::Counter`] sample.
    pub fn record_counter(&mut self, component: &str, tenant: Option<u32>, name: &str, value: u64) {
        self.record(component, tenant, name, MetricKind::Counter, value);
    }

    /// Upserts a [`MetricKind::Gauge`] sample.
    pub fn record_gauge(&mut self, component: &str, tenant: Option<u32>, name: &str, value: u64) {
        self.record(component, tenant, name, MetricKind::Gauge, value);
    }

    /// Records every counter of a [`StatsSnapshot`] under its component.
    pub fn record_snapshot(&mut self, tenant: Option<u32>, snap: &StatsSnapshot) {
        for (name, value) in &snap.counters {
            self.record(snap.component, tenant, name, MetricKind::Counter, *value);
        }
    }

    /// Upserts a named histogram (cloned in).
    pub fn record_histogram(&mut self, name: &str, h: &Histogram) {
        match self.histograms.iter_mut().find(|(n, _)| n == name) {
            Some((_, existing)) => *existing = h.clone(),
            None => self.histograms.push((name.to_string(), h.clone())),
        }
    }

    /// Looks a sample's value up by its full key.
    pub fn get(&self, component: &str, tenant: Option<u32>, name: &str) -> Option<u64> {
        self.position(component, tenant, name)
            .map(|i| self.samples[i].value)
    }

    /// All samples, in first-recorded order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// All histograms, in first-recorded order.
    pub fn histograms(&self) -> &[(String, Histogram)] {
        &self.histograms
    }

    /// Distinct tenant ids present, ascending.
    pub fn tenants(&self) -> Vec<u32> {
        self.index.keys().filter_map(|&t| t).collect()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_an_upsert() {
        let mut r = Registry::new();
        r.record_counter("gc", None, "faults", 3);
        r.record_counter("gc", None, "faults", 7);
        assert_eq!(r.get("gc", None, "faults"), Some(7));
        assert_eq!(r.samples().len(), 1, "upsert, not append");
    }

    #[test]
    fn tenant_scopes_are_distinct_keys() {
        let mut r = Registry::new();
        r.record_counter("gc", None, "faults", 10);
        r.record_counter("gc", Some(1), "faults", 3);
        r.record_counter("gc", Some(2), "faults", 7);
        assert_eq!(r.get("gc", None, "faults"), Some(10));
        assert_eq!(r.get("gc", Some(1), "faults"), Some(3));
        assert_eq!(r.get("gc", Some(2), "faults"), Some(7));
        assert_eq!(r.tenants(), vec![1, 2]);
    }

    #[test]
    fn snapshot_feeds_the_registry() {
        let snap = StatsSnapshot::new("host")
            .counter("faults_delivered", 5)
            .counter("accesses", 100);
        let mut r = Registry::new();
        r.record_snapshot(Some(4), &snap);
        assert_eq!(r.get("host", Some(4), "faults_delivered"), Some(5));
        assert_eq!(r.get("host", Some(4), "accesses"), Some(100));
        assert_eq!(r.get("host", None, "accesses"), None, "tenant-scoped");
    }

    #[test]
    fn histograms_upsert_by_name() {
        let mut h = Histogram::new();
        h.record(100);
        let mut r = Registry::new();
        r.record_histogram("latency_ns", &h);
        h.record(200);
        r.record_histogram("latency_ns", &h);
        assert_eq!(r.histograms().len(), 1);
        assert_eq!(r.histograms()[0].1.count(), 2);
    }
}
