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
//! idempotent and every rendering (Prometheus, JSONL) is deterministic. Each
//! `(component, name)` pair is interned once into a registry-local metric
//! id, and samples are indexed by `(tenant scope, metric id)`: recording a
//! metric the registry has seen before allocates nothing, so feeding a
//! fleet's worth of per-tenant snapshots stays linear and cheap.

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

/// One registered metric sample, as read back from the registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample<'a> {
    /// Which layer produced it (e.g. `"kernel-health"`, `"gc"`, `"fleet"`).
    pub component: &'a str,
    /// Counter name within the component (e.g. `"superblock_hits"`).
    pub name: &'a str,
    /// `Some(id)` for per-tenant samples; `None` for aggregate ones.
    pub tenant: Option<u32>,
    /// Counter vs gauge.
    pub kind: MetricKind,
    /// Current value.
    pub value: u64,
}

/// A metric's identity within one registry: the index of its interned
/// `(component, name)` pair in `Registry::metrics`.
type MetricId = u32;

/// `component → name → id`: nested so a lookup borrows its `&str` keys.
type MetricIds = HashMap<String, HashMap<String, MetricId>>;

/// A stored sample: the metric by id, no strings.
#[derive(Clone, Debug)]
struct Entry {
    metric: MetricId,
    tenant: Option<u32>,
    kind: MetricKind,
    value: u64,
}

/// One tenant scope's samples: `at[metric]` is the sample's position in
/// `Registry::samples` (or [`ABSENT`]), and `recorded` says whether the
/// scope was written since the monitor last asked.
#[derive(Clone, Debug, Default)]
struct ScopeIndex {
    at: Vec<u32>,
    recorded: bool,
}

const ABSENT: u32 = u32::MAX;

impl ScopeIndex {
    /// Upserts this scope's sample of `metric` into `samples`.
    fn upsert(
        &mut self,
        samples: &mut Vec<Entry>,
        tenant: Option<u32>,
        metric: MetricId,
        kind: MetricKind,
        value: u64,
    ) {
        self.recorded = true;
        let slot = metric as usize;
        if self.at.len() <= slot {
            self.at.resize(slot + 1, ABSENT);
        }
        match self.at[slot] {
            ABSENT => {
                self.at[slot] = samples.len() as u32;
                samples.push(Entry {
                    metric,
                    tenant,
                    kind,
                    value,
                });
            }
            i => {
                let e = &mut samples[i as usize];
                e.kind = kind;
                e.value = value;
            }
        }
    }
}

/// The metric registry: samples plus named histograms, insertion-ordered.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    /// Interned `(component, name)` pairs, indexed by [`MetricId`].
    metrics: Vec<(String, String)>,
    ids: MetricIds,
    /// Per component, the ids of its last recorded snapshot's names, by
    /// position (see [`Registry::record_snapshot`]).
    layouts: Vec<(String, Vec<MetricId>)>,
    samples: Vec<Entry>,
    /// Where each sample sits in `samples`, by tenant scope then metric id.
    scopes: BTreeMap<Option<u32>, ScopeIndex>,
    histograms: Vec<(String, Histogram)>,
}

fn lookup(ids: &MetricIds, component: &str, name: &str) -> Option<MetricId> {
    ids.get(component)?.get(name).copied()
}

/// The id of `component/name` in `metrics`, interning it on first sight.
fn intern(
    metrics: &mut Vec<(String, String)>,
    ids: &mut MetricIds,
    component: &str,
    name: &str,
) -> MetricId {
    if let Some(id) = lookup(ids, component, name) {
        return id;
    }
    let id = metrics.len() as MetricId;
    metrics.push((component.to_string(), name.to_string()));
    ids.entry(component.to_string())
        .or_default()
        .insert(name.to_string(), id);
    id
}

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
        let metric = intern(&mut self.metrics, &mut self.ids, component, name);
        let scope = self.scopes.entry(tenant).or_default();
        scope.upsert(&mut self.samples, tenant, metric, kind, value);
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
    ///
    /// Snapshots of one component usually list the same names in the same
    /// order, so each name's id is first taken from the same position of the
    /// component's previous snapshot (one string compare); only a name that
    /// moved or is new is looked up by hash.
    pub fn record_snapshot(&mut self, tenant: Option<u32>, snap: &StatsSnapshot) {
        let component = snap.component;
        let m = match self.layouts.iter().position(|(c, _)| c == component) {
            Some(m) => m,
            None => {
                self.layouts.push((component.to_string(), Vec::new()));
                self.layouts.len() - 1
            }
        };
        let mut ids = std::mem::take(&mut self.layouts[m].1);
        let scope = self.scopes.entry(tenant).or_default();
        for (j, (name, value)) in snap.counters.iter().enumerate() {
            let metric = match ids.get(j) {
                Some(&id) if self.metrics[id as usize].1 == *name => id,
                _ => {
                    let id = intern(&mut self.metrics, &mut self.ids, component, name);
                    match ids.get_mut(j) {
                        Some(slot) => *slot = id,
                        None => ids.push(id),
                    }
                    id
                }
            };
            scope.upsert(
                &mut self.samples,
                tenant,
                metric,
                MetricKind::Counter,
                *value,
            );
        }
        self.layouts[m].1 = ids;
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
        let metric = lookup(&self.ids, component, name)?;
        let at = *self.scopes.get(&tenant)?.at.get(metric as usize)?;
        (at != ABSENT).then(|| self.samples[at as usize].value)
    }

    /// All samples, in first-recorded order.
    pub fn samples(&self) -> impl ExactSizeIterator<Item = Sample<'_>> + '_ {
        self.samples.iter().map(|e| {
            let (component, name) = &self.metrics[e.metric as usize];
            Sample {
                component,
                name,
                tenant: e.tenant,
                kind: e.kind,
                value: e.value,
            }
        })
    }

    /// All histograms, in first-recorded order.
    pub fn histograms(&self) -> &[(String, Histogram)] {
        &self.histograms
    }

    /// Distinct tenant ids present, ascending.
    pub fn tenants(&self) -> Vec<u32> {
        self.scopes.keys().filter_map(|&t| t).collect()
    }

    /// Every scope present (aggregate first, then tenants ascending).
    pub(crate) fn scopes(&self) -> Vec<Option<u32>> {
        self.scopes.keys().copied().collect()
    }

    /// The scopes recorded into since the previous call, in [`Self::scopes`]
    /// order; clears the marks.
    pub(crate) fn take_recorded_scopes(&mut self) -> Vec<Option<u32>> {
        self.scopes
            .iter_mut()
            .filter(|(_, s)| s.recorded)
            .map(|(&t, s)| {
                s.recorded = false;
                t
            })
            .collect()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn record_is_an_upsert() {
        let mut r = Registry::new();
        r.record_counter("gc", None, "faults", 3);
        r.record_counter("gc", None, "faults", 7);
        assert_eq!(r.get("gc", None, "faults"), Some(7));
        assert_eq!(r.samples().len(), 1, "upsert, not append");
        r.record_gauge("gc", None, "faults", 9);
        let s: Vec<Sample> = r.samples().collect();
        assert_eq!(
            s,
            vec![Sample {
                component: "gc",
                name: "faults",
                tenant: None,
                kind: MetricKind::Gauge,
                value: 9,
            }],
            "an upsert also takes the new kind"
        );
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
        assert_eq!(r.get("gc", Some(3), "faults"), None, "unknown scope");
        assert_eq!(r.get("dsm", Some(1), "faults"), None, "unknown component");
    }

    #[test]
    fn recorded_scopes_are_taken_once() {
        let mut r = Registry::new();
        r.record_counter("gc", Some(2), "faults", 1);
        r.record_counter("gc", None, "faults", 1);
        assert_eq!(r.take_recorded_scopes(), vec![None, Some(2)]);
        assert_eq!(r.take_recorded_scopes(), vec![]);
        r.record_counter("gc", Some(2), "faults", 1);
        r.record_counter("gc", Some(5), "faults", 1);
        assert_eq!(r.take_recorded_scopes(), vec![Some(2), Some(5)]);
        assert_eq!(r.scopes(), vec![None, Some(2), Some(5)]);
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

    proptest! {
        #[test]
        fn snapshots_record_like_their_counters_one_by_one(
            snaps in prop::collection::vec(
                (
                    0u8..2,
                    0u32..3,
                    prop::collection::vec((0u8..5, 0u64..100), 0..7),
                ),
                0..8,
            ),
        ) {
            let mut by_snapshot = Registry::new();
            let mut by_counter = Registry::new();
            for (component, tenant, counters) in snaps {
                let mut snap = StatsSnapshot::new(["gc", "dsm"][component as usize]);
                for (name, value) in counters {
                    snap.counters.push((format!("n{name}"), value));
                }
                let tenant = (tenant > 0).then_some(tenant);
                by_snapshot.record_snapshot(tenant, &snap);
                for (name, value) in &snap.counters {
                    by_counter.record_counter(snap.component, tenant, name, *value);
                }
            }
            prop_assert_eq!(
                by_snapshot.samples().collect::<Vec<_>>(),
                by_counter.samples().collect::<Vec<_>>()
            );
        }
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
