//! The `Snapshot` pattern: every stats struct in the workspace renders to one
//! plain, serializable shape.
//!
//! `HostStats`, `GcStats`, `DsmStats`, … each expose domain-specific counters.
//! Implementing [`Snapshot`] gives the bench harness and the JSON sink a
//! single shape ([`StatsSnapshot`]) to consume, instead of matching on each
//! struct's fields.

use crate::jsonval::Value;

/// A flat, ordered set of named counters from one component.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Which component produced this (e.g. `"host"`, `"gc"`).
    pub component: &'static str,
    /// Counter name → value, in insertion order. Names may be computed
    /// (e.g. per-(path, class) quantile keys), so they are owned strings.
    pub counters: Vec<(String, u64)>,
}

impl StatsSnapshot {
    /// An empty snapshot for one component.
    pub fn new(component: &'static str) -> StatsSnapshot {
        StatsSnapshot {
            component,
            counters: Vec::new(),
        }
    }

    /// Adds a counter (builder-style).
    pub fn counter(mut self, name: impl Into<String>, value: u64) -> StatsSnapshot {
        self.counters.push((name.into(), value));
        self
    }

    /// Looks a counter up by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Adds `other`'s counters into this snapshot, summing values with
    /// matching names; names not yet present are appended in `other`'s
    /// order. Fleet aggregation sums per-tenant snapshots this way, so the
    /// result is independent of how tenants were scheduled across threads
    /// (addition is commutative; ordering is fixed by the first snapshot).
    pub fn merge(&mut self, other: &StatsSnapshot) {
        for (name, value) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v = v.saturating_add(*value),
                None => self.counters.push((name.clone(), *value)),
            }
        }
    }

    /// Sums an iterator of snapshots into one under `component`.
    pub fn aggregate(
        component: &'static str,
        snaps: impl IntoIterator<Item = StatsSnapshot>,
    ) -> StatsSnapshot {
        let mut out = StatsSnapshot::new(component);
        for s in snaps {
            out.merge(&s);
        }
        out
    }

    /// `{"component":"gc","counters":{"minor_collections":3,…}}`
    /// Counters keep their order, and a repeated name stays repeated.
    pub fn to_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), Value::from(*value)));
        Value::object()
            .with("component", self.component)
            .with("counters", Value::Obj(counters.collect()))
    }
}

/// Implemented by every stats struct in the workspace.
pub trait Snapshot {
    /// Captures the current counter values as a plain serializable struct.
    fn snapshot(&self) -> StatsSnapshot;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Demo {
        faults: u64,
        retries: u64,
    }

    impl Snapshot for Demo {
        fn snapshot(&self) -> StatsSnapshot {
            StatsSnapshot::new("demo")
                .counter("faults", self.faults)
                .counter("retries", self.retries)
        }
    }

    #[test]
    fn snapshot_preserves_order_and_values() {
        let s = Demo {
            faults: 3,
            retries: 1,
        }
        .snapshot();
        assert_eq!(s.component, "demo");
        assert_eq!(s.get("faults"), Some(3));
        assert_eq!(s.get("missing"), None);
        assert_eq!(s.counters[0].0, "faults");
    }

    #[test]
    fn merge_sums_by_name_and_appends_unknowns() {
        let mut a = Demo {
            faults: 3,
            retries: 1,
        }
        .snapshot();
        let b = StatsSnapshot::new("demo")
            .counter("retries", 9)
            .counter("evictions", 2);
        a.merge(&b);
        assert_eq!(a.get("faults"), Some(3));
        assert_eq!(a.get("retries"), Some(10));
        assert_eq!(a.get("evictions"), Some(2));
        assert_eq!(a.counters.len(), 3, "no duplicate names after merge");
    }

    #[test]
    fn aggregate_is_order_independent() {
        let mk = |f, r| {
            StatsSnapshot::new("demo")
                .counter("faults", f)
                .counter("retries", r)
        };
        let forward = StatsSnapshot::aggregate("fleet", vec![mk(1, 10), mk(2, 20), mk(4, 40)]);
        let reverse = StatsSnapshot::aggregate("fleet", vec![mk(4, 40), mk(2, 20), mk(1, 10)]);
        assert_eq!(forward.get("faults"), Some(7));
        assert_eq!(forward.get("retries"), Some(70));
        assert_eq!(forward.counters, reverse.counters);
        assert_eq!(forward.component, "fleet");
    }

    #[test]
    fn snapshot_json_shape() {
        let s = Demo {
            faults: 3,
            retries: 1,
        }
        .snapshot();
        assert_eq!(
            s.to_value().to_string(),
            "{\"component\":\"demo\",\"counters\":{\"faults\":3,\"retries\":1}}"
        );
    }
}
