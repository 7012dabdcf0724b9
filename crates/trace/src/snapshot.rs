//! The `Snapshot` pattern: every stats struct in the workspace renders to one
//! plain, serializable shape.
//!
//! `HostStats`, `GcStats`, `DsmStats`, … each expose domain-specific counters.
//! Implementing [`Snapshot`] gives the bench harness and the JSON sink a
//! single shape ([`StatsSnapshot`]) to consume, instead of matching on each
//! struct's fields.

use std::borrow::Borrow;
use std::collections::HashSet;

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
    ///
    /// Snapshots of one component usually list the same names in the same
    /// order, so each name is first looked for at its own position, and
    /// merging such snapshots is linear. A hit there is the name's first
    /// occurrence only when no name repeats in this snapshot, which is
    /// checked once, on the first such hit; otherwise (and on a miss) a scan
    /// finds the first occurrence. A push follows a scan that missed, so a
    /// merge never makes a snapshot with distinct names repeat one.
    pub fn merge(&mut self, other: &StatsSnapshot) {
        self.merge_checked(other, None);
    }

    /// [`StatsSnapshot::merge`], given whether this snapshot's names are
    /// already known to be distinct (`None`: check on demand).
    fn merge_checked(&mut self, other: &StatsSnapshot, mut distinct: Option<bool>) {
        for (j, (name, value)) in other.counters.iter().enumerate() {
            let lined_up = self.counters.get(j).is_some_and(|(n, _)| n == name)
                && *distinct.get_or_insert_with(|| names_distinct(&self.counters));
            let at = if lined_up {
                Some(j)
            } else {
                self.counters.iter().position(|(n, _)| n == name)
            };
            match at {
                Some(i) => self.counters[i].1 = self.counters[i].1.saturating_add(*value),
                None => self.counters.push((name.clone(), *value)),
            }
        }
    }

    /// Sums an iterator of snapshots (owned or borrowed) into one under
    /// `component`.
    pub fn aggregate(
        component: &'static str,
        snaps: impl IntoIterator<Item = impl Borrow<StatsSnapshot>>,
    ) -> StatsSnapshot {
        // `out` grows only by merges from empty, so no name ever repeats.
        let mut out = StatsSnapshot::new(component);
        for s in snaps {
            out.merge_checked(s.borrow(), Some(true));
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

/// True when no counter name appears twice.
fn names_distinct(counters: &[(String, u64)]) -> bool {
    let mut seen = HashSet::with_capacity(counters.len());
    counters.iter().all(|(n, _)| seen.insert(n.as_str()))
}

/// Implemented by every stats struct in the workspace.
pub trait Snapshot {
    /// Captures the current counter values as a plain serializable struct.
    fn snapshot(&self) -> StatsSnapshot;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The merge as it was before the positional lookup: a scan per name.
    fn scan_merge(into: &mut StatsSnapshot, other: &StatsSnapshot) {
        for (name, value) in &other.counters {
            match into.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v = v.saturating_add(*value),
                None => into.counters.push((name.clone(), *value)),
            }
        }
    }

    /// Counters over a four-name alphabet, so names repeat within a
    /// snapshot and often sit at the same position in two snapshots.
    fn counters() -> impl Strategy<Value = Vec<(String, u64)>> {
        prop::collection::vec(
            (0u8..4, 0u64..1000).prop_map(|(n, v)| (((b'a' + n) as char).to_string(), v)),
            0..9,
        )
    }

    proptest! {
        #[test]
        fn merge_equals_the_scanning_merge(
            base in counters(),
            others in prop::collection::vec(counters(), 1..4),
            lined_up: bool,
        ) {
            let mut fast = StatsSnapshot { component: "p", counters: base.clone() };
            let mut slow = fast.clone();
            let mut all = vec![fast.clone()];
            for counters in others {
                // Half the cases merge the base's own names, in its order.
                let counters = if lined_up {
                    base.iter().zip(counters.iter().cycle()).map(|((n, _), (_, v))| (n.clone(), *v)).collect()
                } else {
                    counters
                };
                let other = StatsSnapshot { component: "p", counters };
                fast.merge(&other);
                scan_merge(&mut slow, &other);
                prop_assert_eq!(&fast, &slow);
                all.push(other);
            }
            // `aggregate` skips the distinct-names check on its own output.
            let mut from_empty = StatsSnapshot::new("q");
            for snap in &all {
                scan_merge(&mut from_empty, snap);
            }
            prop_assert_eq!(StatsSnapshot::aggregate("q", &all), from_empty);
        }
    }

    #[test]
    fn merge_sums_a_repeated_name_into_its_first_occurrence() {
        let mut a = StatsSnapshot::new("demo").counter("x", 1).counter("x", 2);
        a.merge(&StatsSnapshot::new("demo").counter("y", 5).counter("x", 10));
        assert_eq!(
            a.counters,
            vec![("x".into(), 11), ("x".into(), 2), ("y".into(), 5)]
        );
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
