//! Per-exception-kind metrics: counters, phase histograms, per-page fault
//! counts.

use crate::event::{FaultClass, TracePath};
use crate::histogram::Histogram;
use crate::jsonval::Value;
use crate::snapshot::{Snapshot, StatsSnapshot};
use std::collections::BTreeMap;

/// Metrics for one (delivery path, fault class) pair.
#[derive(Clone, Debug, Default)]
pub struct KindMetrics {
    /// Faults delivered.
    pub count: u64,
    /// Deliveries that could not complete on their configured path and fell
    /// back to a specified degradation (e.g. fast-path comm-page pinning
    /// violated → Unix-signal delivery).
    pub degraded: u64,
    /// Cycles from fault to user-handler entry.
    pub deliver: Histogram,
    /// Cycles spent inside the user handler.
    pub handler: Histogram,
    /// Cycles from handler return to resumption.
    pub ret: Histogram,
    /// Faults per page (vaddr >> 12), for spotting hot pages.
    pub pages: BTreeMap<u32, u64>,
}

impl KindMetrics {
    /// True when nothing has been recorded for this (path, class) cell.
    pub fn is_empty(&self) -> bool {
        self.count == 0
            && self.degraded == 0
            && self.deliver.is_empty()
            && self.handler.is_empty()
            && self.ret.is_empty()
            && self.pages.is_empty()
    }

    /// Accumulates another cell's counts and histograms into this one.
    pub fn merge(&mut self, other: &KindMetrics) {
        self.count += other.count;
        self.degraded += other.degraded;
        self.deliver.merge(&other.deliver);
        self.handler.merge(&other.handler);
        self.ret.merge(&other.ret);
        for (&page, &n) in &other.pages {
            *self.pages.entry(page).or_insert(0) += n;
        }
    }

    /// The cell as a JSON object.
    pub fn to_value(&self) -> Value {
        let mut out = Value::object().with("count", self.count);
        if self.degraded > 0 {
            out = out.with("degraded", self.degraded);
        }
        let pages = self
            .pages
            .iter()
            .map(|(page, &n)| (format!("{page:#07x}"), Value::from(n)));
        out.with("deliver_cycles", self.deliver.to_value())
            .with("handler_cycles", self.handler.to_value())
            .with("return_cycles", self.ret.to_value())
            .with("faults_per_page", Value::Obj(pages.collect()))
    }
}

/// Metrics table indexed by delivery path and fault class.
#[derive(Clone, Debug)]
pub struct Metrics {
    per: [[KindMetrics; FaultClass::ALL.len()]; TracePath::ALL.len()],
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            per: std::array::from_fn(|_| std::array::from_fn(|_| KindMetrics::default())),
        }
    }
}

impl Metrics {
    /// An empty table.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// The cell for one (path, class) pair.
    pub fn kind(&self, path: TracePath, class: FaultClass) -> &KindMetrics {
        &self.per[path.index()][class.index()]
    }

    /// Mutable access to the cell for one (path, class) pair.
    pub fn kind_mut(&mut self, path: TracePath, class: FaultClass) -> &mut KindMetrics {
        &mut self.per[path.index()][class.index()]
    }

    /// Records one delivered fault and its deliver-phase cycles.
    pub fn record_deliver(&mut self, path: TracePath, class: FaultClass, cycles: u64) {
        let k = self.kind_mut(path, class);
        k.count += 1;
        k.deliver.record(cycles);
    }

    /// Records the handler-phase cycles of one delivery.
    pub fn record_handler(&mut self, path: TracePath, class: FaultClass, cycles: u64) {
        self.kind_mut(path, class).handler.record(cycles);
    }

    /// Records the return-phase cycles of one delivery.
    pub fn record_return(&mut self, path: TracePath, class: FaultClass, cycles: u64) {
        self.kind_mut(path, class).ret.record(cycles);
    }

    /// Bumps the per-page fault count for the page containing `vaddr`.
    pub fn record_page_fault(&mut self, path: TracePath, class: FaultClass, vaddr: u32) {
        *self
            .kind_mut(path, class)
            .pages
            .entry(vaddr >> 12)
            .or_insert(0) += 1;
    }

    /// Records one delivery that fell back to a specified degradation
    /// instead of completing on its configured path. `path` is the path the
    /// delivery was *configured* for (the one that degraded).
    pub fn record_degraded(&mut self, path: TracePath, class: FaultClass) {
        self.kind_mut(path, class).degraded += 1;
    }

    /// Total faults across every path and class.
    pub fn total_faults(&self) -> u64 {
        self.per.iter().flatten().map(|k| k.count).sum()
    }

    /// Total degraded deliveries across every path and class.
    pub fn degraded_deliveries(&self) -> u64 {
        self.per.iter().flatten().map(|k| k.degraded).sum()
    }

    /// Accumulates another table into this one, cell by cell.
    pub fn merge(&mut self, other: &Metrics) {
        for (mine, theirs) in self
            .per
            .iter_mut()
            .flatten()
            .zip(other.per.iter().flatten())
        {
            mine.merge(theirs);
        }
    }

    /// Iterates the non-empty (path, class) cells.
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (TracePath, FaultClass, &KindMetrics)> {
        TracePath::ALL.iter().flat_map(move |&p| {
            FaultClass::ALL.iter().filter_map(move |&c| {
                let k = self.kind(p, c);
                (!k.is_empty()).then_some((p, c, k))
            })
        })
    }

    /// JSON object `{"<path>":{"<class>":{…}}}` containing only non-empty
    /// cells (paths with no traffic appear as empty objects).
    pub fn to_value(&self) -> Value {
        let per_path = |path| {
            let cells = FaultClass::ALL.iter().filter_map(|&class| {
                let k = self.kind(path, class);
                (!k.is_empty()).then(|| (class.as_str().to_string(), k.to_value()))
            });
            Value::Obj(cells.collect())
        };
        Value::Obj(
            TracePath::ALL
                .iter()
                .map(|&path| (path.as_str().to_string(), per_path(path)))
                .collect(),
        )
    }
}

impl Snapshot for Metrics {
    /// Flattens the non-empty cells into counters: per (path, class) the
    /// fault count (and degraded count, when nonzero) and the deliver-phase
    /// p50/p90/p99 cycle estimates, keyed `"<path>/<class>/<stat>"`, plus
    /// the overall `total_faults` and `degraded_deliveries`.
    fn snapshot(&self) -> StatsSnapshot {
        let mut s = StatsSnapshot::new("trace")
            .counter("total_faults", self.total_faults())
            .counter("degraded_deliveries", self.degraded_deliveries());
        for (path, class, k) in self.iter_nonempty() {
            let key = |stat: &str| format!("{path}/{class}/{stat}");
            s = s.counter(key("count"), k.count);
            if k.degraded > 0 {
                s = s.counter(key("degraded"), k.degraded);
            }
            for (phase, h) in [("deliver", &k.deliver), ("handler", &k.handler)] {
                if h.is_empty() {
                    continue;
                }
                s = s
                    .counter(key(&format!("{phase}_p50")), h.p50().unwrap_or(0))
                    .counter(key(&format!("{phase}_p90")), h.p90().unwrap_or(0))
                    .counter(key(&format!("{phase}_p99")), h.p99().unwrap_or(0));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_the_right_cell() {
        let mut m = Metrics::new();
        m.record_deliver(TracePath::FastUser, FaultClass::WriteProtect, 375);
        m.record_return(TracePath::FastUser, FaultClass::WriteProtect, 75);
        m.record_handler(TracePath::FastUser, FaultClass::WriteProtect, 40);
        let k = m.kind(TracePath::FastUser, FaultClass::WriteProtect);
        assert_eq!(k.count, 1);
        assert_eq!(k.deliver.max(), Some(375));
        assert_eq!(k.ret.max(), Some(75));
        assert_eq!(k.handler.max(), Some(40));
        assert!(m
            .kind(TracePath::UnixSignals, FaultClass::WriteProtect)
            .is_empty());
        assert_eq!(m.total_faults(), 1);
    }

    #[test]
    fn page_fault_counts_key_by_page() {
        let mut m = Metrics::new();
        m.record_page_fault(TracePath::FastUser, FaultClass::PageFault, 0x0040_2004);
        m.record_page_fault(TracePath::FastUser, FaultClass::PageFault, 0x0040_2ffc);
        m.record_page_fault(TracePath::FastUser, FaultClass::PageFault, 0x0040_3000);
        let k = m.kind(TracePath::FastUser, FaultClass::PageFault);
        assert_eq!(k.pages.get(&0x402), Some(&2), "same page coalesces");
        assert_eq!(k.pages.get(&0x403), Some(&1));
    }

    #[test]
    fn merge_accumulates_across_tables() {
        let mut a = Metrics::new();
        a.record_deliver(TracePath::UnixSignals, FaultClass::Breakpoint, 1750);
        let mut b = Metrics::new();
        b.record_deliver(TracePath::UnixSignals, FaultClass::Breakpoint, 1800);
        b.record_page_fault(TracePath::UnixSignals, FaultClass::Breakpoint, 0x1000);
        a.merge(&b);
        let k = a.kind(TracePath::UnixSignals, FaultClass::Breakpoint);
        assert_eq!(k.count, 2);
        assert_eq!(k.deliver.count(), 2);
        assert_eq!(k.pages.get(&1), Some(&1));
    }

    #[test]
    fn json_nests_path_then_class() {
        let mut m = Metrics::new();
        m.record_deliver(TracePath::HardwareVectored, FaultClass::Subpage, 190);
        let j = m.to_value().to_string();
        assert!(j.contains("\"hardware-vectored\":{\"subpage\":{"), "{j}");
        assert!(j.contains("\"deliver_cycles\""));
        // Quiet paths still appear, as empty objects.
        assert!(j.contains("\"unix-signals\":{}"));
    }

    #[test]
    fn snapshot_surfaces_counts_and_quantiles() {
        let mut m = Metrics::new();
        for c in [100u64, 200, 300] {
            m.record_deliver(TracePath::FastUser, FaultClass::WriteProtect, c);
        }
        let s = m.snapshot();
        assert_eq!(s.component, "trace");
        assert_eq!(s.get("total_faults"), Some(3));
        assert_eq!(s.get("fast-user/write-protect/count"), Some(3));
        let p50 = s.get("fast-user/write-protect/deliver_p50").unwrap();
        let p99 = s.get("fast-user/write-protect/deliver_p99").unwrap();
        assert!((100..=300).contains(&p50));
        assert!(p50 <= p99 && p99 <= 300);
        assert_eq!(
            s.get("unix-signals/write-protect/count"),
            None,
            "quiet cells stay out of the snapshot"
        );
    }

    #[test]
    fn degraded_deliveries_are_counted_and_snapshotted() {
        let mut m = Metrics::new();
        assert_eq!(m.degraded_deliveries(), 0);
        let s = m.snapshot();
        assert_eq!(s.get("degraded_deliveries"), Some(0), "key always present");
        m.record_degraded(TracePath::FastUser, FaultClass::WriteProtect);
        m.record_degraded(TracePath::FastUser, FaultClass::WriteProtect);
        m.record_degraded(TracePath::FastUser, FaultClass::Breakpoint);
        assert_eq!(m.degraded_deliveries(), 3);
        let s = m.snapshot();
        assert_eq!(s.get("degraded_deliveries"), Some(3));
        assert_eq!(s.get("fast-user/write-protect/degraded"), Some(2));
        assert_eq!(s.get("fast-user/breakpoint/degraded"), Some(1));
        // Degraded-only cells are non-empty (visible in JSON and merge).
        let mut b = Metrics::new();
        b.merge(&m);
        assert_eq!(b.degraded_deliveries(), 3);
        assert!(b.to_value().to_string().contains("\"degraded\":2"));
    }

    #[test]
    fn iter_nonempty_skips_quiet_cells() {
        let mut m = Metrics::new();
        m.record_deliver(TracePath::FastUser, FaultClass::Breakpoint, 125);
        m.record_deliver(TracePath::FastUser, FaultClass::Subpage, 475);
        let cells: Vec<_> = m.iter_nonempty().map(|(p, c, _)| (p, c)).collect();
        assert_eq!(
            cells,
            [
                (TracePath::FastUser, FaultClass::Breakpoint),
                (TracePath::FastUser, FaultClass::Subpage)
            ]
        );
    }
}
