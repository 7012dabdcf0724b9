//! Per-region instruction and cycle attribution.
//!
//! Used to regenerate the paper's Table 3: the simulated kernel's fast-path
//! exception handler is guest assembly whose phases are delimited by labels;
//! a [`Profiler`] attached to the machine counts how many instructions
//! execute in each labeled region, so the table is *measured* rather than
//! asserted.

use std::collections::BTreeMap;

/// A half-open address range `[start, end)` with a name.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Region {
    /// Name shown in reports (typically the source label).
    pub name: String,
    /// First instruction address in the region.
    pub start: u32,
    /// One past the last instruction address.
    pub end: u32,
}

/// Accumulated counts for one region.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RegionCounts {
    /// Dynamic instructions executed within the region.
    pub instructions: u64,
    /// Cycles charged to instructions within the region.
    pub cycles: u64,
}

/// One contiguous stay inside a region: execution entered the region at
/// `start_cycles` on the profiler's clock and left (or is still inside) at
/// `end_cycles`. Spans are what timeline exporters (Chrome trace, folded
/// stacks with time weights) consume.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegionSpan {
    /// The region's name.
    pub name: String,
    /// Profiler-clock cycles when execution entered the region.
    pub start_cycles: u64,
    /// Profiler-clock cycles when execution left the region.
    pub end_cycles: u64,
    /// Instructions retired during the stay.
    pub instructions: u64,
}

impl RegionSpan {
    /// Cycles spent in the stay.
    pub fn cycles(&self) -> u64 {
        self.end_cycles - self.start_cycles
    }
}

/// Attributes executed instructions to named address regions.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    regions: Vec<Region>,
    counts: Vec<RegionCounts>,
    enabled: bool,
    /// Cycles accumulated across every `record` call while enabled — the
    /// profiler's own clock, used to timestamp spans (region transitions are
    /// relative times; absolute machine cycles are not needed).
    clock: u64,
    /// The open span: `(region index, start clock, instructions so far)`.
    open: Option<(usize, u64, u64)>,
    spans: Vec<RegionSpan>,
    /// Spans not recorded because [`SPAN_CAPACITY`] was reached.
    spans_dropped: u64,
}

/// Upper bound on retained spans; transitions past it count into
/// [`Profiler::spans_dropped`] instead of growing without bound.
pub const SPAN_CAPACITY: usize = 16_384;

impl Profiler {
    /// An empty, enabled profiler.
    pub fn new() -> Profiler {
        Profiler {
            regions: Vec::new(),
            counts: Vec::new(),
            enabled: true,
            clock: 0,
            open: None,
            spans: Vec::new(),
            spans_dropped: 0,
        }
    }

    /// Adds a region. Regions may not overlap; attribution picks the first
    /// match, so callers should keep them disjoint.
    pub fn add_region(&mut self, name: impl Into<String>, start: u32, end: u32) {
        self.regions.push(Region {
            name: name.into(),
            start,
            end,
        });
        self.counts.push(RegionCounts::default());
    }

    /// Builds regions from a sorted list of `(label, address)` pairs, where
    /// each region extends to the next label (the last extends to `end`).
    pub fn from_labels<'a>(labels: impl IntoIterator<Item = (&'a str, u32)>, end: u32) -> Profiler {
        let mut pairs: Vec<(&str, u32)> = labels.into_iter().collect();
        pairs.sort_by_key(|&(_, a)| a);
        let mut p = Profiler::new();
        for i in 0..pairs.len() {
            let (name, start) = pairs[i];
            let stop = pairs.get(i + 1).map(|&(_, a)| a).unwrap_or(end);
            p.add_region(name, start, stop);
        }
        p
    }

    /// Enables or disables counting (e.g. to measure only a window of
    /// execution).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records one executed instruction at `pc` costing `cycles`.
    pub fn record(&mut self, pc: u32, cycles: u64) {
        if !self.enabled {
            return;
        }
        let before = self.clock;
        self.clock += cycles;
        let hit = self
            .regions
            .iter()
            .position(|r| pc >= r.start && pc < r.end);
        match (self.open, hit) {
            (Some((open_idx, _, _)), Some(idx)) if open_idx == idx => {
                if let Some(open) = self.open.as_mut() {
                    open.2 += 1;
                }
            }
            (open, hit) => {
                if open.is_some() {
                    self.close_span(before);
                }
                if let Some(idx) = hit {
                    self.open = Some((idx, before, 1));
                }
            }
        }
        if let Some(idx) = hit {
            self.counts[idx].instructions += 1;
            self.counts[idx].cycles += cycles;
        }
    }

    fn close_span(&mut self, at: u64) {
        if let Some((idx, start, instructions)) = self.open.take() {
            if self.spans.len() < SPAN_CAPACITY {
                self.spans.push(RegionSpan {
                    name: self.regions[idx].name.clone(),
                    start_cycles: start,
                    end_cycles: at,
                    instructions,
                });
            } else {
                self.spans_dropped += 1;
            }
        }
    }

    /// Closes the open span (if any) at the current clock, so
    /// [`Profiler::spans`] reflects everything recorded so far.
    pub fn finish(&mut self) {
        let now = self.clock;
        self.close_span(now);
    }

    /// The recorded region stays, in execution order (call
    /// [`Profiler::finish`] first to include the still-open one).
    pub fn spans(&self) -> &[RegionSpan] {
        &self.spans
    }

    /// Consumes the recorded spans, leaving the profiler collecting afresh.
    pub fn take_spans(&mut self) -> Vec<RegionSpan> {
        self.finish();
        std::mem::take(&mut self.spans)
    }

    /// Spans discarded because [`SPAN_CAPACITY`] was reached.
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped
    }

    /// The profiler's clock: cycles accumulated over every recorded
    /// instruction (inside or outside regions).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Resets all counts and spans to zero (the clock keeps running, so
    /// spans recorded after a reset stay ordered after earlier ones).
    pub fn reset(&mut self) {
        for c in &mut self.counts {
            *c = RegionCounts::default();
        }
        self.open = None;
        self.spans.clear();
        self.spans_dropped = 0;
    }

    /// Counts for a region by name (summing duplicates).
    pub fn counts_for(&self, name: &str) -> RegionCounts {
        let mut total = RegionCounts::default();
        for (r, c) in self.regions.iter().zip(self.counts.iter()) {
            if r.name == name {
                total.instructions += c.instructions;
                total.cycles += c.cycles;
            }
        }
        total
    }

    /// A name → counts report over all regions, in name order.
    pub fn report(&self) -> BTreeMap<String, RegionCounts> {
        let mut map: BTreeMap<String, RegionCounts> = BTreeMap::new();
        for (r, c) in self.regions.iter().zip(self.counts.iter()) {
            let e = map.entry(r.name.clone()).or_default();
            e.instructions += c.instructions;
            e.cycles += c.cycles;
        }
        map
    }

    /// Total instructions attributed to any region.
    pub fn total_instructions(&self) -> u64 {
        self.counts.iter().map(|c| c.instructions).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_respects_boundaries() {
        let mut p = Profiler::new();
        p.add_region("a", 0x100, 0x108);
        p.add_region("b", 0x108, 0x110);
        p.record(0x100, 1);
        p.record(0x104, 2);
        p.record(0x108, 3);
        p.record(0x200, 9); // outside every region
        assert_eq!(p.counts_for("a").instructions, 2);
        assert_eq!(p.counts_for("a").cycles, 3);
        assert_eq!(p.counts_for("b").instructions, 1);
        assert_eq!(p.total_instructions(), 3);
    }

    #[test]
    fn from_labels_builds_adjacent_regions() {
        let p = Profiler::from_labels(vec![("one", 0x10), ("two", 0x20)], 0x30);
        let mut q = p.clone();
        q.record(0x1c, 1);
        q.record(0x20, 1);
        q.record(0x2c, 1);
        assert_eq!(q.counts_for("one").instructions, 1);
        assert_eq!(q.counts_for("two").instructions, 2);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::new();
        p.add_region("a", 0, 0x1000);
        p.set_enabled(false);
        p.record(4, 1);
        assert_eq!(p.total_instructions(), 0);
        p.set_enabled(true);
        p.record(4, 1);
        assert_eq!(p.total_instructions(), 1);
    }

    #[test]
    fn reset_clears_counts() {
        let mut p = Profiler::new();
        p.add_region("a", 0, 8);
        p.record(0, 5);
        p.reset();
        assert_eq!(p.counts_for("a"), RegionCounts::default());
        assert!(p.spans().is_empty());
    }

    #[test]
    fn spans_track_region_transitions() {
        let mut p = Profiler::new();
        p.add_region("a", 0x100, 0x108);
        p.add_region("b", 0x108, 0x110);
        p.record(0x100, 2); // a: [0, 2)
        p.record(0x104, 2); // a: [0, 4)
        p.record(0x108, 3); // b: [4, 7)
        p.record(0x200, 1); // outside: closes b at 7
        p.record(0x104, 2); // a again: [8, 10)
        p.finish();
        let spans = p.spans();
        let view: Vec<(&str, u64, u64, u64)> = spans
            .iter()
            .map(|s| {
                (
                    s.name.as_str(),
                    s.start_cycles,
                    s.end_cycles,
                    s.instructions,
                )
            })
            .collect();
        assert_eq!(
            view,
            [("a", 0, 4, 2), ("b", 4, 7, 1), ("a", 8, 10, 1)],
            "spans must tile the in-region execution"
        );
        assert!(spans
            .windows(2)
            .all(|w| w[0].end_cycles <= w[1].start_cycles));
        assert_eq!(p.spans_dropped(), 0);
    }

    #[test]
    fn take_spans_closes_and_drains() {
        let mut p = Profiler::new();
        p.add_region("a", 0, 0x100);
        p.record(0, 4);
        let spans = p.take_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].cycles(), 4);
        assert!(p.spans().is_empty());
        // The clock keeps running so later spans stay ordered.
        p.record(4, 4);
        let later = p.take_spans();
        assert_eq!(later[0].start_cycles, 4);
    }

    #[test]
    fn disabled_profiler_records_no_spans() {
        let mut p = Profiler::new();
        p.add_region("a", 0, 0x100);
        p.set_enabled(false);
        p.record(0, 4);
        assert_eq!(p.take_spans().len(), 0);
    }
}
