//! The health monitor: periodic + end-of-run invariant evaluation.
//!
//! A [`HealthMonitor`] owns the registry and the invariant list. Callers
//! feed it snapshots as the run progresses and call [`HealthMonitor::observe`]
//! with the current *simulated* cycle counter; the monitor evaluates the
//! invariants whenever the configured interval has elapsed, and always once
//! more in [`HealthMonitor::finish`]. Evaluation is a pure read of recorded
//! values — the monitor never charges simulated cycles, so a monitored run
//! stays bit-identical to an unmonitored one.
//!
//! An evaluation re-checks only the scopes recorded into since the previous
//! one (every scope, for an invariant added since). That is exact: a check
//! and its warmup gate read only their own scope's samples, so an untouched
//! scope gives the answer it gave last time, and findings are kept once per
//! (invariant, scope). A fleet replayed tenant by tenant therefore checks
//! each tenant once per interval it lands in, not once per interval after.

use std::fmt;

use crate::invariant::{Invariant, Scope};
use crate::registry::Registry;

/// One tripped invariant, with enough context to act on: which bound broke,
/// in which scope, at which simulated cycle, with the observed operands and
/// the invariant's hint. Mirrors the diagnostic shape of `efex-verify`
/// findings (label + observation + `>`-prefixed context line).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthFinding {
    /// The invariant's name.
    pub invariant: String,
    /// `Some(id)` when a per-tenant evaluation tripped.
    pub tenant: Option<u32>,
    /// Simulated cycle of the evaluation; `None` for end-of-run.
    pub cycles: Option<u64>,
    /// What was measured (with raw operands).
    pub observed: String,
    /// The bound it broke.
    pub bound: String,
    /// The invariant's actionable hint.
    pub hint: String,
}

impl fmt::Display for HealthFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let scope = match self.tenant {
            Some(id) => format!("tenant {id}"),
            None => "aggregate".to_string(),
        };
        let when = match self.cycles {
            Some(c) => format!("at cycle {c}"),
            None => "at end of run".to_string(),
        };
        write!(
            f,
            "[{}] {scope}: {} violates {} {when}",
            self.invariant, self.observed, self.bound
        )?;
        if !self.hint.is_empty() {
            write!(f, "\n    > {}", self.hint)?;
        }
        Ok(())
    }
}

/// The always-on health plane for one run.
#[derive(Clone, Debug, Default)]
pub struct HealthMonitor {
    registry: Registry,
    invariants: Vec<Invariant>,
    interval: Option<u64>,
    last_eval: u64,
    evaluations: u64,
    findings: Vec<HealthFinding>,
    /// Invariants before this index have been checked against every scope
    /// recorded before the last evaluation.
    checked: usize,
}

impl HealthMonitor {
    /// A monitor with no invariants and the default evaluation interval.
    pub fn new() -> HealthMonitor {
        HealthMonitor::default()
    }

    /// Evaluate every `cycles` simulated cycles (checked on each
    /// [`HealthMonitor::observe`] call). Without an interval the monitor
    /// only evaluates in [`HealthMonitor::finish`].
    pub fn with_interval(mut self, cycles: u64) -> HealthMonitor {
        self.interval = Some(cycles.max(1));
        self
    }

    /// Adds an invariant (builder-style).
    pub fn invariant(mut self, inv: Invariant) -> HealthMonitor {
        self.invariants.push(inv);
        self
    }

    /// Adds an invariant in place.
    pub fn add_invariant(&mut self, inv: Invariant) {
        self.invariants.push(inv);
    }

    /// The registered invariants.
    pub fn invariants(&self) -> &[Invariant] {
        &self.invariants
    }

    /// Mutable registry access — feed snapshots through this.
    pub fn registry(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// Read-only registry access (expositions render from this).
    pub fn registry_ref(&self) -> &Registry {
        &self.registry
    }

    /// Interval hook: call with the current simulated cycle counter after
    /// feeding fresh snapshots. Evaluates all invariants if the configured
    /// interval has elapsed since the last evaluation; returns the number
    /// of *new* findings this call produced.
    pub fn observe(&mut self, cycles: u64) -> usize {
        let Some(interval) = self.interval else {
            return 0;
        };
        if cycles.saturating_sub(self.last_eval) < interval {
            return 0;
        }
        self.last_eval = cycles;
        self.evaluate_at(Some(cycles))
    }

    /// End-of-run evaluation: always runs, regardless of interval state.
    /// Returns all findings accumulated over the run.
    pub fn finish(&mut self) -> &[HealthFinding] {
        self.evaluate_at(None);
        &self.findings
    }

    /// Findings accumulated so far.
    pub fn findings(&self) -> &[HealthFinding] {
        &self.findings
    }

    /// True while no invariant has tripped.
    pub fn healthy(&self) -> bool {
        self.findings.is_empty()
    }

    /// How many evaluation passes have run (interval + finish).
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    fn evaluate_at(&mut self, cycles: Option<u64>) -> usize {
        self.evaluations += 1;
        let before = self.findings.len();
        let recorded = self.registry.take_recorded_scopes();
        let every = if self.checked < self.invariants.len() {
            self.registry.scopes()
        } else {
            Vec::new()
        };
        for (k, inv) in self.invariants.iter().enumerate() {
            let scopes = if k < self.checked { &recorded } else { &every };
            let in_scope = |t: &Option<u32>| match inv.scope {
                Scope::Aggregate => t.is_none(),
                Scope::PerTenant => t.is_some(),
            };
            for &tenant in scopes.iter().filter(|t| in_scope(t)) {
                if !inv.warmed_up(&self.registry, tenant) {
                    continue;
                }
                let Some(v) = inv.check.evaluate(&self.registry, tenant) else {
                    continue;
                };
                // One finding per (invariant, scope): a bound that stays
                // broken across intervals is one pathology, not many.
                if self
                    .findings
                    .iter()
                    .any(|f| f.invariant == inv.name && f.tenant == tenant)
                {
                    continue;
                }
                self.findings.push(HealthFinding {
                    invariant: inv.name.clone(),
                    tenant,
                    cycles,
                    observed: v.observed,
                    bound: v.bound,
                    hint: inv.hint.clone(),
                });
            }
        }
        self.checked = self.invariants.len();
        self.findings.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::MetricRef;
    use proptest::prelude::*;

    fn m(name: &str) -> MetricRef {
        MetricRef::new("k", name)
    }

    #[test]
    fn interval_gating_and_end_of_run() {
        let mut mon = HealthMonitor::new()
            .with_interval(1000)
            .invariant(Invariant::min("activity", m("events"), 5));
        mon.registry().record_counter("k", None, "events", 1);
        assert_eq!(mon.observe(500), 0, "interval not yet elapsed");
        assert_eq!(mon.observe(1000), 1, "interval elapsed, bound broken");
        assert_eq!(mon.observe(2000), 0, "same violation not re-reported");
        mon.registry().record_counter("k", None, "events", 9);
        let findings = mon.finish();
        assert_eq!(findings.len(), 1, "finish keeps the historical finding");
        assert_eq!(findings[0].cycles, Some(1000));
        assert!(mon.evaluations() >= 2);
    }

    #[test]
    fn per_tenant_scope_isolates_the_sick_tenant() {
        let mut mon = HealthMonitor::new()
            .invariant(Invariant::ratio_min("hit-rate", m("hits"), m("misses"), 0.25).per_tenant());
        mon.registry().record_counter("k", Some(0), "hits", 90);
        mon.registry().record_counter("k", Some(0), "misses", 10);
        mon.registry().record_counter("k", Some(1), "hits", 0);
        mon.registry().record_counter("k", Some(1), "misses", 40);
        let findings = mon.finish().to_vec();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].tenant, Some(1));
        assert!(!mon.healthy());
    }

    #[test]
    fn warmup_suppresses_cold_start_noise() {
        let mut mon = HealthMonitor::new().invariant(
            Invariant::ratio_min("hit-rate", m("hits"), m("misses"), 0.5).warmup(m("misses"), 100),
        );
        mon.registry().record_counter("k", None, "hits", 0);
        mon.registry().record_counter("k", None, "misses", 3);
        mon.finish();
        assert!(mon.healthy(), "3 misses is inside the warmup window");
    }

    #[test]
    fn untouched_scopes_keep_their_findings_and_new_invariants_see_all() {
        let mut mon = HealthMonitor::new()
            .with_interval(10)
            .invariant(Invariant::max("cap", m("events"), 5).per_tenant());
        mon.registry().record_counter("k", Some(1), "events", 9);
        assert_eq!(mon.observe(10), 1);
        mon.registry().record_counter("k", Some(2), "events", 1);
        assert_eq!(mon.observe(20), 0, "tenant 1 is not re-reported");
        mon.add_invariant(Invariant::min("floor", m("events"), 3).per_tenant());
        assert_eq!(mon.observe(30), 1, "the new invariant checks tenant 2");
        let found: Vec<_> = mon
            .finish()
            .iter()
            .map(|f| (f.invariant.as_str(), f.tenant, f.cycles))
            .collect();
        assert_eq!(
            found,
            vec![("cap", Some(1), Some(10)), ("floor", Some(2), Some(30))]
        );
    }

    #[test]
    fn finding_renders_scope_observation_bound_and_hint() {
        let mut mon = HealthMonitor::new().invariant(
            Invariant::max("churn", m("evictions"), 10)
                .per_tenant()
                .hint("check the slot hash for systematic aliasing"),
        );
        mon.registry()
            .record_counter("k", Some(7), "evictions", 999);
        mon.finish();
        let text = mon.findings()[0].to_string();
        assert!(text.contains("[churn]"), "{text}");
        assert!(text.contains("tenant 7"), "{text}");
        assert!(text.contains("k/evictions = 999"), "{text}");
        assert!(text.contains("<= 10"), "{text}");
        assert!(text.contains("> check the slot hash"), "{text}");
    }

    /// The monitor as it was before scopes were tracked: every evaluation
    /// re-checks every invariant against every scope.
    struct Naive {
        registry: Registry,
        invariants: Vec<Invariant>,
        interval: u64,
        last_eval: u64,
        findings: Vec<HealthFinding>,
    }

    impl Naive {
        fn observe(&mut self, cycles: u64) -> usize {
            if cycles.saturating_sub(self.last_eval) < self.interval {
                return 0;
            }
            self.last_eval = cycles;
            self.evaluate(Some(cycles))
        }

        fn evaluate(&mut self, cycles: Option<u64>) -> usize {
            let before = self.findings.len();
            for inv in &self.invariants {
                let scopes: Vec<Option<u32>> = match inv.scope {
                    Scope::Aggregate => vec![None],
                    Scope::PerTenant => self.registry.tenants().into_iter().map(Some).collect(),
                };
                for tenant in scopes {
                    if !inv.warmed_up(&self.registry, tenant) {
                        continue;
                    }
                    let Some(v) = inv.check.evaluate(&self.registry, tenant) else {
                        continue;
                    };
                    if self
                        .findings
                        .iter()
                        .any(|f| f.invariant == inv.name && f.tenant == tenant)
                    {
                        continue;
                    }
                    self.findings.push(HealthFinding {
                        invariant: inv.name.clone(),
                        tenant,
                        cycles,
                        observed: v.observed,
                        bound: v.bound,
                        hint: inv.hint.clone(),
                    });
                }
            }
            self.findings.len() - before
        }
    }

    /// Invariants over three metrics, both scopes, with warm-ups and one
    /// name shared by an aggregate and a per-tenant invariant.
    fn pool() -> Vec<Invariant> {
        vec![
            Invariant::ratio_min("rate", m("a"), m("b"), 0.5)
                .per_tenant()
                .warmup(m("b"), 30),
            Invariant::max("cap", m("c"), 50).per_tenant(),
            Invariant::min("floor", m("a"), 10),
            Invariant::ratio_max("ratio", m("c"), m("a"), 2.0).warmup(m("c"), 20),
            Invariant::max("cap", m("a"), 80),
            Invariant::min("other", MetricRef::new("j", "a"), 40).per_tenant(),
        ]
    }

    proptest! {
        #[test]
        fn findings_equal_a_re_evaluate_everything_model(
            ops in prop::collection::vec((0u8..10, 0u32..6, 0u8..4, 0u64..100), 0..40),
            interval in 1u64..200,
        ) {
            let pool = pool();
            let mut mon = HealthMonitor::new().with_interval(interval);
            let mut naive = Naive {
                registry: Registry::new(),
                invariants: Vec::new(),
                interval,
                last_eval: 0,
                findings: Vec::new(),
            };
            for inv in &pool[..2] {
                mon.add_invariant(inv.clone());
                naive.invariants.push(inv.clone());
            }
            let mut cycles = 0;
            for (op, scope, metric, value) in ops {
                match op {
                    0..=5 => {
                        let tenant = (scope < 5).then_some(scope);
                        let (component, name) = [("k", "a"), ("k", "b"), ("k", "c"), ("j", "a")]
                            [metric as usize];
                        mon.registry().record_counter(component, tenant, name, value);
                        naive.registry.record_counter(component, tenant, name, value);
                    }
                    6 | 7 => {
                        cycles += value * 3;
                        prop_assert_eq!(mon.observe(cycles), naive.observe(cycles));
                    }
                    8 => {
                        let inv = pool[(value as usize) % pool.len()].clone();
                        mon.add_invariant(inv.clone());
                        naive.invariants.push(inv);
                    }
                    _ => {
                        mon.finish();
                        naive.evaluate(None);
                    }
                }
                prop_assert_eq!(mon.findings(), &naive.findings[..]);
            }
            mon.finish();
            naive.evaluate(None);
            prop_assert_eq!(mon.findings(), &naive.findings[..]);
        }
    }
}
