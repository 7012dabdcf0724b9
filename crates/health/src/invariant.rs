//! Declarative invariant specifications.
//!
//! An [`Invariant`] states what "the mechanism is still effective" means for
//! one metric (or ratio of metrics): a bound, an optional warmup window so
//! cold starts don't trip it, a scope (aggregate vs per-tenant), and an
//! actionable hint included verbatim in any finding. The monitor evaluates
//! these against the registry; the specs themselves are pure data.

use std::fmt;

use crate::registry::Registry;

/// Addresses one metric in the registry: `component/name`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricRef {
    /// Component that recorded the metric (e.g. `"kernel-health"`).
    pub component: String,
    /// Counter name within the component.
    pub name: String,
}

impl MetricRef {
    /// A reference to `name` under `component`.
    pub fn new(component: impl Into<String>, name: impl Into<String>) -> MetricRef {
        MetricRef {
            component: component.into(),
            name: name.into(),
        }
    }

    fn resolve(&self, reg: &Registry, tenant: Option<u32>) -> Option<u64> {
        reg.get(&self.component, tenant, &self.name)
    }
}

impl fmt::Display for MetricRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.component, self.name)
    }
}

/// Whether an invariant is checked once against aggregate samples or once
/// per tenant present in the registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Evaluate against unscoped (`tenant == None`) samples.
    Aggregate,
    /// Evaluate once for every tenant id the registry has seen.
    PerTenant,
}

/// The bound an invariant asserts.
#[derive(Clone, Debug)]
pub enum Check {
    /// `metric >= min`.
    Min {
        /// The watched metric.
        metric: MetricRef,
        /// Lower bound, inclusive.
        min: u64,
    },
    /// `metric <= max`.
    Max {
        /// The watched metric.
        metric: MetricRef,
        /// Upper bound, inclusive.
        max: u64,
    },
    /// `num / den >= min`. Skipped while `den == 0` (no signal yet).
    RatioMin {
        /// Numerator metric.
        num: MetricRef,
        /// Denominator metric.
        den: MetricRef,
        /// Lower bound on the ratio, inclusive.
        min: f64,
    },
    /// `num / den <= max`. Skipped while `den == 0`.
    RatioMax {
        /// Numerator metric.
        num: MetricRef,
        /// Denominator metric.
        den: MetricRef,
        /// Upper bound on the ratio, inclusive.
        max: f64,
    },
}

/// A violated check, rendered for the finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// What was measured, with the raw operands (e.g.
    /// `"kernel-health/superblock_hits / kernel-health/superblock_misses = 0.000 (0 / 1423)"`).
    pub observed: String,
    /// The bound it broke (e.g. `">= 0.25"`).
    pub bound: String,
}

impl Check {
    /// Evaluates against `reg` in the given tenant scope. `None` means the
    /// check passed — or could not be evaluated (metric absent, ratio
    /// denominator zero), which is deliberately not a violation: a layer
    /// that never reported is covered by `Min` activity invariants instead.
    pub fn evaluate(&self, reg: &Registry, tenant: Option<u32>) -> Option<Violation> {
        match self {
            Check::Min { metric, min } => {
                let v = metric.resolve(reg, tenant)?;
                (v < *min).then(|| Violation {
                    observed: format!("{metric} = {v}"),
                    bound: format!(">= {min}"),
                })
            }
            Check::Max { metric, max } => {
                let v = metric.resolve(reg, tenant)?;
                (v > *max).then(|| Violation {
                    observed: format!("{metric} = {v}"),
                    bound: format!("<= {max}"),
                })
            }
            Check::RatioMin { num, den, min } => {
                let (n, d) = (num.resolve(reg, tenant)?, den.resolve(reg, tenant)?);
                if d == 0 {
                    return None;
                }
                let ratio = n as f64 / d as f64;
                (ratio < *min).then(|| Violation {
                    observed: format!("{num} / {den} = {ratio:.3} ({n} / {d})"),
                    bound: format!(">= {min}"),
                })
            }
            Check::RatioMax { num, den, max } => {
                let (n, d) = (num.resolve(reg, tenant)?, den.resolve(reg, tenant)?);
                if d == 0 {
                    return None;
                }
                let ratio = n as f64 / d as f64;
                (ratio > *max).then(|| Violation {
                    observed: format!("{num} / {den} = {ratio:.3} ({n} / {d})"),
                    bound: format!("<= {max}"),
                })
            }
        }
    }
}

/// The warmup window: evaluation is skipped until this activity metric has
/// reached `min_value` (in the same tenant scope), so invariants about
/// *rates* don't trip on the first handful of events.
#[derive(Clone, Debug)]
pub struct Warmup {
    /// Activity metric that gates evaluation.
    pub metric: MetricRef,
    /// Evaluation starts once the metric reaches this value.
    pub min_value: u64,
}

/// One declarative health invariant.
#[derive(Clone, Debug)]
pub struct Invariant {
    /// Short kebab-case identifier (e.g. `"degraded-deliveries"`).
    pub name: String,
    /// Aggregate vs per-tenant evaluation.
    pub scope: Scope,
    /// The bound.
    pub check: Check,
    /// Optional warmup gate.
    pub warmup: Option<Warmup>,
    /// Actionable guidance for whoever reads the finding: what the
    /// violation usually means and where to look first.
    pub hint: String,
}

impl Invariant {
    /// `metric >= min`, aggregate scope.
    pub fn min(name: impl Into<String>, metric: MetricRef, min: u64) -> Invariant {
        Invariant::with_check(name, Check::Min { metric, min })
    }

    /// `metric <= max`, aggregate scope.
    pub fn max(name: impl Into<String>, metric: MetricRef, max: u64) -> Invariant {
        Invariant::with_check(name, Check::Max { metric, max })
    }

    /// `num / den >= min`, aggregate scope.
    pub fn ratio_min(
        name: impl Into<String>,
        num: MetricRef,
        den: MetricRef,
        min: f64,
    ) -> Invariant {
        Invariant::with_check(name, Check::RatioMin { num, den, min })
    }

    /// `num / den <= max`, aggregate scope.
    pub fn ratio_max(
        name: impl Into<String>,
        num: MetricRef,
        den: MetricRef,
        max: f64,
    ) -> Invariant {
        Invariant::with_check(name, Check::RatioMax { num, den, max })
    }

    fn with_check(name: impl Into<String>, check: Check) -> Invariant {
        Invariant {
            name: name.into(),
            scope: Scope::Aggregate,
            check,
            warmup: None,
            hint: String::new(),
        }
    }

    /// Switches to per-tenant evaluation.
    pub fn per_tenant(mut self) -> Invariant {
        self.scope = Scope::PerTenant;
        self
    }

    /// Gates evaluation until `metric >= min_value`.
    pub fn warmup(mut self, metric: MetricRef, min_value: u64) -> Invariant {
        self.warmup = Some(Warmup { metric, min_value });
        self
    }

    /// Attaches the actionable hint.
    pub fn hint(mut self, hint: impl Into<String>) -> Invariant {
        self.hint = hint.into();
        self
    }

    /// True when the warmup gate (if any) is satisfied in this scope.
    pub fn warmed_up(&self, reg: &Registry, tenant: Option<u32>) -> bool {
        match &self.warmup {
            None => true,
            Some(w) => w
                .metric
                .resolve(reg, tenant)
                .is_some_and(|v| v >= w.min_value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> Registry {
        let mut r = Registry::new();
        r.record_counter("k", None, "hits", 10);
        r.record_counter("k", None, "misses", 90);
        r.record_counter("k", Some(3), "hits", 0);
        r.record_counter("k", Some(3), "misses", 50);
        r
    }

    fn m(name: &str) -> MetricRef {
        MetricRef::new("k", name)
    }

    #[test]
    fn min_and_max_bounds() {
        let r = reg();
        assert!(Check::Min {
            metric: m("hits"),
            min: 10
        }
        .evaluate(&r, None)
        .is_none());
        let v = Check::Min {
            metric: m("hits"),
            min: 11,
        }
        .evaluate(&r, None)
        .expect("10 < 11 must trip");
        assert_eq!(v.observed, "k/hits = 10");
        assert_eq!(v.bound, ">= 11");
        assert!(Check::Max {
            metric: m("misses"),
            max: 89
        }
        .evaluate(&r, None)
        .is_some());
    }

    #[test]
    fn ratio_bounds_and_zero_denominator() {
        let r = reg();
        // 10 / 90 = 0.111; min 0.25 trips.
        let v = Check::RatioMin {
            num: m("hits"),
            den: m("misses"),
            min: 0.25,
        }
        .evaluate(&r, None)
        .expect("0.111 < 0.25");
        assert!(v.observed.contains("0.111"), "{}", v.observed);
        // Tenant 3: hits 0 / misses 50 → ratio 0, trips with tenant scope.
        assert!(Check::RatioMin {
            num: m("hits"),
            den: m("misses"),
            min: 0.25
        }
        .evaluate(&r, Some(3))
        .is_some());
        // Zero denominator: skipped, not a violation.
        let mut r2 = Registry::new();
        r2.record_counter("k", None, "hits", 0);
        r2.record_counter("k", None, "misses", 0);
        assert!(Check::RatioMin {
            num: m("hits"),
            den: m("misses"),
            min: 0.25
        }
        .evaluate(&r2, None)
        .is_none());
    }

    #[test]
    fn missing_metric_is_not_a_violation() {
        let r = reg();
        assert!(Check::Min {
            metric: MetricRef::new("k", "absent"),
            min: 1
        }
        .evaluate(&r, None)
        .is_none());
    }

    #[test]
    fn warmup_gates_evaluation() {
        let r = reg();
        let inv = Invariant::ratio_min("hit-rate", m("hits"), m("misses"), 0.25)
            .warmup(m("misses"), 1000);
        assert!(!inv.warmed_up(&r, None), "only 90 misses of 1000 warmup");
        let warm =
            Invariant::ratio_min("hit-rate", m("hits"), m("misses"), 0.25).warmup(m("misses"), 50);
        assert!(warm.warmed_up(&r, None));
    }
}
