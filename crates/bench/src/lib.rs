//! # efex-bench — regenerating every table and figure of the paper
//!
//! Each `table*`/`figure*` function reproduces one exhibit from the
//! evaluation of Thekkath & Levy (ASPLOS 1994) and returns structured data;
//! the `tables` binary formats them, the Criterion benches exercise the
//! same code paths under the timer, and the integration tests assert the
//! paper's qualitative conclusions (who wins, by roughly what factor,
//! where the crossovers fall).

#![warn(missing_docs)]

pub mod suite;
pub mod symgate;

use efex_analysis::{gc as gc_model, swizzle};
use efex_core::{DeliveryPath, ExceptionKind, System};
use efex_gc::{workloads as gc_workloads, BarrierKind, Gc, GcConfig};
use efex_mips::cycles::CLOCK_MHZ;
use efex_pstore::{workloads as ps_workloads, Policy, PstoreConfig, StableGraph, Strategy};

/// One row of Table 1: conventional OS delivery costs.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Operating system / hardware combination.
    pub system: String,
    /// Simple-exception delivery cost, µs.
    pub deliver_simple_us: f64,
    /// Write-protection-exception delivery cost, µs.
    pub deliver_write_prot_us: f64,
    /// Handler-return cost, µs.
    pub return_us: f64,
    /// Full round-trip cost, µs.
    pub round_trip_us: f64,
}

/// Regenerates Table 1 from the OS cost models.
pub fn table1() -> Vec<Table1Row> {
    efex_oscost::table1_systems()
        .into_iter()
        .map(|s| Table1Row {
            system: s.name().to_string(),
            deliver_simple_us: s.deliver_simple_micros(),
            deliver_write_prot_us: s.deliver_write_prot_micros(),
            return_us: s.return_micros(),
            round_trip_us: s.round_trip_micros(),
        })
        .collect()
}

/// One row of Table 2: fast-exception operation costs vs Ultrix.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// The measured operation, named as in the paper.
    pub operation: &'static str,
    /// Measured on the simulator's fast path, µs.
    pub fast_us: f64,
    /// Measured on the simulator's Unix-signal path, µs (where the paper
    /// reports an Ultrix number).
    pub unix_us: Option<f64>,
    /// The paper's fast-path value, µs.
    pub paper_fast_us: f64,
    /// The paper's Ultrix value, µs.
    pub paper_unix_us: Option<f64>,
}

/// Regenerates Table 2 by running the guest microbenchmarks.
///
/// # Errors
///
/// Fails only on simulator bugs.
pub fn table2() -> Result<Vec<Table2Row>, efex_core::CoreError> {
    let measure = |path, kind| -> Result<efex_core::RoundTrip, efex_core::CoreError> {
        System::builder()
            .delivery(path)
            .build()?
            .measure_null_roundtrip(kind)
    };
    let fast_simple = measure(DeliveryPath::FastUser, ExceptionKind::Breakpoint)?;
    let unix_simple = measure(DeliveryPath::UnixSignals, ExceptionKind::Breakpoint)?;
    let fast_prot = measure(DeliveryPath::FastUser, ExceptionKind::WriteProtect)?;
    let unix_prot = measure(DeliveryPath::UnixSignals, ExceptionKind::WriteProtect)?;
    let fast_sub = measure(DeliveryPath::FastUser, ExceptionKind::Subpage)?;
    Ok(vec![
        Table2Row {
            operation: "Deliver Simple Exception to Null User Handler",
            fast_us: fast_simple.deliver_micros(),
            unix_us: Some(unix_simple.deliver_micros()),
            paper_fast_us: 5.0,
            paper_unix_us: Some(70.0),
        },
        Table2Row {
            operation: "Deliver Write Prot. Exception To Null Handler",
            fast_us: fast_prot.deliver_micros(),
            unix_us: Some(unix_prot.deliver_micros()),
            paper_fast_us: 15.0,
            paper_unix_us: Some(60.0),
        },
        Table2Row {
            operation: "Deliver Subpage Exception To Null Handler",
            fast_us: fast_sub.deliver_micros(),
            unix_us: None,
            paper_fast_us: 19.0,
            paper_unix_us: None,
        },
        Table2Row {
            operation: "Return from Null Handler",
            fast_us: fast_simple.return_micros(),
            unix_us: Some(unix_simple.return_micros()),
            paper_fast_us: 3.0,
            paper_unix_us: None,
        },
        Table2Row {
            operation: "Simple Exception Round-Trip Delivery and Return",
            fast_us: fast_simple.total_micros(),
            unix_us: Some(unix_simple.total_micros()),
            paper_fast_us: 8.0,
            paper_unix_us: Some(80.0),
        },
    ])
}

/// Regenerates Table 3 (kernel fast-path handler instruction counts).
///
/// # Errors
///
/// Fails only on simulator bugs.
pub fn table3() -> Result<Vec<efex_core::Table3Row>, efex_core::CoreError> {
    System::builder()
        .delivery(DeliveryPath::FastUser)
        .build()?
        .measure_table3()
}

/// One row of Table 4: generational-GC application times.
#[derive(Clone, Debug)]
pub struct Table4Row {
    /// The GC application, named as in the paper.
    pub application: &'static str,
    /// Simulated run time with SIGSEGV + `mprotect` (Ultrix path), µs.
    pub sigsegv_us: f64,
    /// Simulated run time with fast exceptions + eager amplification, µs.
    pub fast_us: f64,
    /// Percentage improvement.
    pub improvement_pct: f64,
    /// Protection faults taken (identical across the two runs).
    pub faults: u64,
    /// The paper's improvement for this application, %.
    pub paper_improvement_pct: f64,
}

/// Workload scale for [`table4`].
#[derive(Clone, Copy, Debug)]
pub struct Table4Scale {
    /// Lisp-operations benchmark iterations.
    pub lisp_iterations: u32,
    /// Lisp-operations tree depth.
    pub lisp_depth: u32,
    /// Array-test array size in words.
    pub array_words: u32,
    /// Array-test replacement count.
    pub array_replacements: u32,
}

impl Default for Table4Scale {
    fn default() -> Table4Scale {
        Table4Scale {
            lisp_iterations: 60,
            lisp_depth: 7,
            array_words: 128 * 1024,
            array_replacements: 9_000,
        }
    }
}

/// Regenerates Table 4 by running both GC benchmarks under both delivery
/// mechanisms.
///
/// # Errors
///
/// Fails on collector configuration errors.
pub fn table4(scale: Table4Scale) -> Result<Vec<Table4Row>, efex_gc::GcError> {
    let gc_for = |path: DeliveryPath, eager: bool, threshold: u32| {
        Gc::new(GcConfig {
            path,
            barrier: BarrierKind::PageProtection,
            eager_amplification: eager,
            heap_bytes: 8 * 1024 * 1024,
            minor_threshold: threshold,
            ..GcConfig::default()
        })
    };
    let lisp = gc_workloads::LispOpsParams {
        iterations: scale.lisp_iterations,
        depth: scale.lisp_depth,
        ..gc_workloads::LispOpsParams::default()
    };
    let array = gc_workloads::ArrayTestParams {
        array_words: scale.array_words,
        replacements: scale.array_replacements,
        ..gc_workloads::ArrayTestParams::default()
    };

    let mut rows = Vec::new();
    // The paper's two configurations: Ultrix SIGSEGV + mprotect, and fast
    // exceptions with eager amplification.
    {
        let mut slow = gc_for(DeliveryPath::UnixSignals, false, 16 * 1024)?;
        let r_slow = gc_workloads::lisp_ops(&mut slow, lisp)?;
        let mut fast = gc_for(DeliveryPath::FastUser, true, 16 * 1024)?;
        let r_fast = gc_workloads::lisp_ops(&mut fast, lisp)?;
        rows.push(Table4Row {
            application: "Lisp Operations",
            sigsegv_us: r_slow.micros,
            fast_us: r_fast.micros,
            improvement_pct: 100.0 * (r_slow.micros - r_fast.micros) / r_slow.micros,
            faults: r_fast.stats.barrier_faults,
            paper_improvement_pct: 4.0,
        });
    }
    {
        let mut slow = gc_for(DeliveryPath::UnixSignals, false, 8 * 1024)?;
        let r_slow = gc_workloads::array_test(&mut slow, array)?;
        let mut fast = gc_for(DeliveryPath::FastUser, true, 8 * 1024)?;
        let r_fast = gc_workloads::array_test(&mut fast, array)?;
        rows.push(Table4Row {
            application: "Array Test",
            sigsegv_us: r_slow.micros,
            fast_us: r_fast.micros,
            improvement_pct: 100.0 * (r_slow.micros - r_fast.micros) / r_slow.micros,
            faults: r_fast.stats.barrier_faults,
            paper_improvement_pct: 10.0,
        });
    }
    Ok(rows)
}

/// One row of Table 5: break-even exception cost for the Hosking & Moss
/// applications.
#[derive(Clone, Debug)]
pub struct Table5Row {
    /// The Hosking & Moss application.
    pub application: &'static str,
    /// Break-even exception cost `y = c·x / (f·t)`, µs.
    pub breakeven_us: f64,
    /// Whether the fast path (18 µs fault + re-enable) beats checks.
    pub fast_wins: bool,
    /// Whether the Ultrix path (~80 µs) beats checks.
    pub ultrix_wins: bool,
}

/// Regenerates Table 5 from the analytic model.
pub fn table5() -> Vec<Table5Row> {
    gc_model::table5_apps()
        .into_iter()
        .map(|(name, p)| {
            let y = gc_model::breakeven_exception_micros(p);
            Table5Row {
                application: name,
                breakeven_us: y,
                fast_wins: gc_model::protection_wins(p, 18.0),
                ultrix_wins: gc_model::protection_wins(p, 80.0),
            }
        })
        .collect()
}

/// One point of a Figure 3 curve.
#[derive(Clone, Copy, Debug)]
pub struct Fig3Point {
    /// Cycles per software check (`c`).
    pub check_cycles: f64,
    /// Break-even uses per pointer: above this, exceptions win.
    pub breakeven_uses: f64,
}

/// The two analytic curves of Figure 3: break-even uses-per-pointer as a
/// function of check cost, for Ultrix-cost and fast-path exceptions.
pub fn figure3_curves() -> (Vec<Fig3Point>, Vec<Fig3Point>) {
    let curve = |t_us: f64| {
        (1..=20)
            .map(|c| Fig3Point {
                check_cycles: c as f64,
                breakeven_uses: swizzle::breakeven_uses(c as f64, t_us, CLOCK_MHZ),
            })
            .collect()
    };
    // 74 us: the unaligned-exception round trip under Ultrix; 6 us: the
    // paper's specialized fast handler (Section 4.2.2).
    (curve(74.0), curve(6.0))
}

/// A measured Figure 3 data point: simulated time for `u` uses of every
/// root-page pointer under each strategy.
#[derive(Clone, Copy, Debug)]
pub struct Fig3Measured {
    /// Uses of each root-page pointer.
    pub uses_per_pointer: u32,
    /// Simulated time under software checks, µs.
    pub checks_us: f64,
    /// Simulated time under fast unaligned exceptions, µs.
    pub fast_exceptions_us: f64,
    /// Simulated time under Unix-signal exceptions, µs.
    pub signal_exceptions_us: f64,
}

/// Measures Figure 3 companion points on the simulator.
///
/// # Errors
///
/// Fails on store errors.
pub fn figure3_measured(uses: &[u32]) -> Result<Vec<Fig3Measured>, efex_pstore::PstoreError> {
    let graph = || StableGraph::random(30, 50, 40, 0xf3);
    let mut out = Vec::new();
    for &u in uses {
        let chk = ps_workloads::pointer_uses(
            graph(),
            PstoreConfig {
                strategy: Strategy::SoftwareCheck,
                policy: Policy::Lazy,
                ..PstoreConfig::default()
            },
            u,
        )?;
        let fast = ps_workloads::pointer_uses(
            graph(),
            PstoreConfig {
                strategy: Strategy::Unaligned,
                policy: Policy::Lazy,
                path: DeliveryPath::FastUser,
                ..PstoreConfig::default()
            },
            u,
        )?;
        let slow = ps_workloads::pointer_uses(
            graph(),
            PstoreConfig {
                strategy: Strategy::Unaligned,
                policy: Policy::Lazy,
                path: DeliveryPath::UnixSignals,
                ..PstoreConfig::default()
            },
            u,
        )?;
        out.push(Fig3Measured {
            uses_per_pointer: u,
            checks_us: chk.micros,
            fast_exceptions_us: fast.micros,
            signal_exceptions_us: slow.micros,
        });
    }
    Ok(out)
}

/// One point of a Figure 4 curve.
#[derive(Clone, Copy, Debug)]
pub struct Fig4Point {
    /// Swizzle cost `s`, µs.
    pub swizzle_us: f64,
    /// Fraction of pointers per page that must be used before eager wins.
    pub breakeven_fraction: f64,
}

/// The two analytic curves of Figure 4 (50 pointers per page, as in the
/// paper): break-even used-fraction vs swizzle cost, for Ultrix-cost and
/// fast exceptions.
pub fn figure4_curves() -> (Vec<Fig4Point>, Vec<Fig4Point>) {
    let curve = |t_us: f64| {
        (1..=30)
            .map(|i| {
                let s = i as f64 * 0.2;
                let p = swizzle::SwizzleParams {
                    exception_micros: t_us,
                    swizzle_micros: s,
                    pointers_per_page: 50.0,
                    pointers_used: 0.0,
                };
                Fig4Point {
                    swizzle_us: s,
                    breakeven_fraction: swizzle::breakeven_pointers_used(p) / 50.0,
                }
            })
            .collect()
    };
    (curve(74.0), curve(6.0))
}

/// A measured Figure 4 data point: eager vs lazy traversal time at a given
/// pointer-use density.
#[derive(Clone, Copy, Debug)]
pub struct Fig4Measured {
    /// Pointers actually used per page.
    pub pointers_used: u32,
    /// Simulated eager-swizzling time, µs.
    pub eager_us: f64,
    /// Simulated lazy-swizzling time, µs.
    pub lazy_us: f64,
}

/// Measures Figure 4 companion points on the simulator.
///
/// # Errors
///
/// Fails on store errors.
pub fn figure4_measured(densities: &[u32]) -> Result<Vec<Fig4Measured>, efex_pstore::PstoreError> {
    let graph = || StableGraph::random(48, 50, 50, 0xf4);
    let mut out = Vec::new();
    for &pu in densities {
        let eager = ps_workloads::sparse_traversal(
            graph(),
            PstoreConfig {
                strategy: Strategy::ProtFault,
                policy: Policy::Eager,
                path: DeliveryPath::FastUser,
                ..PstoreConfig::default()
            },
            pu,
            24,
        )?;
        let lazy = ps_workloads::sparse_traversal(
            graph(),
            PstoreConfig {
                strategy: Strategy::Unaligned,
                policy: Policy::Lazy,
                path: DeliveryPath::FastUser,
                ..PstoreConfig::default()
            },
            pu,
            24,
        )?;
        out.push(Fig4Measured {
            pointers_used: pu,
            eager_us: eager.micros,
            lazy_us: lazy.micros,
        });
    }
    Ok(out)
}

/// Extension experiment: DSM coherence-miss latency under each path.
#[derive(Clone, Copy, Debug)]
pub struct DsmRow {
    /// The delivery path under test.
    pub path: DeliveryPath,
    /// Total simulated time, µs.
    pub total_us: f64,
    /// Coherence faults taken.
    pub faults: u64,
}

/// Runs a ping-pong DSM workload under each delivery path.
///
/// # Errors
///
/// Fails on DSM errors.
pub fn dsm_comparison(rounds: u32) -> Result<Vec<DsmRow>, efex_dsm::DsmError> {
    let mut rows = Vec::new();
    for path in [
        DeliveryPath::UnixSignals,
        DeliveryPath::FastUser,
        DeliveryPath::HardwareVectored,
    ] {
        let mut d = efex_dsm::Dsm::new(efex_dsm::DsmConfig {
            nodes: 2,
            pages: 2,
            path,
            ..efex_dsm::DsmConfig::default()
        })?;
        let a = d.base();
        for i in 0..rounds {
            d.write((i % 2) as usize, a, i)?;
            d.read(((i + 1) % 2) as usize, a)?;
        }
        rows.push(DsmRow {
            path,
            total_us: d.total_micros(),
            faults: d.stats().faults,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_six_systems_with_sunos_best() {
        let t = table1();
        assert_eq!(t.len(), 6);
        let sunos = t.iter().find(|r| r.system.contains("SunOS")).unwrap();
        for r in &t {
            assert!(r.round_trip_us >= sunos.round_trip_us - 0.5, "{}", r.system);
        }
    }

    #[test]
    fn table5_matches_paper_conclusion() {
        for row in table5() {
            assert!(
                row.fast_wins,
                "{}: fast exceptions must win",
                row.application
            );
            assert!(!row.ultrix_wins, "{}: Ultrix must lose", row.application);
        }
    }

    #[test]
    fn figure3_fast_curve_sits_below_ultrix_curve() {
        let (ultrix, fast) = figure3_curves();
        for (u, f) in ultrix.iter().zip(&fast) {
            assert!(f.breakeven_uses < u.breakeven_uses);
        }
    }

    #[test]
    fn figure4_fast_curve_extends_the_lazy_region() {
        let (ultrix, fast) = figure4_curves();
        for (u, f) in ultrix.iter().zip(&fast) {
            assert!(
                f.breakeven_fraction >= u.breakeven_fraction,
                "at s={}: {} vs {}",
                u.swizzle_us,
                f.breakeven_fraction,
                u.breakeven_fraction
            );
        }
    }
}
