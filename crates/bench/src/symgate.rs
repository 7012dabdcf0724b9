//! The static verification gate over every guest image the suite executes.
//!
//! Glue between the bench suite's embedded images and the `efex-verify`
//! analyzers: assembles the same kernel, trampoline, and guest programs
//! the dynamic measurements run, applies the classic per-image lints
//! ([`efex_verify::analyze`]), runs the whole-image symbolic explorer
//! ([`efex_verify::symex`]) over the kernel alone and over every composed
//! Table 2 bench, and cross-checks the static per-class cycle bounds
//! against the recorded `table2/*` metrics in the committed baseline.
//! The `lint` binary and the integration tests both call through here so
//! the gate and the tests cannot diverge.

use efex_core::debug_progs as progs;
use efex_mips::asm::{assemble, Program};
use efex_report::jsonval::{self, Value};
use efex_simos::compose::{bench_case, kernel_only_case, BenchKind};
use efex_simos::fastexc::KERNEL_ASM;
use efex_simos::kernel::TRAMPOLINE_ASM;
use efex_simos::verify as simverify;
use efex_verify::interproc::Images;
use efex_verify::symex::{explore, SymexReport};
use efex_verify::{Finding, Report, VerifyConfig};

/// Loop count used when assembling a bench for static analysis; the static
/// shape is identical for any n.
pub const SYMEX_BENCH_N: u32 = 4;

/// The three images of one composed bench, assembled.
pub struct ComposedImages {
    /// The kernel image (vectors + fast-path handler).
    pub kernel: Program,
    /// The signal trampoline.
    pub trampoline: Program,
    /// The guest microbenchmark program.
    pub app: Program,
}

/// The source generator for one [`BenchKind`] — the same programs the
/// dynamic Table 2 measurement executes.
pub fn bench_source(kind: BenchKind) -> String {
    match kind {
        BenchKind::FastBreakpoint => progs::fast_simple_bench(SYMEX_BENCH_N),
        BenchKind::FastWriteProtect => progs::fast_prot_bench(SYMEX_BENCH_N),
        BenchKind::FastSubpage => progs::fast_subpage_bench(SYMEX_BENCH_N),
        BenchKind::FastUnaligned => progs::fast_unaligned_specialized_bench(SYMEX_BENCH_N),
        BenchKind::UnixBreakpoint => progs::unix_simple_bench(SYMEX_BENCH_N),
        BenchKind::UnixWriteProtect => progs::unix_prot_bench(SYMEX_BENCH_N),
        BenchKind::HwBreakpoint => progs::hw_simple_bench(SYMEX_BENCH_N),
    }
}

/// Assembles the kernel, trampoline, and guest program for `kind`.
///
/// # Errors
///
/// Returns the assembler diagnostic if any of the three sources fails to
/// assemble (a build break, not a lint finding).
pub fn assemble_composed(kind: BenchKind) -> Result<ComposedImages, String> {
    let kernel = assemble(KERNEL_ASM).map_err(|e| format!("kernel: {e}"))?;
    let trampoline = assemble(TRAMPOLINE_ASM).map_err(|e| format!("trampoline: {e}"))?;
    let app = assemble(&bench_source(kind)).map_err(|e| format!("{}: {e}", kind.row()))?;
    Ok(ComposedImages {
        kernel,
        trampoline,
        app,
    })
}

/// Runs the kernel-only symbolic pass: every architecturally raisable
/// class against the kernel image under a symbolic registration.
///
/// # Errors
///
/// Only if the embedded kernel image fails to assemble.
pub fn explore_kernel_only() -> Result<SymexReport, String> {
    let kernel = assemble(KERNEL_ASM).map_err(|e| format!("kernel: {e}"))?;
    let case = kernel_only_case(&kernel);
    let images = Images::new(vec![("kernel", &kernel)]);
    Ok(explore(&images, &case.config, &case.scenarios))
}

/// Runs the fully composed symbolic pass for one Table 2 bench: kernel +
/// trampoline + guest program, deep through the guest handler.
///
/// # Errors
///
/// Only if one of the embedded sources fails to assemble.
pub fn explore_bench(kind: BenchKind) -> Result<SymexReport, String> {
    let imgs = assemble_composed(kind)?;
    let case = bench_case(kind, &imgs.kernel, &imgs.trampoline, &imgs.app);
    let images = Images::new(vec![
        ("kernel", &imgs.kernel),
        ("trampoline", &imgs.trampoline),
        ("app", &imgs.app),
    ]);
    Ok(explore(&images, &case.config, &case.scenarios))
}

/// Static `[min, max]` cycle bounds for one Table 2 row, merged across the
/// row's delivery variants (direct and, where modeled, refill).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RowBounds {
    /// Raise → handler entry.
    pub deliver: (u64, u64),
    /// Handler completion → user resume.
    pub ret: (u64, u64),
}

/// Merges the per-variant deliver/return spans of `report` into one
/// `[min, max]` interval per measure, or `None` when no path crossed the
/// measure labels.
pub fn row_bounds(report: &SymexReport) -> Option<RowBounds> {
    let mut deliver: Option<(u64, u64)> = None;
    let mut ret: Option<(u64, u64)> = None;
    let merge = |acc: &mut Option<(u64, u64)>, span: Option<(u64, u64)>| {
        if let Some((lo, hi)) = span {
            *acc = Some(match *acc {
                Some((alo, ahi)) => (alo.min(lo), ahi.max(hi)),
                None => (lo, hi),
            });
        }
    };
    for s in &report.scenarios {
        merge(&mut deliver, s.deliver);
        merge(&mut ret, s.ret);
    }
    Some(RowBounds {
        deliver: deliver?,
        ret: ret?,
    })
}

/// One classically linted image: name plus the [`efex_verify::analyze`]
/// report.
pub struct ImageReport {
    /// Image name as shown in diagnostics.
    pub name: &'static str,
    /// The per-image analysis report.
    pub report: Report,
}

/// One composed bench's symbolic result.
pub struct BenchSymex {
    /// Which Table 2 composition.
    pub kind: BenchKind,
    /// The explorer's report (findings + per-scenario outcomes).
    pub report: SymexReport,
    /// Merged deliver/return bounds, when the measure labels were crossed.
    pub bounds: Option<RowBounds>,
}

/// Everything the lint gate computes in one run.
pub struct GateResult {
    /// Classic per-image lint reports (kernel, trampoline, every bench).
    pub images: Vec<ImageReport>,
    /// The kernel-only symbolic pass.
    pub kernel_only: Option<SymexReport>,
    /// The composed symbolic pass, one entry per Table 2 bench.
    pub benches: Vec<BenchSymex>,
    /// Assembly or configuration failures (build breaks, not findings).
    pub errors: Vec<String>,
}

impl GateResult {
    /// True when every pass ran and produced no finding.
    pub fn clean(&self) -> bool {
        self.errors.is_empty()
            && self.images.iter().all(|i| i.report.is_clean())
            && self.kernel_only.as_ref().is_some_and(SymexReport::is_clean)
            && self.benches.iter().all(|b| b.report.is_clean())
    }

    /// The whole gate result as one JSON document (the machine-readable
    /// `lint --json` output).
    pub fn to_value(&self) -> Value {
        let findings = |findings: &[Finding]| findings.iter().map(finding_value).collect::<Value>();
        let images = self.images.iter().map(|i| {
            Value::object()
                .with("name", i.name)
                .with("instructions_analyzed", i.report.instructions_analyzed)
                .with("findings", findings(&i.report.findings))
        });
        let benches = self.benches.iter().map(|b| {
            let mut bench = Value::object().with("row", b.kind.row());
            if let Some(rb) = b.bounds {
                bench = bench
                    .with("deliver", Value::from_iter([rb.deliver.0, rb.deliver.1]))
                    .with("return", Value::from_iter([rb.ret.0, rb.ret.1]));
            }
            bench
                .with("paths", b.report.paths_explored)
                .with("findings", findings(&b.report.findings))
        });
        let mut symex = Value::object();
        if let Some(ko) = &self.kernel_only {
            symex = symex.with(
                "kernel_only",
                Value::object()
                    .with("scenarios", ko.scenarios.len())
                    .with("paths", ko.paths_explored)
                    .with("findings", findings(&ko.findings)),
            );
        }
        Value::object()
            .with("clean", self.clean())
            .with(
                "errors",
                self.errors.iter().map(String::as_str).collect::<Value>(),
            )
            .with("images", images.collect::<Value>())
            .with("symex", symex.with("benches", benches.collect::<Value>()))
    }
}

/// One lint finding as a JSON object, built from its public fields.
fn finding_value(f: &Finding) -> Value {
    Value::object()
        .with("lint", f.lint.code())
        .with("addr", f.addr)
        .with("location", f.location.as_str())
        .with("line", f.line)
        .with("message", f.message.as_str())
        .with("context", f.context.as_str())
}

/// Runs the whole static gate: classic lints over every embedded image,
/// the kernel-only symbolic pass, and the composed symbolic pass for every
/// Table 2 bench. Never panics on bad input; assembly failures land in
/// [`GateResult::errors`].
pub fn run_gate() -> GateResult {
    let mut result = GateResult {
        images: Vec::new(),
        kernel_only: None,
        benches: Vec::new(),
        errors: Vec::new(),
    };

    // Classic per-image lints, same contracts as always: the kernel under
    // the full Table 3 contract, the trampoline and benches under the
    // hazard lints.
    match assemble(KERNEL_ASM) {
        Ok(kernel) => result.images.push(ImageReport {
            name: "kernel image (KERNEL_ASM)",
            report: simverify::verify_kernel_image(&kernel),
        }),
        Err(e) => result.errors.push(format!("kernel: {e}")),
    }
    match assemble(TRAMPOLINE_ASM) {
        Ok(t) => result.images.push(ImageReport {
            name: "signal trampoline (TRAMPOLINE_ASM)",
            report: simverify::verify_trampoline_image(&t),
        }),
        Err(e) => result.errors.push(format!("trampoline: {e}")),
    }
    type BenchGen = fn(u32) -> String;
    let benches: [(&'static str, BenchGen); 7] = [
        ("fast_simple_bench", progs::fast_simple_bench),
        ("hw_simple_bench", progs::hw_simple_bench),
        ("unix_simple_bench", progs::unix_simple_bench),
        ("fast_prot_bench", progs::fast_prot_bench),
        ("unix_prot_bench", progs::unix_prot_bench),
        ("fast_subpage_bench", progs::fast_subpage_bench),
        (
            "fast_unaligned_specialized_bench",
            progs::fast_unaligned_specialized_bench,
        ),
    ];
    for (name, gen) in benches {
        let src = gen(SYMEX_BENCH_N);
        let prog = match assemble(&src) {
            Ok(p) => p,
            Err(e) => {
                result.errors.push(format!("{name}: {e}"));
                continue;
            }
        };
        let mut config = VerifyConfig::hazards_only(prog.entry());
        for root in ["uh_entry", "null_handler"] {
            if let Some(&addr) = prog.labels().get(root) {
                config.extra_roots.push(addr);
            }
        }
        match efex_verify::analyze(&prog, &config) {
            Ok(report) => result.images.push(ImageReport { name, report }),
            Err(e) => result.errors.push(format!("{name}: bad config: {e}")),
        }
    }

    // The symbolic pass: kernel alone, then every composition.
    match explore_kernel_only() {
        Ok(r) => result.kernel_only = Some(r),
        Err(e) => result.errors.push(e),
    }
    for kind in BenchKind::ALL {
        match explore_bench(kind) {
            Ok(report) => {
                let bounds = row_bounds(&report);
                result.benches.push(BenchSymex {
                    kind,
                    report,
                    bounds,
                });
            }
            Err(e) => result.errors.push(e),
        }
    }
    result
}

/// One baseline cross-check: a `table2` metric against the static bound
/// that must bracket it.
#[derive(Clone, Debug)]
pub struct CrossCheck {
    /// The `table2/{path}/{class}/{measure}` metric name.
    pub metric: String,
    /// The dynamic value recorded in the baseline.
    pub dynamic: u64,
    /// The static `[min, max]` bound.
    pub bound: (u64, u64),
}

impl CrossCheck {
    /// Whether the dynamic value sits inside the static bound. When the
    /// bound is tight (`min == max`, a deterministic path) this is a
    /// bit-exact equality check.
    pub fn holds(&self) -> bool {
        self.bound.0 <= self.dynamic && self.dynamic <= self.bound.1
    }

    /// Whether the bound is tight — a single deterministic path.
    pub fn exact(&self) -> bool {
        self.bound.0 == self.bound.1
    }
}

/// Cross-checks the static bounds of an already-run gate against the
/// `table2/*` cycle metrics in `baseline_json` (the contents of
/// `BENCH_baseline.json`). Returns one [`CrossCheck`] per metric found.
///
/// # Errors
///
/// On a malformed baseline, a missing metric, a bench whose symbolic pass
/// did not produce bounds, or a dynamic value outside its static bound —
/// each rendered as one diagnostic line.
pub fn crosscheck_baseline(
    gate: &GateResult,
    baseline_json: &str,
) -> Result<Vec<CrossCheck>, Vec<String>> {
    let root = match jsonval::parse(baseline_json) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("baseline does not parse: {e}")]),
    };
    let mut metrics = std::collections::BTreeMap::new();
    match root.get("metrics").and_then(|m| m.as_array()) {
        Some(list) => {
            for m in list {
                if let (Some(name), Some(value)) = (
                    m.get("name").and_then(|v| v.as_str()),
                    m.get("value").and_then(|v| v.as_u64()),
                ) {
                    metrics.insert(name.to_string(), value);
                }
            }
        }
        None => return Err(vec!["baseline has no metrics array".to_string()]),
    }

    let mut errors = Vec::new();
    let mut checks = Vec::new();
    for b in &gate.benches {
        let Some(bounds) = b.bounds else {
            errors.push(format!(
                "{}: symbolic pass never crossed the measure labels",
                b.kind.row()
            ));
            continue;
        };
        for (measure, bound) in [
            ("deliver_cycles", bounds.deliver),
            ("return_cycles", bounds.ret),
        ] {
            let metric = format!("table2/{}/{measure}", b.kind.row());
            let Some(&dynamic) = metrics.get(&metric) else {
                errors.push(format!("baseline lacks metric {metric}"));
                continue;
            };
            let check = CrossCheck {
                metric,
                dynamic,
                bound,
            };
            if !check.holds() {
                errors.push(format!(
                    "{}: dynamic {} outside static bound [{}, {}]",
                    check.metric, check.dynamic, check.bound.0, check.bound.1
                ));
            }
            checks.push(check);
        }
    }
    if errors.is_empty() {
        Ok(checks)
    } else {
        Err(errors)
    }
}
