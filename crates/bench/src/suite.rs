//! The canonical measurement suite behind the `report` binary.
//!
//! [`record_baseline`] runs every deterministic measurement the repo makes —
//! the Table 1 cost models, the Table 2 guest delivery matrix, the Table 3
//! region profile, the Table 4 GC comparison, and one fixed workload per
//! application crate — and returns a [`Baseline`] suitable for committing as
//! `BENCH_baseline.json` and re-checking in CI. Everything here is simulated
//! cycles, never wall-clock time, so cycle and instruction counts are exact
//! across runs and machines; only derived microsecond values carry a
//! tolerance (and even those are deterministic — the tolerance exists so a
//! deliberate re-tuning shows up as one reviewable re-record, not CI noise).
//!
//! [`chrome_trace_fastpath`] and [`folded_fastpath`] export the same
//! measurements as timeline/flamegraph artifacts.

use std::error::Error;
use std::rc::Rc;

use efex_core::{DeliveryPath, ExceptionKind, System};
use efex_mips::cycles::CLOCK_MHZ;
use efex_report::{flame, Baseline, ChromeTrace};
use efex_trace::{FaultClass, RingSink, StatsSnapshot};

use crate::{table4, Table4Scale};

/// Every (path, kind) pair the guest microbenchmarks implement — the full
/// Table 2 delivery matrix.
pub const GUEST_MATRIX: [(DeliveryPath, ExceptionKind); 7] = [
    (DeliveryPath::UnixSignals, ExceptionKind::Breakpoint),
    (DeliveryPath::UnixSignals, ExceptionKind::WriteProtect),
    (DeliveryPath::FastUser, ExceptionKind::Breakpoint),
    (DeliveryPath::FastUser, ExceptionKind::WriteProtect),
    (DeliveryPath::FastUser, ExceptionKind::Subpage),
    (DeliveryPath::FastUser, ExceptionKind::UnalignedSpecialized),
    (DeliveryPath::HardwareVectored, ExceptionKind::Breakpoint),
];

/// Table 4 scale used for the baseline: smaller than the exhibit default so
/// `--check` stays fast, but large enough to run real collections.
const BASELINE_TABLE4_SCALE: Table4Scale = Table4Scale {
    lisp_iterations: 30,
    lisp_depth: 7,
    array_words: 64 * 1024,
    array_replacements: 3_000,
};

/// Lowercases a display name into a stable metric-key segment.
fn slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut last_dash = true; // suppress leading dashes
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            last_dash = false;
        } else if !last_dash {
            out.push('-');
            last_dash = true;
        }
    }
    while out.ends_with('-') {
        out.pop();
    }
    out
}

/// Stack reserved for the suite thread. The simulator types (`System`, `Gc`)
/// are ~70 KiB by value and unoptimized builds keep several temporaries of
/// them live per construction, which overflows the 2 MiB default of test
/// threads; a dedicated thread makes the suite caller-agnostic.
const SUITE_STACK_BYTES: usize = 16 * 1024 * 1024;

/// Runs the full canonical suite and returns the resulting baseline.
///
/// # Errors
///
/// Propagates any simulator or workload error.
pub fn record_baseline() -> Result<Baseline, Box<dyn Error>> {
    let handle = std::thread::Builder::new()
        .name("efex-suite".into())
        .stack_size(SUITE_STACK_BYTES)
        .spawn(record_baseline_inner)?;
    handle
        .join()
        .map_err(|_| "baseline suite thread panicked")?
        .map_err(|e| e as Box<dyn Error>)
}

fn record_baseline_inner() -> Result<Baseline, Box<dyn Error + Send + Sync>> {
    let mut b = Baseline::new();
    b.set_provenance("paper", "thekkath-levy-asplos-1994");
    b.set_provenance("clock_mhz", format!("{CLOCK_MHZ}"));
    b.set_provenance("package", concat!("efex-bench ", env!("CARGO_PKG_VERSION")));
    b.set_provenance(
        "generator",
        "cargo run --release -p efex-bench --bin report -- --record",
    );

    // Table 1: closed-form OS cost models. Derived floats (µs).
    for s in efex_oscost::table1_systems() {
        let key = format!("table1/{}", slug(s.name()));
        b.push_float(
            format!("{key}/deliver_simple_us"),
            s.deliver_simple_micros(),
            "us",
        );
        b.push_float(format!("{key}/round_trip_us"), s.round_trip_micros(), "us");
    }

    // Table 2: the guest delivery matrix. Exact simulated cycle counts.
    for (path, kind) in GUEST_MATRIX {
        let rt = System::builder()
            .delivery(path)
            .build()?
            .measure_null_roundtrip(kind)?;
        let key = format!("table2/{path}/{}", FaultClass::from(kind).as_str());
        b.push_int(format!("{key}/deliver_cycles"), rt.deliver_cycles, "cycles");
        b.push_int(format!("{key}/return_cycles"), rt.return_cycles, "cycles");
    }

    // Table 3: per-region dynamic instruction counts of the fast-path
    // handler. Exact.
    let rows = System::builder()
        .delivery(DeliveryPath::FastUser)
        .build()?
        .measure_table3()?;
    for row in &rows {
        b.push_int(
            format!("table3/{}/instructions", row.label),
            row.measured_instructions,
            "instructions",
        );
    }

    // Static verifier cross-check: the fast-path bound efex-verify computes
    // over the assembled kernel image must equal the dynamic Table 3 counts
    // bit-exactly, and is committed as its own metric family so either side
    // drifting fails the baseline check.
    let kimage = efex_mips::asm::assemble(efex_simos::fastexc::KERNEL_ASM)
        .map_err(|e| format!("kernel image: {e}"))?;
    let verify_report = efex_simos::verify::verify_kernel_image(&kimage);
    if !verify_report.is_clean() {
        return Err(format!(
            "kernel image fails static verification:\n{}",
            verify_report.render()
        )
        .into());
    }
    let fp = verify_report
        .fast_path
        .as_ref()
        .ok_or("verifier computed no static fast path")?;
    for p in &fp.per_phase {
        b.push_int(
            format!("verify/table3/{}/static_instructions", p.label),
            p.instructions,
            "instructions",
        );
        let dynamic = rows
            .iter()
            .find(|r| r.label == p.label.as_str())
            .map(|r| r.measured_instructions);
        if dynamic != Some(p.instructions) {
            return Err(format!(
                "static fast-path bound for {} is {} instructions but the dynamic \
                 Table 3 count is {dynamic:?}: analyzer and simulator disagree",
                p.label, p.instructions
            )
            .into());
        }
    }
    b.push_int(
        "verify/fast_path/static_instructions",
        fp.total_instructions,
        "instructions",
    );
    b.push_int("verify/fast_path/static_cycles", fp.total_cycles, "cycles");

    // Table 4: the GC comparison at baseline scale. Times are derived µs;
    // fault counts are exact.
    for row in table4(BASELINE_TABLE4_SCALE)? {
        let key = format!("table4/{}", slug(row.application));
        b.push_float(format!("{key}/sigsegv_us"), row.sigsegv_us, "us");
        b.push_float(format!("{key}/fast_us"), row.fast_us, "us");
        b.push_int(format!("{key}/faults"), row.faults, "faults");
    }

    // One fixed workload per application crate: run time (derived µs) plus
    // every stats counter (exact).
    type AppResult = Result<(f64, StatsSnapshot), Box<dyn Error + Send + Sync>>;
    let apps: [(&str, AppResult); 5] = [
        (
            "gc",
            efex_gc::workloads::baseline_workload().map_err(Into::into),
        ),
        (
            "pstore",
            efex_pstore::workloads::baseline_workload().map_err(Into::into),
        ),
        (
            "dsm",
            efex_dsm::workloads::baseline_workload().map_err(Into::into),
        ),
        (
            "lazydata",
            efex_lazydata::baseline_workload().map_err(Into::into),
        ),
        ("watch", efex_watch::baseline_workload().map_err(Into::into)),
    ];
    for (name, result) in apps {
        let (micros, snap) = result?;
        b.push_float(format!("app/{name}/us"), micros, "us");
        for (counter, value) in &snap.counters {
            b.push_int(format!("app/{name}/{counter}"), *value, "count");
        }
    }

    Ok(b)
}

/// Runs the fast-path microbenchmarks with tracing on and exports a Chrome
/// trace-event document: lifecycle phase spans from the event ring plus the
/// Table 3 guest-kernel region spans on their own thread row.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn chrome_trace_fastpath() -> Result<String, efex_core::CoreError> {
    let ring = Rc::new(RingSink::with_capacity(4096));
    for kind in [
        ExceptionKind::Breakpoint,
        ExceptionKind::WriteProtect,
        ExceptionKind::Subpage,
        ExceptionKind::UnalignedSpecialized,
    ] {
        // Fresh guest per kind: each microbenchmark maps its own regions.
        let mut sys = System::builder()
            .delivery(DeliveryPath::FastUser)
            .trace_sink(ring.clone())
            .build()?;
        sys.measure_null_roundtrip(kind)?;
    }
    let (_, spans) = System::builder()
        .delivery(DeliveryPath::FastUser)
        .build()?
        .measure_table3_spans()?;

    let mut trace = ChromeTrace::new();
    trace.push_lifecycle(&ring.events());
    trace.push_profile_spans(&spans);
    Ok(trace.to_json())
}

/// Renders the measured Table 3 region profile as folded stacks
/// (`fastpath;<label> <instructions>`), one line per phase region.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn folded_fastpath() -> Result<String, efex_core::CoreError> {
    let rows = System::builder()
        .delivery(DeliveryPath::FastUser)
        .build()?
        .measure_table3()?;
    let folded: Vec<(String, u64)> = rows
        .iter()
        .map(|r| (r.label.to_string(), r.measured_instructions))
        .collect();
    Ok(flame::folded_from_rows("fastpath", &folded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use efex_report::{compare, jsonval, MetricValue, DEFAULT_TOLERANCE};
    use efex_simos::fastexc::TABLE3_PHASES;

    #[test]
    fn baseline_round_trips_and_rechecks_clean() {
        let b = record_baseline().expect("suite");
        // Schema round-trip through the on-disk form.
        let parsed = Baseline::from_json(&b.to_json()).expect("parse");
        assert_eq!(parsed, b);
        // A same-process recheck of the same baseline passes trivially;
        // cross-run determinism is what ci.sh's `report --check` enforces
        // against the committed file.
        let report = compare(&b, &parsed, DEFAULT_TOLERANCE);
        assert!(report.passed(), "{}", report.render_table(false));
        // The exact metrics really are exact integers.
        let m = b
            .get("table2/fast-user/breakpoint/deliver_cycles")
            .expect("matrix metric");
        assert!(matches!(m.value, MetricValue::Int(_)));
        assert!(m.exact);
        // Every Table 3 phase and every app workload is present.
        for (label, _, _) in TABLE3_PHASES {
            assert!(
                b.get(&format!("table3/{label}/instructions")).is_some(),
                "missing table3 metric for {label}"
            );
        }
        for app in ["gc", "pstore", "dsm", "lazydata", "watch"] {
            assert!(b.get(&format!("app/{app}/us")).is_some(), "missing {app}");
        }
    }

    #[test]
    fn chrome_trace_is_valid_and_nonempty() {
        let json = chrome_trace_fastpath().expect("trace");
        let doc = jsonval::parse(&json).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let phase = |name: &str| {
            events
                .iter()
                .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
                .count()
        };
        assert!(phase("deliver") >= 4, "one deliver span per microbenchmark");
        assert!(phase("handler") >= 4);
        assert!(phase("return") >= 4);
        // Region spans from the profiler landed on the region thread.
        assert!(events.iter().any(|e| {
            e.get("tid").and_then(|t| t.as_u64()) == Some(efex_report::chrome::TID_REGIONS as u64)
                && e.get("ph").and_then(|p| p.as_str()) == Some("X")
        }));
    }

    #[test]
    fn folded_output_covers_every_table3_region() {
        let folded = folded_fastpath().expect("folded");
        for (label, _, _) in TABLE3_PHASES {
            assert!(
                folded
                    .lines()
                    .any(|l| l.starts_with(&format!("fastpath;{label} "))),
                "missing folded line for {label}:\n{folded}"
            );
        }
        for line in folded.lines() {
            assert_eq!(line.split_whitespace().count(), 2, "bad folded line {line}");
        }
    }
}
