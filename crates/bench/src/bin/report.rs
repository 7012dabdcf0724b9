//! Perf-baseline recorder, regression checker, and trace exporter.
//!
//! ```text
//! report --record [FILE]              run the canonical suite, write FILE
//!                                     (default BENCH_baseline.json)
//! report --check FILE [--tol PCT]     re-run the suite, diff against FILE;
//!                                     exits 1 on drift (PCT: relative
//!                                     tolerance for derived metrics, default 1)
//! report --chrome [FILE]              Chrome trace-event JSON of the fast-path
//!                                     microbenchmarks (default efex_trace.json,
//!                                     "-" for stdout); load in Perfetto
//! report --flame [FILE]               folded stacks of the Table 3 region
//!                                     profile (default efex_fastpath.folded,
//!                                     "-" for stdout); feed to flamegraph.pl
//! report                              summary: delivery quantiles + ring stats
//! ```
//!
//! `--engine interpreter|superblock` runs the suite under the given machine
//! execution engine. Unlike the machine default (superblock), `report`
//! defaults to the interpreter: the reference oracle the baseline is
//! recorded with. Both engines must produce the same recorded metrics, so
//! `--check FILE --engine superblock` against the interpreter-recorded
//! baseline is the bit-exactness gate for the superblock engine — no
//! re-record allowed.
//!
//! All numbers are simulated cycles — deterministic across runs and hosts —
//! so `--check` against a committed baseline is a meaningful CI gate: any
//! change to cost constants, the guest kernel, or workload behavior shows up
//! as a per-metric diff.

use efex_bench::suite;
use efex_core::System;
use efex_mips::machine::{with_machine_config, ExecEngine, MachineConfig};
use efex_report::{compare, Baseline, DEFAULT_TOLERANCE};
use efex_trace::{RingSink, Snapshot};
use std::process::ExitCode;
use std::rc::Rc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("report: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let flag_value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    // The value after a flag, unless it is itself a flag (then the default).
    let target = |flag: &str, default: &str| -> String {
        match flag_value(flag) {
            Some(v) if !v.starts_with("--") => v.to_string(),
            _ => default.to_string(),
        }
    };

    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!(
            "usage: report [--record [FILE]] [--check FILE [--tol PCT]]\n\
             \x20             [--chrome [FILE]] [--flame [FILE]]\n\
             \x20             [--engine interpreter|superblock]\n\
             \n\
             --engine defaults to the interpreter, the reference oracle: --check\n\
             runs it unless told otherwise, and --record runs nothing else.\n"
        );
        return Ok(ExitCode::SUCCESS);
    }

    let engine = match flag_value("--engine") {
        Some(name) => {
            ExecEngine::parse(name).ok_or_else(|| format!("bad --engine value {name:?}"))?
        }
        None => ExecEngine::Interpreter,
    };
    // Every machine the suite constructs (the builders construct them
    // internally) inherits the selected engine; the binary is
    // single-threaded, so one scope covers the whole run.
    let run_suite = || {
        with_machine_config(
            MachineConfig::default().engine(engine),
            suite::record_baseline,
        )
    };

    if args.iter().any(|a| a == "--record") {
        if engine != ExecEngine::Interpreter {
            return Err("--record uses the reference interpreter; \
                        check other engines against it with --check --engine"
                .into());
        }
        let path = target("--record", "BENCH_baseline.json");
        let baseline = run_suite()?;
        std::fs::write(&path, baseline.to_json())?;
        println!("recorded {} metrics to {path}", baseline.metrics.len());
        return Ok(ExitCode::SUCCESS);
    }

    if args.iter().any(|a| a == "--check") {
        let path = flag_value("--check")
            .filter(|v| !v.starts_with("--"))
            .ok_or("--check requires a baseline file")?;
        let tolerance = match flag_value("--tol") {
            Some(pct) => {
                pct.parse::<f64>()
                    .map_err(|_| format!("bad --tol value {pct:?}"))?
                    / 100.0
            }
            None => DEFAULT_TOLERANCE,
        };
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let baseline = Baseline::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        let current = run_suite()?;
        let report = compare(&baseline, &current, tolerance);
        let verbose = args.iter().any(|a| a == "--verbose");
        print!("{}", report.render_table(verbose));
        return if report.passed() {
            println!("baseline check PASSED against {path} (engine: {engine})");
            Ok(ExitCode::SUCCESS)
        } else {
            println!(
                "baseline check FAILED against {path} — if the change is intended, \
                 re-record with `report --record {path}` and commit the diff"
            );
            Ok(ExitCode::FAILURE)
        };
    }

    if args.iter().any(|a| a == "--chrome") {
        let path = target("--chrome", "efex_trace.json");
        let json = suite::chrome_trace_fastpath()?;
        return write_artifact(
            &path,
            &json,
            "Chrome trace (open in Perfetto or chrome://tracing)",
        );
    }

    if args.iter().any(|a| a == "--flame") {
        let path = target("--flame", "efex_fastpath.folded");
        let folded = suite::folded_fastpath()?;
        return write_artifact(
            &path,
            &folded,
            "folded stacks (flamegraph.pl or inferno-flamegraph reads this)",
        );
    }

    summary()?;
    Ok(ExitCode::SUCCESS)
}

fn write_artifact(
    path: &str,
    content: &str,
    what: &str,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    if path == "-" {
        print!("{content}");
    } else {
        std::fs::write(path, content)?;
        println!("wrote {what} to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Default mode: run the delivery matrix with tracing on and print the
/// per-(path, class) latency quantiles plus event-ring occupancy.
fn summary() -> Result<(), Box<dyn std::error::Error>> {
    println!("delivery-path latency quantiles (simulated cycles):\n");
    println!(
        "{:<44} {:>8} {:>8} {:>8} {:>8}",
        "path/class/phase", "count", "p50", "p90", "p99"
    );
    let ring = Rc::new(RingSink::with_capacity(1024));
    let mut merged = efex_trace::Metrics::new();
    for (path, kind) in suite::GUEST_MATRIX {
        let mut sys = System::builder()
            .delivery(path)
            .trace_sink(ring.clone())
            .build()?;
        sys.measure_null_roundtrip(kind)?;
        merged.merge(sys.trace_metrics());
    }
    let snap = merged.snapshot();
    // Quantile counters come in (count, deliver_*, handler_*) groups keyed
    // by path/class; print the deliver phase per key.
    for (path, class, k) in merged.iter_nonempty() {
        for (phase, h) in [("deliver", &k.deliver), ("handler", &k.handler)] {
            if h.is_empty() {
                continue;
            }
            println!(
                "{:<44} {:>8} {:>8} {:>8} {:>8}",
                format!("{path}/{class}/{phase}"),
                k.count,
                h.p50().unwrap_or(0),
                h.p90().unwrap_or(0),
                h.p99().unwrap_or(0)
            );
        }
    }
    println!(
        "\ntotal faults observed: {}",
        snap.get("total_faults").unwrap_or(0)
    );
    let ring_snap = ring.snapshot();
    println!(
        "event ring: {} buffered / {} capacity, {} pushed, {} dropped",
        ring_snap.get("buffered").unwrap_or(0),
        ring_snap.get("capacity").unwrap_or(0),
        ring_snap.get("total_pushed").unwrap_or(0),
        ring_snap.get("dropped").unwrap_or(0)
    );
    println!("\nrun with --record/--check/--chrome/--flame for artifacts (see --help)");
    Ok(())
}
