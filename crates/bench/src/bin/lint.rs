//! Static verification gate over every guest image the suite executes.
//!
//! ```text
//! lint                     run every static pass; exit 1 on any finding
//! lint --table             also print the static fast-path + bounds tables
//! lint --json              emit one machine-readable JSON document instead
//! lint --baseline PATH     also cross-check static bounds against the
//!                          recorded table2 metrics in PATH
//! ```
//!
//! Three layers of verification run:
//!
//! - **classic per-image lints** ([`efex_verify::analyze`]): the kernel
//!   image under the full contract from [`efex_simos::verify`] (hazards,
//!   save-set liveness, pinned-memory proof, Table 3 budget); the signal
//!   trampoline and every microbenchmark program under the hazard lints;
//! - the **kernel-only symbolic pass** ([`efex_verify::symex`]): every
//!   architecturally raisable exception class explored through the kernel
//!   image under a symbolic registration;
//! - the **composed symbolic pass**: kernel + trampoline + guest program
//!   explored as one control-flow system per Table 2 bench, deep through
//!   the guest handler to the user resume, producing static per-class
//!   deliver/return cycle bounds.
//!
//! With `--baseline`, the static bounds must bracket the dynamic
//! `table2/*` cycle metrics recorded in the committed baseline —
//! bit-exactly where the path is deterministic.
//!
//! Diagnostics cite label+offset and the source line, with disassembly, so
//! a regression points straight at the offending instruction.

use efex_bench::symgate;
use efex_simos::verify as simverify;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: lint [--table] [--json] [--baseline PATH]");
        return ExitCode::SUCCESS;
    }
    let table = args.iter().any(|a| a == "--table");
    let json = args.iter().any(|a| a == "--json");
    let baseline_path = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1).cloned());

    let gate = symgate::run_gate();
    let mut failed = !gate.clean();

    // Baseline cross-check runs in both output modes; its errors go to
    // stderr so the JSON document on stdout stays parseable.
    let mut crosschecks = Vec::new();
    if let Some(path) = &baseline_path {
        match std::fs::read_to_string(path) {
            Ok(text) => match symgate::crosscheck_baseline(&gate, &text) {
                Ok(checks) => crosschecks = checks,
                Err(errors) => {
                    failed = true;
                    for e in errors {
                        eprintln!("lint: baseline cross-check: {e}");
                    }
                }
            },
            Err(e) => {
                failed = true;
                eprintln!("lint: cannot read baseline {path}: {e}");
            }
        }
    }

    if json {
        println!("{}", gate.to_value());
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    for e in &gate.errors {
        eprintln!("lint: build error: {e}");
    }
    for img in &gate.images {
        if img.report.is_clean() {
            println!(
                "lint: {}: clean ({} instructions analyzed)",
                img.name, img.report.instructions_analyzed
            );
        } else {
            println!(
                "lint: {}: {} finding(s)",
                img.name,
                img.report.findings.len()
            );
            for f in &img.report.findings {
                println!("  {f}");
            }
        }
    }
    if let Some(ko) = &gate.kernel_only {
        if ko.is_clean() {
            println!(
                "lint: symex kernel-only: clean ({} scenarios, {} paths)",
                ko.scenarios.len(),
                ko.paths_explored
            );
        } else {
            println!("lint: symex kernel-only: {} finding(s)", ko.findings.len());
            for f in &ko.findings {
                println!("  {f}");
            }
        }
    }
    for b in &gate.benches {
        if b.report.is_clean() {
            let bounds = match b.bounds {
                Some(rb) => format!(
                    "deliver [{}, {}] return [{}, {}] cycles",
                    rb.deliver.0, rb.deliver.1, rb.ret.0, rb.ret.1
                ),
                None => "no measured path".to_string(),
            };
            println!(
                "lint: symex {}: clean ({} paths, {bounds})",
                b.kind.row(),
                b.report.paths_explored
            );
        } else {
            println!(
                "lint: symex {}: {} finding(s)",
                b.kind.row(),
                b.report.findings.len()
            );
            for f in &b.report.findings {
                println!("  {f}");
            }
        }
    }
    for c in &crosschecks {
        let how = if c.exact() { "bit-exact" } else { "bracketed" };
        println!(
            "lint: baseline {}: dynamic {} within static [{}, {}] ({how})",
            c.metric, c.dynamic, c.bound.0, c.bound.1
        );
    }

    if table {
        let fast_path = gate
            .images
            .iter()
            .find(|i| i.name.starts_with("kernel image"))
            .and_then(|i| i.report.fast_path.as_ref());
        if let Some(fp) = fast_path {
            println!("\nstatic fast-path bound (kernel image):");
            println!("  {:<16} {:>12} {:>8}", "phase", "instructions", "cycles");
            for p in &fp.per_phase {
                println!("  {:<16} {:>12} {:>8}", p.label, p.instructions, p.cycles);
            }
            println!(
                "  {:<16} {:>12} {:>8}  (budget {}/{} instructions/cycles)",
                "total",
                fp.total_instructions,
                fp.total_cycles,
                simverify::FAST_PATH_BUDGET,
                efex_verify::FAST_PATH_CYCLES,
            );
        }
    }

    if failed {
        println!("lint: FAILED");
        ExitCode::FAILURE
    } else {
        println!("lint: all images clean");
        ExitCode::SUCCESS
    }
}
