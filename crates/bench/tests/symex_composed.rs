//! The composed symbolic pass against the committed dynamic baseline.
//!
//! These tests lock the static per-class deliver/return cycle bounds the
//! whole-image explorer computes for every Table 2 composition, prove they
//! bracket (bit-exactly, where the path is deterministic) the dynamic
//! metrics in `BENCH_baseline.json`, exercise the machine-readable `lint
//! --json` document through `efex-report`'s JSON parser, and regression-test
//! that a path-sensitive protocol bug — a handler restoring a register from
//! the wrong comm-frame slot only on the recursive-exception (branch-delay)
//! path — is rejected with an actionable diagnostic.

use efex_bench::symgate;
use efex_mips::asm::assemble;
use efex_report::jsonval;
use efex_simos::compose::{bench_case, BenchKind};
use efex_simos::layout;
use efex_verify::interproc::Images;
use efex_verify::symex::explore;
use efex_verify::Lint;

const BASELINE: &str = include_str!("../../../BENCH_baseline.json");

/// The static bounds the symbolic explorer must compute for each Table 2
/// row: `(deliver [min, max], return [min, max])`. Derived from the
/// single-issue cycle model over the assembled images — any change to the
/// kernel fast path, the trampoline, the host cost model, or the bench
/// veneers moves these and must be accounted for deliberately.
#[allow(clippy::type_complexity)]
const LOCKED: [(BenchKind, (u64, u64), (u64, u64)); 7] = [
    (BenchKind::UnixBreakpoint, (1250, 1250), (751, 751)),
    (BenchKind::UnixWriteProtect, (1701, 1746), (753, 798)),
    (BenchKind::FastBreakpoint, (125, 125), (45, 45)),
    (BenchKind::FastWriteProtect, (352, 397), (46, 91)),
    (BenchKind::FastSubpage, (452, 497), (46, 91)),
    (BenchKind::FastUnaligned, (94, 94), (13, 13)),
    (BenchKind::HwBreakpoint, (46, 46), (43, 43)),
];

#[test]
fn composed_bounds_are_clean_and_locked() {
    for (kind, deliver, ret) in LOCKED {
        let report = symgate::explore_bench(kind).unwrap();
        assert!(
            report.is_clean(),
            "{}: composed symbolic pass has findings:\n{}",
            kind.row(),
            report
                .findings
                .iter()
                .map(|f| format!("{f}\n"))
                .collect::<String>()
        );
        for s in &report.scenarios {
            assert!(s.reached, "{}: no path reached a handler", s.label);
        }
        let bounds = symgate::row_bounds(&report)
            .unwrap_or_else(|| panic!("{}: no measured path", kind.row()));
        assert_eq!(
            bounds.deliver,
            deliver,
            "{}: deliver bound moved",
            kind.row()
        );
        assert_eq!(bounds.ret, ret, "{}: return bound moved", kind.row());
    }
}

#[test]
fn static_bounds_bracket_the_dynamic_baseline() {
    let gate = symgate::run_gate();
    assert!(
        gate.errors.is_empty(),
        "gate build errors: {:?}",
        gate.errors
    );
    let checks = symgate::crosscheck_baseline(&gate, BASELINE)
        .unwrap_or_else(|e| panic!("baseline cross-check failed:\n{}", e.join("\n")));
    // Both measures of all seven rows must be present and in bounds.
    assert_eq!(checks.len(), 14);
    for c in &checks {
        assert!(
            c.holds(),
            "{}: {} outside {:?}",
            c.metric,
            c.dynamic,
            c.bound
        );
    }
    // Deterministic fast paths cross-check bit-exactly, not just within
    // bounds: the static model reproduces the measured cycle count.
    for exact in [
        "table2/fast-user/breakpoint/deliver_cycles",
        "table2/fast-user/breakpoint/return_cycles",
        "table2/fast-user/unaligned/deliver_cycles",
        "table2/fast-user/unaligned/return_cycles",
        "table2/unix-signals/breakpoint/deliver_cycles",
        "table2/unix-signals/breakpoint/return_cycles",
        "table2/hardware-vectored/breakpoint/deliver_cycles",
        "table2/hardware-vectored/breakpoint/return_cycles",
    ] {
        let c = checks.iter().find(|c| c.metric == exact).unwrap();
        assert!(
            c.exact(),
            "{exact}: expected a tight bound, got {:?}",
            c.bound
        );
        assert_eq!(c.dynamic, c.bound.0, "{exact}: bit-exact check failed");
    }
}

#[test]
fn gate_json_parses_and_reports_clean() {
    let gate = symgate::run_gate();
    let doc = gate.to_value().to_string();
    let v = jsonval::parse(&doc).expect("lint --json output must parse");
    assert_eq!(v.get("clean").and_then(|c| c.as_bool()), Some(true));
    let images = v.get("images").and_then(|i| i.as_array()).unwrap();
    // Kernel + trampoline + 7 benches.
    assert_eq!(images.len(), 9);
    for img in images {
        let findings = img.get("findings").and_then(|f| f.as_array()).unwrap();
        assert!(findings.is_empty());
    }
    let symex = v.get("symex").unwrap();
    let benches = symex.get("benches").and_then(|b| b.as_array()).unwrap();
    assert_eq!(benches.len(), 7);
    for (b, (kind, deliver, ret)) in benches.iter().zip(LOCKED) {
        assert_eq!(b.get("row").and_then(|r| r.as_str()), Some(kind.row()));
        let span = |key: &str| {
            let a = b.get(key).and_then(|d| d.as_array()).unwrap();
            (a[0].as_u64().unwrap(), a[1].as_u64().unwrap())
        };
        assert_eq!(span("deliver"), deliver);
        assert_eq!(span("return"), ret);
    }
}

/// A guest handler with a path-sensitive protocol bug: it branches on the
/// BD (branch-delay) bit of the saved Cause word and, only on the BD path,
/// restores `$a1` from the comm frame's `$at` slot. Every individual
/// instruction is well-formed — the classic per-image lints see nothing —
/// but the symbolic explorer forks on the unknown BD bit and catches the
/// wrong-slot restore on the buggy arm.
fn wrong_slot_canary(n: u32) -> String {
    let class = efex_mips::ExcCode::Breakpoint;
    let mask = 1u32 << class.code();
    let frame = class.code() * layout::COMM_FRAME_SIZE;
    let comm = layout::COMM_PAGE_VADDR;
    format!(
        r#"
.org 0x00400000
main:
    li  $a0, {mask}
    la  $a1, uh_entry
    li  $a2, {comm:#x}
    li  $v0, 7              # uexc_enable
    syscall
    li  $s0, {n}
loop:
fault_site:
    break 0
after_fault:
    addiu $s0, $s0, -1
    bnez $s0, loop
    nop
    li  $v0, 2
    li  $a0, 0
    syscall
    nop

uh_entry:
    jal null_handler
    nop
uh_restore:
    lui $k0, {comm_hi:#x}
    lw  $k1, {cause_lo}($k0)    # saved Cause from the comm frame
    srl $k1, $k1, 31            # isolate the BD bit
    beqz $k1, not_bd
    nop
    lw  $a1, {at_lo}($k0)       # BUG: $a1 from the $at slot on the BD path
    b   join
    nop
not_bd:
    lw  $a1, {a1_lo}($k0)       # correct slot
join:
    lw  $at, {at_lo}($k0)
    lw  $a0, {a0_lo}($k0)
    lw  $k1, {epc_lo}($k0)
    addiu $k1, $k1, 4           # skip the break
    jr  $k1
    nop

null_handler:
    nop
null_ret:
    jr  $ra
    nop
"#,
        comm_hi = comm >> 16,
        epc_lo = (comm & 0xffff) + frame + layout::comm::EPC,
        cause_lo = (comm & 0xffff) + frame + layout::comm::CAUSE,
        at_lo = (comm & 0xffff) + frame + layout::comm::AT,
        a0_lo = (comm & 0xffff) + frame + layout::comm::A0,
        a1_lo = (comm & 0xffff) + frame + layout::comm::A1,
    )
}

#[test]
fn wrong_slot_restore_canary_is_rejected() {
    let imgs = symgate::assemble_composed(BenchKind::FastBreakpoint).unwrap();
    let app = assemble(&wrong_slot_canary(4)).unwrap();

    // The classic hazard lints are blind to the bug: every instruction is
    // individually well-formed.
    let mut classic = efex_verify::VerifyConfig::hazards_only(app.entry());
    classic.extra_roots.push(app.symbol("uh_entry").unwrap());
    let classic_report = efex_verify::analyze(&app, &classic).unwrap();
    assert!(
        classic_report.is_clean(),
        "hazard lints should not see the path-sensitive bug:\n{}",
        classic_report.render()
    );

    // The symbolic pass forks on the BD bit and rejects the buggy arm.
    let case = bench_case(
        BenchKind::FastBreakpoint,
        &imgs.kernel,
        &imgs.trampoline,
        &app,
    );
    let images = Images::new(vec![
        ("kernel", &imgs.kernel),
        ("trampoline", &imgs.trampoline),
        ("app", &app),
    ]);
    let report = explore(&images, &case.config, &case.scenarios);
    let finding = report
        .findings
        .iter()
        .find(|f| f.lint == Lint::WrongSlotRestore)
        .unwrap_or_else(|| {
            panic!(
                "expected a wrong-slot-restore finding, got:\n{}",
                report
                    .findings
                    .iter()
                    .map(|f| format!("{f}\n"))
                    .collect::<String>()
            )
        });
    // The diagnostic must be actionable: label-resolved location, source
    // line, and the offending load in the disassembly.
    assert!(
        finding.location.starts_with("uh_restore+"),
        "location {} does not resolve to the handler",
        finding.location
    );
    assert!(finding.line.is_some(), "finding lacks a source line");
    assert!(
        finding.context.contains("lw"),
        "context {} does not show the load",
        finding.context
    );
    assert!(
        finding.message.contains("$a1") || finding.context.contains("$a1"),
        "diagnostic does not name the register: {} / {}",
        finding.message,
        finding.context
    );
}
