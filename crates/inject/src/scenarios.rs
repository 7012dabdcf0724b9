//! The scenario registry: every entry perturbs one delivery invariant and
//! asserts the specified result. Scenario programs are assembled fresh per
//! run; any value a perturbation needs (corruption words, wild addresses)
//! is drawn from the seeded [`Xorshift`] so a matrix run replays exactly.

use crate::{Expectation, Observed, Scenario, Xorshift};
use efex_core::{
    DeliveryPath, GuestMem, HandlerAction, HandlerSpec, HostProcess, Prot, Protection,
};
use efex_mips::ExcCode;
use efex_simos::kernel::{InjectAction, Kernel, KernelConfig, RunOutcome};
use efex_trace::Snapshot;

pub(crate) static REGISTRY: &[Scenario] = &[
    Scenario {
        id: "subpage-taken-branch-slot",
        summary: "store in a taken branch's delay slot is emulated and resumes at the target",
        expect: Expectation::BitExact,
        run: subpage_taken_branch_slot,
    },
    Scenario {
        id: "subpage-untaken-branch-slot",
        summary: "store in an untaken branch's delay slot is emulated and falls through",
        expect: Expectation::BitExact,
        run: subpage_untaken_branch_slot,
    },
    Scenario {
        id: "subpage-jr-slot",
        summary: "store in a jr delay slot resumes through the register value",
        expect: Expectation::BitExact,
        run: subpage_jr_slot,
    },
    Scenario {
        id: "subpage-branch-cross-page",
        summary: "emulated branch target on another text page resumes via the refill path",
        expect: Expectation::BitExact,
        run: subpage_branch_cross_page,
    },
    Scenario {
        id: "subpage-jalr-self-link",
        summary: "jalr rd==rs in the faulting shape is unpredictable: specified kill + diagnostic",
        expect: Expectation::Killed,
        run: subpage_jalr_self_link,
    },
    Scenario {
        id: "unaligned-jr-slot-clobber",
        summary: "unaligned load in a jr slot writing the jump register resumes at the OLD target",
        expect: Expectation::BitExact,
        run: unaligned_jr_slot_clobber,
    },
    Scenario {
        id: "handler-return-slot-fault",
        summary: "fault in the user handler's return-jump delay slot is emulated, not redelivered",
        expect: Expectation::BitExact,
        run: handler_return_slot_fault,
    },
    Scenario {
        id: "nested-unix-signals",
        summary: "handler re-faults mid-delivery; inner sigcontext must not clobber the outer",
        expect: Expectation::BitExact,
        run: nested_unix_signals,
    },
    Scenario {
        id: "second-class-in-flight",
        summary: "breakpoint delivered while a TlbMod delivery is in flight uses a disjoint frame",
        expect: Expectation::BitExact,
        run: second_class_in_flight,
    },
    Scenario {
        id: "evict-handler-tlb",
        summary: "handler's TLB entry evicted mid-delivery; resume recovers through refill",
        expect: Expectation::BitExact,
        run: evict_handler_tlb,
    },
    Scenario {
        id: "evict-comm-before-save",
        summary: "comm page unpinned before the save; repair + Unix fallback (here: kill)",
        expect: Expectation::Killed,
        run: evict_comm_before_save,
    },
    Scenario {
        id: "evict-comm-breakpoint-window",
        summary: "comm page evicted after the guest save, before the handler's load; repaired",
        expect: Expectation::DegradedRecovery,
        run: evict_comm_breakpoint_window,
    },
    Scenario {
        id: "corrupt-comm-epc",
        summary: "saved EPC rewritten to a wild address between save and resume: specified kill",
        expect: Expectation::Killed,
        run: corrupt_comm_epc,
    },
    Scenario {
        id: "corrupt-comm-unused-word",
        summary: "concurrent rewrite of a frame word the handler never reads: bit-exact",
        expect: Expectation::BitExact,
        run: corrupt_comm_unused_word,
    },
    Scenario {
        id: "snapshot-mid-vulnerable-window",
        summary: "kernel snapshotted inside the save→handler window restores bit-exact",
        expect: Expectation::BitExact,
        run: snapshot_mid_vulnerable_window,
    },
    Scenario {
        id: "host-degraded-delivery",
        summary:
            "host delivery injected to fall back to Unix-signal costs, counted and snapshotted",
        expect: Expectation::DegradedRecovery,
        run: host_degraded_delivery,
    },
];

// ---------------------------------------------------------------------------
// Helpers

fn check<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

fn check_ge(what: &str, got: u64, min: u64) -> Result<(), String> {
    if got >= min {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, want >= {min}"))
    }
}

fn observe(k: &Kernel, out: &RunOutcome) -> Observed {
    let stats = &k.process().stats;
    Observed {
        outcome: format!("{out:?}"),
        fast_delivered: stats.fast_delivered,
        signals_delivered: stats.signals_delivered,
        degraded_deliveries: stats.degraded_deliveries,
        subpage_emulations: stats.subpage_emulations,
        cycles: k.cycles(),
        diagnostic: k.last_diagnostic().map(str::to_owned),
    }
}

/// Boot, load, run; injections are queued by `prepare` before the run.
fn run_guest(
    cfg: KernelConfig,
    program: &str,
    prepare: impl FnOnce(&mut Kernel),
) -> Result<(Kernel, RunOutcome), String> {
    let mut k = Kernel::boot(cfg).map_err(|e| format!("boot: {e}"))?;
    let prog = k
        .load_user_program(program)
        .map_err(|e| format!("assemble/load: {e}"))?;
    let sp = k.setup_stack(8).map_err(|e| format!("stack: {e}"))?;
    k.exec(prog.entry(), sp);
    prepare(&mut k);
    let out = k.run_user(1_000_000).map_err(|e| format!("run: {e}"))?;
    Ok((k, out))
}

/// Common prologue for the subpage shapes: enable fast TLB exceptions, sbrk
/// a page into `$s1`, touch it, subpage-protect its first kilobyte.
const SUBPAGE_SETUP: &str = r#"
.org 0x00400000
main:
    li  $a0, 0x0e            # TlbMod | TlbLoad | TlbStore
    la  $a1, handler
    li  $a2, 0x7ffe0000
    li  $v0, 7               # uexc_enable
    syscall
    li  $a0, 4096
    li  $v0, 13              # sbrk
    syscall
    move $s1, $v0
    sw  $zero, 0($s1)        # resident
    move $a0, $s1
    li  $a1, 1024            # protect the first logical subpage only
    li  $a2, 1
    li  $v0, 11              # subpage_protect
    syscall
"#;

const SUBPAGE_HANDLER: &str = r#"
handler:
    lui  $k0, 0x7ffe
    lw   $k1, 0x20($k0)      # TlbMod frame EPC
    jr   $k1                 # page was amplified: retry succeeds
    nop
"#;

/// Program whose fast path delivers one TlbMod (write-protect) fault; the
/// handler skips the faulting store and the program exits 55.
const TLBMOD_FAST_PROGRAM: &str = r#"
.org 0x00400000
main:
    li  $a0, 0x02            # 1 << TlbMod
    la  $a1, fast_handler
    li  $a2, 0x7ffe0000
    li  $v0, 7               # uexc_enable
    syscall
    li  $a0, 8192
    li  $v0, 13              # sbrk
    syscall
    move $s1, $v0
    sw  $zero, 0($s1)        # resident + writable
    move $a0, $s1
    li  $a1, 4096
    li  $a2, 1               # PROT_READ
    li  $v0, 9               # uexc_protect
    syscall
    sw  $s1, 0($s1)          # TlbMod -> fast delivery
    li  $a0, 55
    li  $v0, 2
    syscall
    nop
fast_handler:
    li  $t0, 0x7ffe0000
    lw  $t1, 0x20($t0)       # TlbMod frame EPC
    addiu $t1, $t1, 4        # skip the store
    jr  $t1
    nop
"#;

// ---------------------------------------------------------------------------
// Branch-delay-slot emulation shapes (satellite audit, run as scenarios)

fn subpage_taken_branch_slot(_seed: u64) -> Result<Observed, String> {
    let program = format!(
        r#"{SUBPAGE_SETUP}
    li   $t0, 77
    li   $t1, 1
    bnez $t1, taken
    sw   $t0, 2048($s1)      # delay slot store, unprotected subpage
    li   $t0, 0              # (skipped)
taken:
    lw   $a0, 2048($s1)
    li   $v0, 2
    syscall
    nop
{SUBPAGE_HANDLER}"#
    );
    let (k, out) = run_guest(KernelConfig::default(), &program, |_| {})?;
    check("outcome", out, RunOutcome::Exited(77))?;
    check_ge(
        "subpage_emulations",
        k.process().stats.subpage_emulations,
        1,
    )?;
    Ok(observe(&k, &out))
}

fn subpage_untaken_branch_slot(_seed: u64) -> Result<Observed, String> {
    let program = format!(
        r#"{SUBPAGE_SETUP}
    li   $t0, 33
    beqz $s1, elsewhere      # never taken ($s1 is the heap page)
    sw   $t0, 2048($s1)
    lw   $a0, 2048($s1)
    li   $v0, 2
    syscall
    nop
elsewhere:
    li   $a0, 99
    li   $v0, 2
    syscall
    nop
{SUBPAGE_HANDLER}"#
    );
    let (k, out) = run_guest(KernelConfig::default(), &program, |_| {})?;
    check("outcome", out, RunOutcome::Exited(33))?;
    Ok(observe(&k, &out))
}

fn subpage_jr_slot(_seed: u64) -> Result<Observed, String> {
    let program = format!(
        r#"{SUBPAGE_SETUP}
    li   $t0, 88
    la   $t2, landing
    jr   $t2
    sw   $t0, 2048($s1)
    li   $t0, 0              # (skipped)
landing:
    lw   $a0, 2048($s1)
    li   $v0, 2
    syscall
    nop
{SUBPAGE_HANDLER}"#
    );
    let (k, out) = run_guest(KernelConfig::default(), &program, |_| {})?;
    check("outcome", out, RunOutcome::Exited(88))?;
    Ok(observe(&k, &out))
}

fn subpage_branch_cross_page(_seed: u64) -> Result<Observed, String> {
    let program = format!(
        r#"{SUBPAGE_SETUP}
    li   $t0, 61
    li   $t1, 1
    bnez $t1, far
    sw   $t0, 2048($s1)
    li   $t0, 0              # (skipped)
{SUBPAGE_HANDLER}
.org 0x00402000
far:
    lw   $a0, 2048($s1)
    li   $v0, 2
    syscall
    nop
"#
    );
    let (k, out) = run_guest(KernelConfig::default(), &program, |_| {})?;
    check("outcome", out, RunOutcome::Exited(61))?;
    Ok(observe(&k, &out))
}

fn subpage_jalr_self_link(_seed: u64) -> Result<Observed, String> {
    let program = format!(
        r#"{SUBPAGE_SETUP}
    li   $t0, 7
    la   $t1, after
    jalr $t1, $t1            # link write clobbers the jump register
    sw   $t0, 2048($s1)
after:
    li   $a0, 1
    li   $v0, 2
    syscall
    nop
{SUBPAGE_HANDLER}"#
    );
    let (k, out) = run_guest(KernelConfig::default(), &program, |_| {})?;
    check(
        "outcome",
        out,
        RunOutcome::Terminated(efex_simos::signals::Signal::Segv),
    )?;
    check("degraded", k.process().stats.degraded_deliveries, 1)?;
    let diag = k.last_diagnostic().unwrap_or_default().to_owned();
    if !diag.contains("unpredictable") {
        return Err(format!("diagnostic missing 'unpredictable': {diag:?}"));
    }
    Ok(observe(&k, &out))
}

fn unaligned_jr_slot_clobber(_seed: u64) -> Result<Observed, String> {
    // The emulated unaligned load writes the very register the jump reads;
    // the branch consumed the OLD value, so resume must go to the old
    // target while the register holds the freshly loaded word.
    let cfg = KernelConfig {
        fixup_unaligned: true,
        ..KernelConfig::default()
    };
    let program = r#"
.org 0x00400000
main:
    li   $a0, 8192
    li   $v0, 13             # sbrk
    syscall
    move $s1, $v0
    li   $t0, 0x00411223
    sw   $t0, 0($s1)
    sw   $t0, 4($s1)
    la   $t1, good
    jr   $t1
    lw   $t1, 2($s1)         # delay slot: unaligned load INTO $t1
    li   $a0, 1              # (skipped)
    li   $v0, 2
    syscall
    nop
good:
    srl  $a0, $t1, 24        # top byte of the loaded value
    li   $v0, 2
    syscall
    nop
"#;
    let (k, out) = run_guest(cfg, program, |_| {})?;
    check("outcome", out, RunOutcome::Exited(0x12))?;
    Ok(observe(&k, &out))
}

// ---------------------------------------------------------------------------
// Recursive-exception shapes

fn handler_return_slot_fault(_seed: u64) -> Result<Observed, String> {
    // The user handler's own return jump carries a store in its delay slot
    // that faults on a second, not-yet-amplified subpage-managed page. The
    // kernel must emulate both without re-delivering, and resume where the
    // handler's jump register pointed.
    let program = r#"
.org 0x00400000
main:
    li  $a0, 0x0e
    la  $a1, handler
    li  $a2, 0x7ffe0000
    li  $v0, 7               # uexc_enable
    syscall
    li  $a0, 8192
    li  $v0, 13              # sbrk: two pages
    syscall
    move $s1, $v0
    addiu $s2, $s1, 4096
    sw  $zero, 0($s1)
    sw  $zero, 0($s2)
    move $a0, $s1
    li  $a1, 1024
    li  $a2, 1
    li  $v0, 11              # subpage_protect page A
    syscall
    move $a0, $s2
    li  $a1, 1024
    li  $a2, 1
    li  $v0, 11              # subpage_protect page B
    syscall
    li  $t0, 7
    sw  $t0, 16($s1)         # protected subpage on page A -> delivered
    lw  $a0, 2048($s2)       # read back the handler's delay-slot store
    li  $v0, 2
    syscall
    nop
handler:
    lui $t8, 0x7ffe          # NOT $k0/$k1: the nested fault's first-level
    lw  $t9, 0x20($t8)       # vector clobbers those, and the branch
    addiu $t9, $t9, 4        # emulation must read the jump register back
    li  $t3, 99
    jr  $t9
    sw  $t3, 2048($s2)       # return delay slot: faults on page B, emulated
"#;
    let (k, out) = run_guest(KernelConfig::default(), program, |_| {})?;
    check("outcome", out, RunOutcome::Exited(99))?;
    check("fast_delivered", k.process().stats.fast_delivered, 1)?;
    check_ge(
        "subpage_emulations",
        k.process().stats.subpage_emulations,
        1,
    )?;
    check("degraded", k.process().stats.degraded_deliveries, 0)?;
    Ok(observe(&k, &out))
}

fn nested_unix_signals(_seed: u64) -> Result<Observed, String> {
    // A SIGBUS handler takes a second unaligned fault before completing;
    // the inner delivery stacks its sigcontext and in-flight bookkeeping
    // and must not clobber the outer activation's saved state.
    let program = r#"
.org 0x00400000
main:
    la  $a1, outer
    li  $a0, 10              # SIGBUS
    li  $v0, 4               # sigaction
    syscall
    lw  $t0, 2($zero)        # unaligned -> SIGBUS (outer)
    la  $t2, mark            # register writes don't survive sigreturn;
    lw  $a0, 0($t2)          # the mark lives in memory
    li  $v0, 2
    syscall
    nop
outer:
    la  $t2, depth
    lw  $t3, 0($t2)
    bne $t3, $zero, inner_body
    nop
    li  $t3, 1
    sw  $t3, 0($t2)
    lw  $t0, 6($zero)        # unaligned -> SIGBUS (inner, nested)
    lw  $t1, 136($a2)        # outer saved pc
    addiu $t1, $t1, 4        # skip the original faulting lw
    sw  $t1, 136($a2)
    jr  $ra
    nop
inner_body:
    la  $t2, mark
    li  $t3, 42
    sw  $t3, 0($t2)
    lw  $t1, 136($a2)        # inner saved pc (inside the outer handler)
    addiu $t1, $t1, 4
    sw  $t1, 136($a2)
    jr  $ra
    nop
depth: .word 0
mark:  .word 0
"#;
    let (k, out) = run_guest(KernelConfig::default(), program, |_| {})?;
    check("outcome", out, RunOutcome::Exited(42))?;
    check("signals_delivered", k.process().stats.signals_delivered, 2)?;
    Ok(observe(&k, &out))
}

fn second_class_in_flight(_seed: u64) -> Result<Observed, String> {
    // While the TlbMod delivery is logically in flight (frame written,
    // handler not yet returned), the handler raises a breakpoint — a
    // different exception class with a disjoint comm frame. Both must
    // complete; the TlbMod frame must survive the nested delivery.
    let mask = (1u32 << ExcCode::TlbMod.code()) | (1u32 << ExcCode::Breakpoint.code());
    let program = format!(
        r#"
.org 0x00400000
main:
    li  $a0, {mask}
    la  $a1, handler
    li  $a2, 0x7ffe0000
    li  $v0, 7               # uexc_enable
    syscall
    li  $a0, 8192
    li  $v0, 13              # sbrk
    syscall
    move $s1, $v0
    sw  $zero, 0($s1)
    move $a0, $s1
    li  $a1, 4096
    li  $a2, 1               # PROT_READ
    li  $v0, 9               # uexc_protect
    syscall
    sw  $s1, 0($s1)          # TlbMod -> fast delivery
    la  $t6, mark
    lw  $a0, 0($t6)
    addiu $a0, $a0, 54       # 54 + mark(=1) = 55
    li  $v0, 2
    syscall
    nop
handler:
    la  $t2, depth
    lw  $t3, 0($t2)
    bne $t3, $zero, bp_body
    nop
    li  $t3, 1
    sw  $t3, 0($t2)
    break 0                  # second class while TlbMod is in flight
    li  $t0, 0x7ffe0000
    lw  $t1, 0x20($t0)       # TlbMod frame EPC: must have survived
    addiu $t1, $t1, 4
    jr  $t1
    nop
bp_body:
    la  $t4, mark
    li  $t5, 1
    sw  $t5, 0($t4)
    li  $t0, 0x7ffe0000
    lw  $t1, 288($t0)        # breakpoint frame EPC
    addiu $t1, $t1, 4        # skip the break
    jr  $t1
    nop
depth: .word 0
mark:  .word 0
"#
    );
    let (k, out) = run_guest(KernelConfig::default(), &program, |_| {})?;
    check("outcome", out, RunOutcome::Exited(55))?;
    check_ge("fast_delivered", k.process().stats.fast_delivered, 1)?;
    check("degraded", k.process().stats.degraded_deliveries, 0)?;
    Ok(observe(&k, &out))
}

// ---------------------------------------------------------------------------
// Pinning violations

fn evict_handler_tlb(_seed: u64) -> Result<Observed, String> {
    let (k, out) = run_guest(KernelConfig::default(), TLBMOD_FAST_PROGRAM, |k| {
        k.inject(InjectAction::EvictHandlerTlb)
    })?;
    check("outcome", out, RunOutcome::Exited(55))?;
    check("fast_delivered", k.process().stats.fast_delivered, 1)?;
    check("degraded", k.process().stats.degraded_deliveries, 0)?;
    Ok(observe(&k, &out))
}

fn evict_comm_before_save(_seed: u64) -> Result<Observed, String> {
    // The comm page is unpinned and unmapped before the fast save begins.
    // The kernel detects the violated pin, repairs the page, and falls back
    // to Unix signals; with no SIGSEGV handler registered the process dies
    // with a diagnostic — never a wedge.
    let (k, out) = run_guest(KernelConfig::default(), TLBMOD_FAST_PROGRAM, |k| {
        k.inject(InjectAction::EvictCommPage)
    })?;
    check(
        "outcome",
        out,
        RunOutcome::Terminated(efex_simos::signals::Signal::Segv),
    )?;
    check("degraded", k.process().stats.degraded_deliveries, 1)?;
    check("fast_delivered", k.process().stats.fast_delivered, 0)?;
    if k.last_diagnostic().is_none() {
        return Err("no diagnostic recorded for the pinning violation".into());
    }
    Ok(observe(&k, &out))
}

fn evict_comm_breakpoint_window(_seed: u64) -> Result<Observed, String> {
    // The guest vector has already written the breakpoint frame through the
    // KSEG0 alias when the page is evicted; the handler's comm-page load
    // then misses. The refill path must notice the violated pin, restore
    // the frame contents, and resume — recovery through the slow path.
    let mask = 1u32 << ExcCode::Breakpoint.code();
    let program = format!(
        r#"
.org 0x00400000
main:
    li  $a0, {mask}
    la  $a1, fast_handler
    li  $a2, 0x7ffe0000
    li  $v0, 7               # uexc_enable
    syscall
    break 0
    li  $a0, 55
    li  $v0, 2
    syscall
    nop
fast_handler:
    li  $t0, 0x7ffe0000
    lw  $t1, 288($t0)        # breakpoint frame EPC
    addiu $t1, $t1, 4
    jr  $t1
    nop
"#
    );
    let mut k = Kernel::boot(KernelConfig::default()).map_err(|e| format!("boot: {e}"))?;
    let prog = k
        .load_user_program(&program)
        .map_err(|e| format!("assemble/load: {e}"))?;
    let sp = k.setup_stack(8).map_err(|e| format!("stack: {e}"))?;
    k.exec(prog.entry(), sp);
    // Step until the fast path is armed, then yank the comm page out from
    // under the guest mid-flight.
    let mut steps = 0u32;
    while k.process().fast.comm_kseg0 == 0 {
        let out = k.run_user(1).map_err(|e| format!("step: {e}"))?;
        if out != RunOutcome::StepLimit {
            return Err(format!("program ended while arming: {out:?}"));
        }
        steps += 1;
        if steps >= 10_000 {
            return Err("uexc_enable never armed the fast path".into());
        }
    }
    k.inject_evict_comm_page()
        .map_err(|e| format!("evict: {e}"))?;
    let out = k.run_user(1_000_000).map_err(|e| format!("run: {e}"))?;
    check("outcome", out, RunOutcome::Exited(55))?;
    check("degraded", k.process().stats.degraded_deliveries, 1)?;
    let diag = k.last_diagnostic().unwrap_or_default().to_owned();
    if !diag.contains("repaired") {
        return Err(format!("diagnostic missing 'repaired': {diag:?}"));
    }
    Ok(observe(&k, &out))
}

// ---------------------------------------------------------------------------
// Comm-frame corruption

fn corrupt_comm_epc(seed: u64) -> Result<Observed, String> {
    // The saved EPC is rewritten to a wild (unmapped, word-aligned) address
    // in the window between the kernel's save and the user resume. The
    // handler's return jump lands nowhere; the specified behavior is an
    // ordinary unhandled-SIGSEGV kill — never a wedge or host panic.
    let mut rng = Xorshift::new(seed);
    let wild = 0x6000_0000 | (rng.next_u32() & 0x000f_fffc);
    let (k, out) = run_guest(KernelConfig::default(), TLBMOD_FAST_PROGRAM, |k| {
        k.inject(InjectAction::CorruptCommWord {
            code: ExcCode::TlbMod,
            offset: 0, // the frame's EPC word
            value: wild,
        })
    })?;
    check(
        "outcome",
        out,
        RunOutcome::Terminated(efex_simos::signals::Signal::Segv),
    )?;
    check("fast_delivered", k.process().stats.fast_delivered, 1)?;
    Ok(observe(&k, &out))
}

fn corrupt_comm_unused_word(seed: u64) -> Result<Observed, String> {
    // A concurrent rewrite of a frame word this handler never reads (the
    // saved CAUSE or BADVADDR) must not perturb the delivery at all.
    let mut rng = Xorshift::new(seed);
    let offset = 4 + 4 * (rng.next_u32() & 1); // CAUSE (4) or BADVADDR (8)
    let value = rng.next_u32();
    let (k, out) = run_guest(KernelConfig::default(), TLBMOD_FAST_PROGRAM, |k| {
        k.inject(InjectAction::CorruptCommWord {
            code: ExcCode::TlbMod,
            offset,
            value,
        })
    })?;
    check("outcome", out, RunOutcome::Exited(55))?;
    check("fast_delivered", k.process().stats.fast_delivered, 1)?;
    check("degraded", k.process().stats.degraded_deliveries, 0)?;
    Ok(observe(&k, &out))
}

// ---------------------------------------------------------------------------
// Host-level degradation

fn host_degraded_delivery(_seed: u64) -> Result<Observed, String> {
    // One injected degradation: the first delivery charges Unix-signal
    // costs and is counted; the second identical fault rides the fast path
    // again. The counter must survive into the metrics snapshot.
    let mut h = HostProcess::builder()
        .delivery(DeliveryPath::FastUser)
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let base = h
        .alloc_region(4096, Prot::ReadWrite)
        .map_err(|e| format!("alloc: {e}"))?;
    h.store_u32(base, 0)
        .map_err(|e| format!("seed store: {e}"))?;
    h.protect(Protection::region(base, 4096).read_only())
        .map_err(|e| format!("protect: {e}"))?;
    h.set_handler(
        HandlerSpec::new(move |ctx, info| {
            ctx.protect(Protection::region(info.vaddr & !0xfff, 4096).read_write())
                .expect("re-protect");
            HandlerAction::Retry
        })
        .named("amplify-retry"),
    );
    h.inject_degrade_next_deliveries(1);
    let t0 = h.cycles();
    h.store_u32(base, 1)
        .map_err(|e| format!("degraded store: {e}"))?;
    let degraded_cost = h.cycles() - t0;

    h.protect(Protection::region(base, 4096).read_only())
        .map_err(|e| format!("re-protect: {e}"))?;
    let t1 = h.cycles();
    h.store_u32(base, 2)
        .map_err(|e| format!("fast store: {e}"))?;
    let fast_cost = h.cycles() - t1;

    check("degraded_deliveries", h.stats().degraded_deliveries, 1)?;
    if degraded_cost <= fast_cost {
        return Err(format!(
            "degraded delivery ({degraded_cost}cy) not dearer than fast ({fast_cost}cy)"
        ));
    }
    let snap = h.trace_metrics().snapshot();
    check(
        "snapshot degraded_deliveries",
        snap.get("degraded_deliveries"),
        Some(1),
    )?;

    Ok(Observed {
        outcome: "HostOk".into(),
        fast_delivered: 1,
        signals_delivered: 0,
        degraded_deliveries: h.stats().degraded_deliveries,
        subpage_emulations: 0,
        cycles: h.cycles(),
        diagnostic: None,
    })
}

// ---------------------------------------------------------------------------
// Snapshot/restore under fire

fn snapshot_mid_vulnerable_window(_seed: u64) -> Result<Observed, String> {
    // The moment between the fast path's comm-frame save and the user
    // handler's return jump is the delivery machinery's most vulnerable
    // window: the frame is live guest memory and the handler is mid-flight.
    // A checkpoint taken there must capture all of it. We run the guest
    // uninterrupted for a baseline, then rerun it, freeze the kernel one
    // step after the fast delivery lands in the handler, push the snapshot
    // through its wire format, restore into a freshly booted kernel, and
    // demand that both the interrupted original and the restored copy
    // finish bit-exact against the baseline.
    let mask = 1u32 << ExcCode::Breakpoint.code();
    let program = format!(
        r#"
.org 0x00400000
main:
    li  $a0, {mask}
    la  $a1, fast_handler
    li  $a2, 0x7ffe0000
    li  $v0, 7               # uexc_enable
    syscall
    break 0
    li  $a0, 55
    li  $v0, 2
    syscall
    nop
fast_handler:
    li  $t0, 0x7ffe0000
    lw  $t1, 288($t0)        # breakpoint frame EPC
    addiu $t1, $t1, 4
    jr  $t1
    nop
"#
    );

    let (base_k, base_out) = run_guest(KernelConfig::default(), &program, |_| {})?;
    check("baseline outcome", base_out, RunOutcome::Exited(55))?;
    let baseline = observe(&base_k, &base_out);

    // The breakpoint frame's EPC slot on the comm page: zero until the
    // guest vector's save phase writes it, so its first nonzero read marks
    // entry into the vulnerable window.
    const FRAME_EPC: u32 = 0x7ffe_0000 + 288;

    let mut k = Kernel::boot(KernelConfig::default()).map_err(|e| format!("boot: {e}"))?;
    let prog = k
        .load_user_program(&program)
        .map_err(|e| format!("assemble/load: {e}"))?;
    let sp = k.setup_stack(8).map_err(|e| format!("stack: {e}"))?;
    k.exec(prog.entry(), sp);
    let mut steps = 0u32;
    while k.machine().peek_u32(FRAME_EPC, true).unwrap_or(0) == 0 {
        let out = k.run_user(1).map_err(|e| format!("step: {e}"))?;
        if out != RunOutcome::StepLimit {
            return Err(format!("program ended before delivering: {out:?}"));
        }
        steps += 1;
        if steps >= 10_000 {
            return Err("fast delivery never happened".into());
        }
    }
    // One more step: the frame is saved, the vector/handler is mid-flight,
    // and the return jump is still ahead.
    let out = k.run_user(1).map_err(|e| format!("step: {e}"))?;
    check("mid-window outcome", out, RunOutcome::StepLimit)?;

    let bytes = k.snapshot().to_bytes();
    let state = efex_simos::snapshot::KernelState::from_bytes(&bytes)
        .map_err(|e| format!("decode: {e}"))?;
    let mut restored = Kernel::boot(KernelConfig::default()).map_err(|e| format!("reboot: {e}"))?;
    restored
        .restore(&state)
        .map_err(|e| format!("restore: {e}"))?;

    let k_out = k.run_user(1_000_000).map_err(|e| format!("resume: {e}"))?;
    let r_out = restored
        .run_user(1_000_000)
        .map_err(|e| format!("restored run: {e}"))?;
    let original = observe(&k, &k_out);
    let replica = observe(&restored, &r_out);
    if original != baseline {
        return Err(format!(
            "interrupted run diverged from baseline:\n  base: {baseline:?}\n  got:  {original:?}"
        ));
    }
    if replica != baseline {
        return Err(format!(
            "restored run diverged from baseline:\n  base: {baseline:?}\n  got:  {replica:?}"
        ));
    }
    Ok(replica)
}
