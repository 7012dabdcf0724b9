//! Composition metadata for the symbolic delivery-path explorer.
//!
//! `efex-verify`'s [`efex_verify::symex`] engine is layout-agnostic: it
//! needs to be told where the vectors are, what the u-area words read as
//! for a given registration, what the host charges for each `hcall`, and
//! which (exception class × delivery variant) pairs to explore. This
//! module is the single place where those facts are transcribed from the
//! simulated kernel — [`crate::layout`], [`crate::costs`],
//! [`crate::fastexc`], and the trampoline in [`crate::kernel`] — so the
//! static model and the executed kernel cannot drift apart without one of
//! them touching this file.
//!
//! Two kinds of composition are modeled:
//!
//! - [`kernel_only_case`] — the kernel image alone, with symbolic
//!   registration (unknown handler, unknown comm alias): proves every
//!   architecturally raisable class reaches *some* handler terminal and
//!   that the protocol invariants hold for any registration;
//! - [`bench_case`] — one fully composed Table 2 microbenchmark: kernel +
//!   signal trampoline + guest program with the registration values the
//!   bench actually establishes, deep through the guest handler to the
//!   user resume, with measure labels matching the dynamic
//!   `table2/{path}/{class}` metrics.

use efex_mips::asm::Program;
use efex_mips::cycles;
use efex_mips::decode::decode;
use efex_mips::exception::ExcCode;
use efex_mips::isa::{Instruction, Reg};
use efex_mips::machine::{GENERAL_VECTOR, UTLB_VECTOR};
use efex_verify::symex::{
    CommModel, DeliveryVariant, Depth, EntryKind, HostModel, Scenario, StandardResume, SymexConfig,
    UareaModel, UareaWord,
};

use crate::fastexc::FastExcState;
use crate::{costs, layout};

/// Representative KSEG0 alias of the communication page used for composed
/// exploration. The real alias depends on which physical frame the
/// allocator hands out; any KSEG0 address clear of the kernel image and
/// u-area gives the same analysis because the explorer normalizes both
/// mappings of the page to the same canonical offsets.
pub const COMM_KSEG0_REPR: u32 = 0x8040_0000;

/// One composed verification case: the engine configuration plus the
/// scenarios to explore. The caller supplies the matching
/// [`efex_verify::interproc::Images`] view (the images are borrowed, so
/// they cannot live in this struct).
#[derive(Clone, Debug)]
pub struct ComposedCase {
    /// Engine configuration.
    pub config: SymexConfig,
    /// Scenarios to explore under it.
    pub scenarios: Vec<Scenario>,
}

/// The Table 2 benchmark compositions, named after their
/// `table2/{path}/{class}` metric rows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BenchKind {
    /// `fast-user/breakpoint` — software fast path, `break`.
    FastBreakpoint,
    /// `fast-user/write-protect` — fast path, amplified store fault.
    FastWriteProtect,
    /// `fast-user/subpage` — fast path with the subpage engine managing
    /// the page (adds the bitmap lookup to the host work).
    FastSubpage,
    /// `fast-user/unaligned` — fast path, specialized unaligned handler.
    FastUnaligned,
    /// `unix-signals/breakpoint` — standard path, `break` via SIGTRAP.
    UnixBreakpoint,
    /// `unix-signals/write-protect` — standard path, SIGSEGV with
    /// `mprotect` from the handler.
    UnixWriteProtect,
    /// `hardware-vectored/breakpoint` — the Section 2.1 PC/UXT exchange.
    HwBreakpoint,
}

impl BenchKind {
    /// Every bench composition, in the order of the Table 2 matrix.
    pub const ALL: [BenchKind; 7] = [
        BenchKind::UnixBreakpoint,
        BenchKind::UnixWriteProtect,
        BenchKind::FastBreakpoint,
        BenchKind::FastWriteProtect,
        BenchKind::FastSubpage,
        BenchKind::FastUnaligned,
        BenchKind::HwBreakpoint,
    ];

    /// The `table2/{path}/{class}` metric-row key this bench measures.
    pub fn row(self) -> &'static str {
        match self {
            BenchKind::FastBreakpoint => "fast-user/breakpoint",
            BenchKind::FastWriteProtect => "fast-user/write-protect",
            BenchKind::FastSubpage => "fast-user/subpage",
            BenchKind::FastUnaligned => "fast-user/unaligned",
            BenchKind::UnixBreakpoint => "unix-signals/breakpoint",
            BenchKind::UnixWriteProtect => "unix-signals/write-protect",
            BenchKind::HwBreakpoint => "hardware-vectored/breakpoint",
        }
    }

    /// The exception class the bench raises at `fault_site`.
    pub fn class(self) -> ExcCode {
        match self {
            BenchKind::FastBreakpoint | BenchKind::UnixBreakpoint | BenchKind::HwBreakpoint => {
                ExcCode::Breakpoint
            }
            BenchKind::FastWriteProtect | BenchKind::FastSubpage | BenchKind::UnixWriteProtect => {
                ExcCode::TlbMod
            }
            BenchKind::FastUnaligned => ExcCode::AddrErrLoad,
        }
    }
}

/// The canonical comm-frame save-slot assignment (Section 3.2.1): the
/// kernel contract saves `$at`, `$a0`, `$a1` into these frame-relative
/// offsets before clobbering them.
pub fn slot_owners() -> Vec<(u32, Reg)> {
    vec![
        (layout::comm::AT, Reg::AT),
        (layout::comm::A0, Reg::A0),
        (layout::comm::A1, Reg::A1),
    ]
}

fn comm_model(kseg0_base: Option<u32>) -> CommModel {
    CommModel {
        user_base: layout::COMM_PAGE_VADDR,
        kseg0_base,
        page_len: layout::PAGE_SIZE,
        frame_size: layout::COMM_FRAME_SIZE,
        epc_slot: layout::comm::EPC,
        slot_owners: slot_owners(),
    }
}

fn uarea_model(enabled_mask: u32) -> UareaModel {
    let words = [
        (layout::uarea::ENABLED_MASK, UareaWord::Known(enabled_mask)),
        (layout::uarea::HANDLER, UareaWord::Handler),
        (layout::uarea::COMM_KSEG0, UareaWord::CommBase),
        (layout::uarea::FLAGS, UareaWord::Known(0)),
    ];
    UareaModel {
        base: layout::UAREA_VADDR,
        len: 0x200,
        words: words.into_iter().collect(),
    }
}

/// Host cost intervals, transcribed from [`crate::costs`]. `fast_tlb` is
/// the `hcall 2` work: page-table validation, plus the subpage bitmap
/// lookup when the subpage engine manages the faulting page.
fn host_model(fast_tlb: (u64, u64), standard_resume: Option<StandardResume>) -> HostModel {
    let standard = costs::ULTRIX_EXC_SAVE + costs::ULTRIX_POST + costs::ULTRIX_DELIVER;
    HostModel {
        refill_cycles: costs::TLB_REFILL,
        fast_tlb,
        standard: (standard, standard),
        standard_tlb_extra: costs::ULTRIX_VM_FAULT_WORK,
        sigreturn: (costs::ULTRIX_SIGRETURN, costs::ULTRIX_SIGRETURN),
        other_syscall: (costs::ULTRIX_SYSCALL_WRAPPER, costs::ULTRIX_SYSCALL_WRAPPER),
        standard_resume,
    }
}

/// The documented recursive-exception-vulnerable windows: from each vector
/// entry until the save phase has banked EPC/Cause/BadVaddr (label
/// `fexc_fpcheck`). Everything the kernel executes with live CP0 state
/// must sit inside these ranges.
pub fn documented_windows(kernel: &Program) -> Vec<(u32, u32)> {
    let fpcheck = kernel
        .symbol("fexc_fpcheck")
        .expect("kernel image lacks fexc_fpcheck");
    vec![(UTLB_VECTOR, UTLB_VECTOR + 8), (GENERAL_VECTOR, fpcheck)]
}

fn base_config(
    kernel: &Program,
    enabled_mask: u32,
    kseg0_base: Option<u32>,
    handler: Option<u32>,
    fast_tlb: (u64, u64),
    standard_resume: Option<StandardResume>,
) -> SymexConfig {
    SymexConfig {
        general_vector: GENERAL_VECTOR,
        utlb_vector: Some(UTLB_VECTOR),
        exception_entry_cycles: cycles::EXCEPTION_ENTRY,
        user_vector_entry_cycles: cycles::USER_VECTOR_ENTRY,
        uarea: uarea_model(enabled_mask),
        comm: comm_model(kseg0_base),
        handler,
        protocol_saved: vec![Reg::AT, Reg::A0, Reg::A1],
        documented_windows: documented_windows(kernel),
        host: host_model(fast_tlb, standard_resume),
        max_refills: 3,
        unroll_limit: 40,
        max_paths: 512,
    }
}

/// The kernel image alone under a *symbolic* registration: the enabled
/// mask is the widest a process may establish, the handler address and
/// comm alias are opaque tokens. One kernel-only scenario per
/// architecturally raisable class (plus refill variants for the TLB
/// classes) proves each reaches a handler terminal and respects the save
/// protocol for any registration.
pub fn kernel_only_case(kernel: &Program) -> ComposedCase {
    let config = base_config(
        kernel,
        FastExcState::allowed_mask(),
        None,
        None,
        (
            costs::FAST_TLBFAULT_KERNEL,
            costs::FAST_TLBFAULT_KERNEL + costs::SUBPAGE_LOOKUP,
        ),
        None,
    );
    let mut scenarios = Vec::new();
    for class in ExcCode::ALL {
        let mut variants = vec![DeliveryVariant::Direct];
        if class.is_tlb() {
            variants.push(DeliveryVariant::Refill);
        }
        for variant in variants {
            scenarios.push(Scenario {
                label: format!("kernel-only/{}/{}", class_slug(class), variant.label()),
                class,
                variant,
                entry: EntryKind::KernelVector,
                depth: Depth::KernelOnly,
                fault_cost: 1,
                measure_to: None,
                measure_return_from: None,
                return_may_refill: false,
            });
        }
    }
    ComposedCase { config, scenarios }
}

/// The fully composed configuration and scenarios for one Table 2 bench.
///
/// `kernel`, `trampoline`, and `app` are the assembled images the dynamic
/// measurement runs (the caller also passes the same three to
/// [`efex_verify::interproc::Images`]). Registration values — the enabled
/// mask, handler entry, measure labels — are resolved from the `app`
/// image's own symbols, so the static model follows the bench source.
///
/// # Panics
///
/// Panics when an image lacks a label the bench contract requires
/// (`fault_site`, `null_handler`, `null_ret`, and the path-specific
/// handler entry) — the same labels the dynamic measurement depends on.
pub fn bench_case(
    kind: BenchKind,
    kernel: &Program,
    trampoline: &Program,
    app: &Program,
) -> ComposedCase {
    let sym = |p: &Program, name: &str| {
        p.symbol(name)
            .unwrap_or_else(|| panic!("image lacks label {name}"))
    };
    let fault_site = sym(app, "fault_site");
    let measure_to = Some(sym(app, "null_handler"));
    let measure_return_from = Some(sym(app, "null_ret"));
    let fault_cost = {
        let word = app
            .word_at(fault_site)
            .unwrap_or_else(|| panic!("no code at fault_site"));
        let inst = decode(word).expect("fault_site instruction decodes");
        cycles::static_cost(inst)
    };
    let class = kind.class();

    let fast_mask = |codes: &[ExcCode]| codes.iter().fold(0u32, |m, c| m | (1 << c.code()));
    let (config, variants, return_may_refill, entry) = match kind {
        BenchKind::FastBreakpoint => (
            base_config(
                kernel,
                fast_mask(&[ExcCode::Breakpoint]),
                Some(COMM_KSEG0_REPR),
                Some(sym(app, "uh_entry")),
                (costs::FAST_TLBFAULT_KERNEL, costs::FAST_TLBFAULT_KERNEL),
                None,
            ),
            vec![DeliveryVariant::Direct],
            false,
            EntryKind::KernelVector,
        ),
        BenchKind::FastWriteProtect | BenchKind::FastSubpage => {
            let lookup = if kind == BenchKind::FastSubpage {
                costs::SUBPAGE_LOOKUP
            } else {
                0
            };
            let tlb = costs::FAST_TLBFAULT_KERNEL + lookup;
            (
                base_config(
                    kernel,
                    fast_mask(&[ExcCode::TlbMod, ExcCode::TlbLoad, ExcCode::TlbStore]),
                    Some(COMM_KSEG0_REPR),
                    Some(sym(app, "uh_entry")),
                    (tlb, tlb),
                    None,
                ),
                vec![DeliveryVariant::Direct, DeliveryVariant::Refill],
                // The guest handler re-runs the faulting store; the
                // protect/amplify cycle invalidated the TLB entry, so the
                // retry may take a refill excursion.
                true,
                EntryKind::KernelVector,
            )
        }
        BenchKind::FastUnaligned => (
            base_config(
                kernel,
                fast_mask(&[ExcCode::AddrErrLoad, ExcCode::AddrErrStore]),
                Some(COMM_KSEG0_REPR),
                Some(sym(app, "uh_entry")),
                (costs::FAST_TLBFAULT_KERNEL, costs::FAST_TLBFAULT_KERNEL),
                None,
            ),
            vec![DeliveryVariant::Direct],
            false,
            EntryKind::KernelVector,
        ),
        BenchKind::UnixBreakpoint | BenchKind::UnixWriteProtect => {
            let resume = StandardResume {
                trampoline_entry: trampoline.entry(),
                handler: sym(app, "handler"),
                sigctx_pc_off: crate::signals::sigcontext::PC as i32,
            };
            let variants = if kind == BenchKind::UnixWriteProtect {
                vec![DeliveryVariant::Direct, DeliveryVariant::Refill]
            } else {
                vec![DeliveryVariant::Direct]
            };
            (
                base_config(
                    kernel,
                    0, // no fast registration: everything falls back
                    Some(COMM_KSEG0_REPR),
                    None,
                    (costs::FAST_TLBFAULT_KERNEL, costs::FAST_TLBFAULT_KERNEL),
                    Some(resume),
                ),
                variants,
                kind == BenchKind::UnixWriteProtect,
                EntryKind::KernelVector,
            )
        }
        BenchKind::HwBreakpoint => {
            // Warm entry: after the first delivery, UXT points at the
            // instruction following `xpcu`, which branches back to the
            // handler entry (the Section 2.2 idiom).
            let entry = xpcu_addr(app)
                .map(|a| a + 4)
                .expect("hardware-vectored bench has no xpcu");
            (
                base_config(
                    kernel,
                    0,
                    Some(COMM_KSEG0_REPR),
                    Some(sym(app, "uh_entry")),
                    (costs::FAST_TLBFAULT_KERNEL, costs::FAST_TLBFAULT_KERNEL),
                    None,
                ),
                vec![DeliveryVariant::Direct],
                false,
                EntryKind::UserVectored { entry },
            )
        }
    };

    let scenarios = variants
        .into_iter()
        .map(|variant| Scenario {
            label: format!("{}/{}", kind.row(), variant.label()),
            class,
            variant,
            entry,
            depth: Depth::Deep,
            fault_cost,
            measure_to,
            measure_return_from,
            return_may_refill,
        })
        .collect();
    ComposedCase { config, scenarios }
}

fn class_slug(class: ExcCode) -> String {
    format!("{class:?}").to_ascii_lowercase()
}

/// The address of the (first) `xpcu` instruction in `prog` — the warm
/// re-entry point of a hardware-vectored handler is the instruction after
/// it.
pub fn xpcu_addr(prog: &Program) -> Option<u32> {
    for seg in prog.segments() {
        let mut addr = seg.addr;
        for _ in 0..(seg.bytes.len() / 4) {
            if let Some(word) = prog.word_at(addr) {
                if decode(word) == Ok(Instruction::Xpcu) {
                    return Some(addr);
                }
            }
            addr = addr.wrapping_add(4);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastexc::KERNEL_ASM;
    use crate::kernel::TRAMPOLINE_ASM;
    use efex_mips::asm::assemble;
    use efex_verify::interproc::Images;
    use efex_verify::symex::{explore, Terminal};

    #[test]
    fn kernel_only_every_class_reaches_a_handler_terminal() {
        let kernel = assemble(KERNEL_ASM).unwrap();
        let case = kernel_only_case(&kernel);
        let images = Images::new(vec![("kernel", &kernel)]);
        let report = explore(&images, &case.config, &case.scenarios);
        assert!(
            report.is_clean(),
            "kernel-only symbolic pass has findings:\n{}",
            report
                .findings
                .iter()
                .map(|f| format!("{f}\n"))
                .collect::<String>()
        );
        for s in &report.scenarios {
            assert!(s.reached, "{} did not reach a handler terminal", s.label);
        }
        // The enabled TLB classes must complete through the host fast-TLB
        // boundary; enabled non-TLB classes through the vector exit.
        let tlb = report.scenario("kernel-only/tlbmod/direct").unwrap();
        assert!(tlb.terminals.contains_key(&Terminal::HostCompleted));
        let bp = report.scenario("kernel-only/breakpoint/direct").unwrap();
        assert!(bp.terminals.contains_key(&Terminal::ToHandler));
        // Disabled classes fall back to the standard path.
        let sys = report.scenario("kernel-only/syscall/direct").unwrap();
        assert!(sys.terminals.contains_key(&Terminal::StandardPath));
    }

    #[test]
    fn kernel_only_live_window_is_inside_the_documented_one() {
        let kernel = assemble(KERNEL_ASM).unwrap();
        let case = kernel_only_case(&kernel);
        let images = Images::new(vec![("kernel", &kernel)]);
        let report = explore(&images, &case.config, &case.scenarios);
        let fpcheck = kernel.symbol("fexc_fpcheck").unwrap();
        let fallback = kernel.symbol("fexc_fallback").unwrap();
        for s in &report.scenarios {
            let Some(end) = s.live_window_end else {
                continue;
            };
            if s.terminals.contains_key(&Terminal::StandardPath) {
                // Fallback deliveries hand live CP0 state to the host at
                // `hcall 1`; the window extends exactly that far.
                assert!(
                    end <= fallback,
                    "{}: CP0 state live at {end:#x}, past fexc_fallback {fallback:#x}",
                    s.label
                );
            } else {
                // Fast-path deliveries must bank CP0 state in the save
                // phase, before fexc_fpcheck.
                assert!(
                    end < fpcheck,
                    "{}: CP0 state live at {end:#x}, past fexc_fpcheck {fpcheck:#x}",
                    s.label
                );
            }
        }
    }

    #[test]
    fn trampoline_entry_is_the_signal_entry() {
        let tramp = assemble(TRAMPOLINE_ASM).unwrap();
        assert_eq!(tramp.entry(), tramp.symbol("tramp_sig").unwrap());
    }
}
