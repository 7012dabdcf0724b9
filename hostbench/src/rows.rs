//! The seven Table 2 delivery rows as long-running guest programs, with
//! the simulated counts each run must reproduce.

use efex_core::{debug_progs as progs, DeliveryPath, System};
use efex_mips::machine::MachineConfig;
use efex_simos::RunOutcome;

/// One Table 2 row: a guest microbenchmark taking `n` exceptions in a loop.
#[derive(Debug)]
pub struct Row {
    /// `<path>.<class>`, as in the per-layer metric names.
    pub name: &'static str,
    /// Delivery path the system is built with.
    pub path: DeliveryPath,
    /// Whether delivery goes through the Rust kernel's trap dispatch.
    pub kernel_routed: bool,
    /// The guest program for `n` round trips.
    pub source: fn(u32) -> String,
}

/// Every Table 2 row, in the order of [`crate::reference::REFERENCE`].
pub const ROWS: [Row; 7] = [
    Row {
        name: "fast-user.breakpoint",
        path: DeliveryPath::FastUser,
        kernel_routed: false,
        source: progs::fast_simple_bench,
    },
    Row {
        name: "fast-user.unaligned",
        path: DeliveryPath::FastUser,
        kernel_routed: false,
        source: progs::fast_unaligned_specialized_bench,
    },
    Row {
        name: "hardware-vectored.breakpoint",
        path: DeliveryPath::HardwareVectored,
        kernel_routed: false,
        source: progs::hw_simple_bench,
    },
    Row {
        name: "fast-user.write-protect",
        path: DeliveryPath::FastUser,
        kernel_routed: true,
        source: progs::fast_prot_bench,
    },
    Row {
        name: "fast-user.subpage",
        path: DeliveryPath::FastUser,
        kernel_routed: true,
        source: progs::fast_subpage_bench,
    },
    Row {
        name: "unix-signals.breakpoint",
        path: DeliveryPath::UnixSignals,
        kernel_routed: true,
        source: progs::unix_simple_bench,
    },
    Row {
        name: "unix-signals.write-protect",
        path: DeliveryPath::UnixSignals,
        kernel_routed: true,
        source: progs::unix_prot_bench,
    },
];

/// Index of the fast-user/write-protect row, the guest the checkpoint
/// workload migrates.
pub const WRITE_PROTECT: usize = 3;

/// The simulated counts of one complete, uninterrupted run of a row with
/// `n` round trips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowRef {
    /// Round trips the program takes.
    pub n: u32,
    /// Guest instructions retired by the end of the run.
    pub instructions: u64,
    /// Exceptions taken by the end of the run.
    pub exceptions: u64,
    /// Simulated cycles by the end of the run.
    pub cycles: u64,
}

impl RowRef {
    /// Guest instructions per round trip, setup included.
    pub fn instructions_per_roundtrip(&self) -> f64 {
        self.instructions as f64 / f64::from(self.n)
    }
}

/// Reference runs per row: index 0 is the tiny size of the self-test, the
/// rest are the sizes the seed chooses among.
pub const MENU: usize = 5;

/// Boots a system for `row` on `machine` and starts its program with `n`
/// round trips.
///
/// # Errors
///
/// Boot, assembly or stack set-up failures, rendered.
pub fn boot(
    row: &Row,
    n: u32,
    machine: MachineConfig,
    tracer: &crate::span::Tracer,
) -> Result<System, String> {
    let mut sys = tracer
        .span("core::System::build", "core", row.name, || {
            System::builder()
                .delivery(row.path)
                .machine_config(machine)
                .build()
        })
        .map_err(|e| format!("{}: boot: {e}", row.name))?;
    let source = (row.source)(n);
    let k = sys.kernel_mut();
    let prog = tracer
        .span(
            "simos::Kernel::load_user_program",
            "simos",
            row.name,
            || k.load_user_program(&source),
        )
        .map_err(|e| format!("{}: assemble: {e}", row.name))?;
    let sp = k
        .setup_stack(16)
        .map_err(|e| format!("{}: stack: {e}", row.name))?;
    if row.path == DeliveryPath::HardwareVectored {
        // What `System::run_program` does for this path: the kernel grants
        // direct user vectoring (enable bit plus mask).
        let cp0 = k.machine_mut().cp0_mut();
        cp0.status |= efex_mips::cp0::status::UXE;
        cp0.uxm = efex_simos::fastexc::FastExcState::allowed_mask();
    }
    k.exec(prog.entry(), sp);
    Ok(sys)
}

/// Checks a finished run against its reference: exit 0 with the committed
/// instruction, exception and cycle counts.
///
/// # Errors
///
/// Describes the first mismatch.
pub fn check(row: &Row, want: &RowRef, sys: &System, out: &RunOutcome) -> Result<(), String> {
    let m = sys.kernel().machine();
    let got = RowRef {
        n: want.n,
        instructions: m.instructions_retired(),
        exceptions: m.exceptions_taken(),
        cycles: m.cycles(),
    };
    if *out != RunOutcome::Exited(0) {
        return Err(format!(
            "{} n={}: ended {out:?}, want Exited(0)",
            row.name, want.n
        ));
    }
    if got != *want {
        return Err(format!(
            "{} n={}: got {got:?}, want {want:?}",
            row.name, want.n
        ));
    }
    Ok(())
}

/// Runs `row` with `n` round trips to completion and returns its counts
/// (used to regenerate [`crate::reference::REFERENCE`]).
///
/// # Errors
///
/// Boot or run failures, rendered.
pub fn measure(row: &Row, n: u32) -> Result<RowRef, String> {
    let mut sys = boot(
        row,
        n,
        MachineConfig::default(),
        &crate::span::Tracer::new(false),
    )?;
    let out = sys
        .kernel_mut()
        .run_user(u64::MAX)
        .map_err(|e| format!("{}: {e}", row.name))?;
    if out != RunOutcome::Exited(0) {
        return Err(format!("{}: ended {out:?}", row.name));
    }
    let m = sys.kernel().machine();
    Ok(RowRef {
        n,
        instructions: m.instructions_retired(),
        exceptions: m.exceptions_taken(),
        cycles: m.cycles(),
    })
}

/// The round-trip counts [`crate::reference::REFERENCE`] holds for `row`: a tiny run, then
/// four sizes within 15% of the row's base, which keeps one run near half
/// a second of host time.
pub fn menu_sizes(row: &Row) -> [u32; MENU] {
    let base = if row.kernel_routed { 50_000 } else { 150_000 };
    [20, base, base * 21 / 20, base * 22 / 20, base * 23 / 20]
}
