//! Checkpoint/restore and record-replay gate.
//!
//! ```text
//! snap                      run every check below
//! snap --rows               Table 2 delivery rows: snapshot each row's
//!                           guest mid-run, restore through the wire into
//!                           a system that already ran another row's guest
//!                           to completion, resume; final registers and
//!                           physical memory must be bit-exact under both
//!                           engines
//! snap --tenants            one tenant workload per app crate: checkpoint
//!                           mid-suite, resume off the wire; merged report
//!                           must match the uninterrupted run
//! snap --bisect             record-replay divergence bisection demo: two
//!                           recordings of the same guest, one perturbed
//!                           mid-run; the bisector must name the exact
//!                           first diverging step with disassembly context
//! ```
//!
//! Everything here is deterministic and gated: any mismatch is a nonzero
//! exit.

use efex_core::replay::{bisect, record, KernelReplay, Recording};
use efex_core::{DeliveryPath, ExceptionKind, System, SystemSnapshot};
use efex_fleet::{advance_tenant, resume_tenant, Suite, TenantCheckpoint, TenantSpec};
use efex_mips::machine::{ExecEngine, MachineConfig};
use efex_simos::RunOutcome;
use std::process::ExitCode;

/// The paper's Table 2 delivery rows (same set the bench tables measure).
const ROWS: &[(DeliveryPath, ExceptionKind)] = &[
    (DeliveryPath::FastUser, ExceptionKind::Breakpoint),
    (DeliveryPath::FastUser, ExceptionKind::WriteProtect),
    (DeliveryPath::FastUser, ExceptionKind::Subpage),
    (DeliveryPath::FastUser, ExceptionKind::UnalignedSpecialized),
    (DeliveryPath::HardwareVectored, ExceptionKind::Breakpoint),
    (DeliveryPath::UnixSignals, ExceptionKind::Breakpoint),
    (DeliveryPath::UnixSignals, ExceptionKind::WriteProtect),
];

fn row_source(path: DeliveryPath, kind: ExceptionKind) -> String {
    use efex_core::debug_progs as progs;
    const ITERS: u32 = 2;
    match (path, kind) {
        (DeliveryPath::FastUser, ExceptionKind::Breakpoint) => progs::fast_simple_bench(ITERS),
        (DeliveryPath::FastUser, ExceptionKind::WriteProtect) => progs::fast_prot_bench(ITERS),
        (DeliveryPath::FastUser, ExceptionKind::Subpage) => progs::fast_subpage_bench(ITERS),
        (DeliveryPath::FastUser, ExceptionKind::UnalignedSpecialized) => {
            progs::fast_unaligned_specialized_bench(ITERS)
        }
        (DeliveryPath::HardwareVectored, ExceptionKind::Breakpoint) => {
            progs::hw_simple_bench(ITERS)
        }
        (DeliveryPath::UnixSignals, ExceptionKind::Breakpoint) => progs::unix_simple_bench(ITERS),
        (DeliveryPath::UnixSignals, ExceptionKind::WriteProtect) => progs::unix_prot_bench(ITERS),
        _ => unreachable!("no benchmark for this row"),
    }
}

fn boot(path: DeliveryPath, engine: ExecEngine) -> Result<System, String> {
    System::builder()
        .delivery(path)
        .machine_config(MachineConfig::default().engine(engine))
        .build()
        .map_err(|e| format!("boot: {e}"))
}

fn load_row(sys: &mut System, path: DeliveryPath, kind: ExceptionKind) -> Result<(), String> {
    let source = row_source(path, kind);
    let prog = sys
        .kernel_mut()
        .load_user_program(&source)
        .map_err(|e| format!("assemble: {e}"))?;
    let sp = sys
        .kernel_mut()
        .setup_stack(16)
        .map_err(|e| format!("stack: {e}"))?;
    if path == DeliveryPath::HardwareVectored {
        let cp0 = sys.kernel_mut().machine_mut().cp0_mut();
        cp0.status |= efex_mips::cp0::status::UXE;
        cp0.uxm = efex_simos::fastexc::FastExcState::allowed_mask();
    }
    sys.kernel_mut().exec(prog.entry(), sp);
    Ok(())
}

fn finish(sys: &mut System) -> Result<(u64, RunOutcome), String> {
    let mut steps = 0u64;
    loop {
        steps += 1;
        match sys.kernel_mut().run_user(1).map_err(|e| e.to_string())? {
            RunOutcome::StepLimit => continue,
            out => return Ok((steps, out)),
        }
    }
}

/// Snapshot each Table 2 row mid-run, restore through the wire, resume;
/// the resumed run's final (digest, cycles, outcome) and non-zero physical
/// pages must equal the uninterrupted run's, under both engines. The
/// receiver is not fresh: built for the row's delivery path, it first runs
/// the next row's guest to completion, so the restore has to clear pages
/// the receiver wrote that the snapshot does not hold.
fn check_rows() -> Result<bool, String> {
    let mut ok = true;
    for engine in [ExecEngine::Interpreter, ExecEngine::Superblock] {
        for (i, &(path, kind)) in ROWS.iter().enumerate() {
            let mut a = boot(path, engine)?;
            load_row(&mut a, path, kind)?;
            let (steps, a_out) = finish(&mut a)?;
            let a_m = a.kernel().machine();
            let a_fp = (a_m.step_digest(), a_m.cycles());

            let mut b = boot(path, engine)?;
            load_row(&mut b, path, kind)?;
            for _ in 0..steps / 2 {
                b.kernel_mut().run_user(1).map_err(|e| e.to_string())?;
            }
            let bytes = b.snapshot().to_bytes();
            let snap = SystemSnapshot::from_bytes(&bytes).map_err(|e| format!("decode: {e}"))?;
            let (donor_path, donor_kind) = ROWS[(i + 1) % ROWS.len()];
            let mut c = boot(path, engine)?;
            load_row(&mut c, donor_path, donor_kind)?;
            let (_, donor_out) = finish(&mut c)?;
            if donor_out != RunOutcome::Exited(0) {
                return Err(format!(
                    "{donor_path} {donor_kind:?} receiver: {donor_out:?}"
                ));
            }
            c.restore(&snap).map_err(|e| format!("restore: {e}"))?;
            let (_, c_out) = finish(&mut c)?;
            let c_m = c.kernel().machine();
            let c_fp = (c_m.step_digest(), c_m.cycles());
            let row_ok =
                c_fp == a_fp && c_out == a_out && c_m.snapshot().pages == a_m.snapshot().pages;
            ok &= row_ok;
            println!(
                "snap: {engine:?} {path} {kind:?}: {} bytes at step {}, resume over \
                 {donor_path} {donor_kind:?} {}",
                bytes.len(),
                steps / 2,
                if row_ok { "bit-exact" } else { "DIVERGED" },
            );
        }
    }
    Ok(ok)
}

/// One tenant per application crate: checkpoint after the first leg,
/// serialize, resume off the wire; the merged report must be bit-identical
/// to the uninterrupted two-leg run.
fn check_tenants() -> Result<bool, String> {
    let mut ok = true;
    for (i, suite) in Suite::ALL.iter().enumerate() {
        let spec = TenantSpec {
            id: i as u32,
            suite: *suite,
            seed: 0x5eed_0000 + i as u64,
            machine: MachineConfig::default(),
        };
        let whole = resume_tenant(&TenantCheckpoint::initial(spec, 2), false, false)
            .map_err(|e| e.to_string())?;
        let mut ckpt = TenantCheckpoint::initial(spec, 2);
        advance_tenant(&mut ckpt, 1).map_err(|e| e.to_string())?;
        let bytes = ckpt.to_bytes();
        let back = TenantCheckpoint::from_bytes(&bytes).map_err(|e| e.to_string())?;
        let resumed = resume_tenant(&back, false, false).map_err(|e| e.to_string())?;
        let t_ok =
            resumed.micros.to_bits() == whole.micros.to_bits() && resumed.stats == whole.stats;
        ok &= t_ok;
        println!(
            "snap: tenant {suite}: {} byte checkpoint after leg 1, resume {}",
            bytes.len(),
            if t_ok { "bit-exact" } else { "DIVERGED" },
        );
    }
    Ok(ok)
}

fn breakpoint_replay(perturb_at: Option<u64>) -> KernelReplay {
    let replay = KernelReplay::new(|| {
        let mut sys = boot(DeliveryPath::FastUser, ExecEngine::Interpreter)
            .map_err(efex_core::CoreError::Invalid)?;
        load_row(&mut sys, DeliveryPath::FastUser, ExceptionKind::Breakpoint)
            .map_err(efex_core::CoreError::Invalid)?;
        // The replay driver owns the kernel, not the System shell; the
        // measurement plane is host-side and irrelevant to replay.
        Ok(sys.into_kernel())
    });
    match perturb_at {
        None => replay,
        Some(at) => replay.with_hook(move |step, kernel| {
            if step == at {
                // Corrupt the multiply/divide LO register mid-run: the
                // canonical "cosmic ray" a divergence bisection hunts
                // down. LO is architectural state the digest covers, but
                // this guest never reads it — the corruption persists to
                // the end of the run without changing control flow, which
                // is exactly the hardest kind of divergence to locate by
                // eye.
                let cpu = kernel.machine_mut().cpu_mut();
                let lo = cpu.lo();
                cpu.set_lo(lo ^ 0xdead_beef);
            }
        }),
    }
}

/// Record two runs of the same guest — one perturbed at a known step —
/// and demand the bisector find that exact step.
fn check_bisect() -> Result<bool, String> {
    const STRIDE: u64 = 32;
    const PERTURB_AT: u64 = 150;
    let mut clean = breakpoint_replay(None);
    let mut dirty = breakpoint_replay(Some(PERTURB_AT));
    let rec_a = record(&mut clean, STRIDE, 1_000_000).map_err(|e| e.to_string())?;
    let rec_b = record(&mut dirty, STRIDE, 1_000_000).map_err(|e| e.to_string())?;

    // Recordings are serializable artifacts: round-trip them before use.
    let rec_a = Recording::from_bytes(&rec_a.to_bytes()).map_err(|e| e.to_string())?;
    let rec_b = Recording::from_bytes(&rec_b.to_bytes()).map_err(|e| e.to_string())?;

    let d = bisect(&rec_a, &rec_b, &mut clean, &mut dirty)
        .map_err(|e| e.to_string())?
        .ok_or("perturbed run did not diverge")?;
    print!("snap: bisect: {d}");
    let ok = d.step == PERTURB_AT;
    if !ok {
        println!(
            "snap: bisect FAILED: expected first divergence at step {PERTURB_AT}, got {}",
            d.step
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: snap [--rows] [--tenants] [--bisect]");
        return ExitCode::SUCCESS;
    }
    let all = args.is_empty();
    let want = |flag: &str| all || args.iter().any(|a| a == flag);

    let mut ok = true;
    if want("--rows") {
        match check_rows() {
            Ok(pass) => ok &= pass,
            Err(e) => {
                eprintln!("snap: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if want("--tenants") {
        match check_tenants() {
            Ok(pass) => ok &= pass,
            Err(e) => {
                eprintln!("snap: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if want("--bisect") {
        match check_bisect() {
            Ok(pass) => ok &= pass,
            Err(e) => {
                eprintln!("snap: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if ok {
        println!("snap: all checks passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
