//! The four workloads. Each is a closed loop: one driving thread issues an
//! operation, waits for it to finish, then issues the next.
//!
//! Why these four: each simulator layer does most of the work in one of
//! them and little in another, so a change to one layer shows up on one
//! workload and leaves another flat.
//!
//! - `guest-user` runs the Table 2 rows whose delivery never enters the Rust
//!   kernel (fast-user breakpoint and unaligned, hardware-vectored
//!   breakpoint). `efex-mips` — fetch, decode, execute, the engine and its
//!   caches — does nearly all the work; the kernel does almost none.
//! - `guest-kernel` runs the rows routed through the Rust kernel's trap
//!   dispatch (fast-user write-protect and subpage, Unix-signal breakpoint
//!   and write-protect). `efex-simos` does most of the work: trap
//!   dispatch, TLB refill, signal frames, subpage emulation. Superblocks
//!   end at every exception, so an engine change that helps `guest-user`
//!   can hurt here.
//! - `fleet-tenants` runs back-to-back fleet batches. Time goes to booting
//!   16 MB machines, `HostProcess` dispatch, the five app runtimes, the
//!   health probe and fleet orchestration; guest instruction execution is
//!   small.
//! - `checkpoint-migrate` passes one guest run back and forth between two
//!   systems. It is the only workload where `efex-snap` and the snapshot
//!   modules do most of the work, both writing (capture, encode) and
//!   reading (decode, restore into a machine with live caches).

use crate::rows::{self, RowRef, ROWS, WRITE_PROTECT};
use crate::span::Tracer;
use crate::{Ctx, Scale};
use efex_core::{CoreError, System, SystemSnapshot};
use efex_fleet::{run_fleet, FleetConfig};
use efex_mips::cycles::CLOCK_MHZ;
use efex_mips::machine::MachineConfig;
use efex_simos::RunOutcome;
use efex_snap::SnapError;
use std::time::Instant;

/// Guest round trips per `guest-*` operation.
pub const SLICE_ROUNDTRIPS: f64 = 1000.0;
/// Tenants per fleet batch: four from each of the five suites.
pub const BATCH_TENANTS: u32 = 20;
/// Fleet worker threads per batch.
pub const FLEET_THREADS: usize = 2;
/// Mean guest instructions run between two checkpoints; the seed jitters
/// each stride by ±25%.
pub const CHECKPOINT_STRIDE: u64 = 150_000;

/// One completed operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpRecord {
    /// Host time of the whole operation, seconds (the throughput base).
    pub busy: f64,
    /// Host time of the operation's latency unit, seconds, when it has one.
    pub latency: Option<f64>,
    /// Which kind of operation this is: the row for guest slices, 0 for
    /// the single kind the other workloads have. Latency percentiles are
    /// taken per kind, so rows of different cost do not mix.
    pub kind: usize,
    /// The host's speed while the operation ran, reference seconds per host
    /// second (see [`crate::hostspeed`]); 0 when not measured.
    pub host_speed: f64,
    /// Work units completed: slices, tenants or checkpoints.
    pub units: f64,
    /// Simulated exception round trips completed.
    pub roundtrips: f64,
    /// Simulated time produced, µs.
    pub sim_us: f64,
}

/// What a run of operations produced.
#[derive(Debug, Default)]
pub struct Tally {
    /// Every operation, in order.
    pub ops: Vec<OpRecord>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a call or a check.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        self.errors.push(e);
    }
}

/// One workload's state between operations.
pub trait Driver {
    /// Runs one operation and records it.
    fn step(&mut self, ctx: &Ctx, tally: &mut Tally);
}

/// The reference entry a run uses: the tiny one for the self-test, else one
/// of the measured sizes, chosen by the seed.
fn pick(ctx: &Ctx, menu: &[RowRef; rows::MENU]) -> RowRef {
    match ctx.scale {
        Scale::Tiny => menu[0],
        Scale::Full => menu[1 + ctx.rng.below(rows::MENU as u64 - 1) as usize],
    }
}

/// Boots a system for row `index`, starts its program and checkpoints the
/// start, so finished runs can rewind instead of booting again.
fn start_row(ctx: &Ctx, index: usize, want: &RowRef) -> Result<(System, SystemSnapshot), String> {
    let mut sys = rows::boot(&ROWS[index], want.n, MachineConfig::default(), &ctx.tracer)?;
    let start = ctx
        .tracer
        .span("core::System::snapshot", "snap", "", || sys.snapshot());
    Ok((sys, start))
}

/// Restores `start` into `sys` (untimed, between guest runs). Rewinding
/// instead of rebooting keeps the timed loop free of machine allocations,
/// so the memory high-water mark does not depend on how many runs finish.
fn rewind(ctx: &Ctx, sys: &mut System, start: &SystemSnapshot) -> Result<(), String> {
    ctx.tracer
        .span("hostbench::rewind", "hostbench", "", || {
            ctx.tracer
                .span("core::System::restore", "snap", "", || sys.restore(start))
        })
        .map_err(|e| format!("rewind: {e}"))
}

/// A row's guest program in flight on its own system.
struct Live {
    index: usize,
    want: RowRef,
    sys: System,
    start: SystemSnapshot,
}

/// `guest-user` and `guest-kernel`: a set of rows run round-robin, one
/// slice of [`SLICE_ROUNDTRIPS`] round trips per operation, each row on its
/// own booted system. A row whose program exits is checked against its
/// committed counts and rewound to its start (untimed) to run again.
pub struct Guest {
    live: Vec<Live>,
    next: usize,
}

impl Guest {
    /// Boots one system per row in `rows` (in seeded order, with seeded
    /// sizes), each checked against `reference` (indexed like [`ROWS`]).
    ///
    /// # Errors
    ///
    /// Boot failures.
    pub fn setup(
        ctx: &Ctx,
        rows: &[usize],
        reference: &[[RowRef; rows::MENU]],
    ) -> Result<Guest, String> {
        let mut order = rows.to_vec();
        ctx.rng.shuffle(&mut order);
        let mut live = Vec::with_capacity(order.len());
        for index in order {
            let want = pick(ctx, &reference[index]);
            let (sys, start) = start_row(ctx, index, &want)?;
            live.push(Live {
                index,
                want,
                sys,
                start,
            });
        }
        Ok(Guest { live, next: 0 })
    }
}

impl Driver for Guest {
    fn step(&mut self, ctx: &Ctx, tally: &mut Tally) {
        if self.live.is_empty() {
            tally.attempted += 1;
            tally.fail("no row left to run".into());
            return;
        }
        let slot = self.next % self.live.len();
        self.next += 1;
        let live = &mut self.live[slot];
        let row = &ROWS[live.index];
        let ipr = live.want.instructions_per_roundtrip();
        let steps = (SLICE_ROUNDTRIPS * ipr).ceil() as u64;
        let m = live.sys.kernel().machine();
        let (i0, c0) = (m.instructions_retired(), m.cycles());
        let t0 = Instant::now();
        let out = ctx
            .tracer
            .span("hostbench::guest_slice", "hostbench", row.name, || {
                ctx.tracer
                    .span("simos::Kernel::run_user", "simos", row.name, || {
                        live.sys.kernel_mut().run_user(steps)
                    })
            });
        let dt = t0.elapsed().as_secs_f64();
        let m = live.sys.kernel().machine();
        let (di, dc) = (m.instructions_retired() - i0, m.cycles() - c0);
        ctx.tracer.work("simos::Kernel::run_user", di);
        tally.attempted += 1;
        tally.ops.push(OpRecord {
            busy: dt,
            latency: Some(dt),
            kind: live.index,
            host_speed: 0.0,
            units: 1.0,
            roundtrips: di as f64 / ipr,
            sim_us: dc as f64 / CLOCK_MHZ,
        });
        let finished = match out {
            Ok(RunOutcome::StepLimit) => return,
            Ok(out) => rows::check(row, &live.want, &live.sys, &out),
            Err(e) => Err(format!("{}: {e}", row.name)),
        };
        if let Err(e) = finished {
            tally.fail(e);
        }
        if let Err(e) = rewind(ctx, &mut live.sys, &live.start) {
            tally.fail(format!("{}: {e}", row.name));
            self.live.remove(slot);
        }
    }
}

/// `fleet-tenants`: back-to-back batches of [`BATCH_TENANTS`] tenants on
/// [`FLEET_THREADS`] workers with the fleet defaults (health on). Each
/// operation is one batch plus its health evaluation; the seed sets every
/// batch's base seed.
pub struct Fleet {
    tenants: u32,
}

impl Fleet {
    /// A fleet driver sized for `scale`.
    pub fn setup(scale: Scale) -> Fleet {
        Fleet {
            tenants: match scale {
                Scale::Tiny => 5,
                Scale::Full => BATCH_TENANTS,
            },
        }
    }
}

impl Driver for Fleet {
    fn step(&mut self, ctx: &Ctx, tally: &mut Tally) {
        let cfg = FleetConfig {
            tenants: self.tenants,
            threads: FLEET_THREADS,
            base_seed: ctx.rng.next_u64(),
            ..FleetConfig::default()
        };
        let tracer = &ctx.tracer;
        let t0 = Instant::now();
        let result = tracer.span("hostbench::fleet_batch", "hostbench", "", || {
            let report = tracer.span("fleet::run_fleet", "fleet", "", || run_fleet(&cfg))?;
            let findings = tracer.span("health::health_monitor+finish", "health", "", || {
                let mut mon = report.health_monitor();
                mon.finish().len()
            });
            Ok::<_, efex_fleet::FleetError>((report, findings))
        });
        let dt = t0.elapsed().as_secs_f64();
        tally.attempted += 1;
        match result {
            Ok((report, findings)) => {
                tracer.work("fleet::run_fleet", report.deliveries());
                tracer.work("health::health_monitor+finish", findings as u64);
                tally.ops.push(OpRecord {
                    busy: dt,
                    latency: Some(dt),
                    kind: 0,
                    host_speed: 0.0,
                    units: report.tenants.len() as f64,
                    roundtrips: report.deliveries() as f64,
                    sim_us: report.total_micros,
                });
                if findings > 0 {
                    tally.fail(format!(
                        "batch {:#x}: {findings} health findings",
                        cfg.base_seed
                    ));
                }
            }
            Err(e) => tally.fail(format!("batch {:#x}: {e}", cfg.base_seed)),
        }
    }
}

/// Why a migration failed.
#[derive(Debug)]
pub enum MigrateError {
    /// The encoded checkpoint did not decode.
    Decode(SnapError),
    /// The receiver refused the checkpoint (including a digest mismatch
    /// after restore).
    Restore(CoreError),
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::Decode(e) => write!(f, "decode: {e}"),
            MigrateError::Restore(e) => write!(f, "restore: {e}"),
        }
    }
}

/// Moves `from`'s state into `to`: capture, encode, decode, restore.
/// `tamper` sees the encoded bytes before they are decoded (the self-test
/// flips one). Returns the encoded size.
///
/// # Errors
///
/// A typed decode or restore failure.
pub fn migrate(
    tracer: &Tracer,
    from: &mut System,
    to: &mut System,
    tamper: impl FnOnce(&mut Vec<u8>),
) -> Result<usize, MigrateError> {
    let snap = tracer.span("core::System::snapshot", "snap", "", || from.snapshot());
    let mut bytes = tracer.span("core::SystemSnapshot::to_bytes", "snap", "", || {
        snap.to_bytes()
    });
    tracer.work("core::SystemSnapshot::to_bytes", bytes.len() as u64);
    tamper(&mut bytes);
    let back = tracer
        .span("core::SystemSnapshot::from_bytes", "snap", "", || {
            SystemSnapshot::from_bytes(&bytes)
        })
        .map_err(MigrateError::Decode)?;
    tracer.work("core::SystemSnapshot::from_bytes", bytes.len() as u64);
    tracer
        .span("core::System::restore", "snap", "", || to.restore(&back))
        .map_err(MigrateError::Restore)?;
    Ok(bytes.len())
}

/// `checkpoint-migrate`: one fast-user/write-protect guest run passed back
/// and forth between two booted systems. Each operation runs a seeded
/// stride of about [`CHECKPOINT_STRIDE`] instructions on the current
/// system, then migrates it to the other. When the run exits, it must end
/// with the committed counts of an uninterrupted run; the guest then
/// rewinds to its start (an untimed restore of the checkpoint taken at
/// set-up) and runs again, so the loop allocates no machines.
pub struct Migrate {
    sys: [System; 2],
    current: usize,
    want: RowRef,
    stride: u64,
    start: SystemSnapshot,
    flip: Option<usize>,
}

impl Migrate {
    /// Boots both systems, starts the guest on the first and checkpoints
    /// its start.
    ///
    /// # Errors
    ///
    /// Boot failures.
    pub fn setup(ctx: &Ctx, reference: &[RowRef; rows::MENU]) -> Result<Migrate, String> {
        let want = pick(ctx, reference);
        let (a, start) = start_row(ctx, WRITE_PROTECT, &want)?;
        // The receiver only needs a booted machine of the same path.
        let row = &ROWS[WRITE_PROTECT];
        let b = ctx
            .tracer
            .span("core::System::build", "core", row.name, || {
                System::builder().delivery(row.path).build()
            })
            .map_err(|e| format!("boot: {e}"))?;
        Ok(Migrate {
            sys: [a, b],
            current: 0,
            want,
            stride: match ctx.scale {
                Scale::Tiny => 400,
                Scale::Full => CHECKPOINT_STRIDE,
            },
            start,
            flip: None,
        })
    }

    /// Flips one bit of byte `at` (modulo the length) of the next encoded
    /// checkpoint before it is decoded: the self-test's corruption check.
    pub fn corrupt_next_checkpoint(&mut self, at: usize) {
        self.flip = Some(at);
    }

    fn rewind(&mut self, ctx: &Ctx, tally: &mut Tally) {
        match rewind(ctx, &mut self.sys[0], &self.start) {
            Ok(()) => self.current = 0,
            Err(e) => tally.fail(e),
        }
    }
}

impl Driver for Migrate {
    fn step(&mut self, ctx: &Ctx, tally: &mut Tally) {
        let stride = self.stride * 3 / 4 + ctx.rng.below(self.stride / 2 + 1);
        let row = &ROWS[WRITE_PROTECT];
        let want = self.want;
        let ipr = want.instructions_per_roundtrip();
        let flip = self.flip.take();
        let (cur, other) = if self.current == 0 {
            let [a, b] = &mut self.sys;
            (a, b)
        } else {
            let [a, b] = &mut self.sys;
            (b, a)
        };
        let tracer = &ctx.tracer;
        let m = cur.kernel().machine();
        let (i0, c0) = (m.instructions_retired(), m.cycles());
        let t0 = Instant::now();
        let mut t1 = t0;
        let result = tracer.span("hostbench::checkpoint", "hostbench", "", || {
            let out = tracer.span("simos::Kernel::run_user", "simos", "resume", || {
                cur.kernel_mut().run_user(stride)
            });
            let m = cur.kernel().machine();
            tracer.work("simos::Kernel::run_user", m.instructions_retired() - i0);
            t1 = Instant::now();
            match out {
                Ok(RunOutcome::StepLimit) => migrate(tracer, cur, other, |bytes| {
                    if let Some(at) = flip {
                        let at = at % bytes.len();
                        bytes[at] ^= 1;
                    }
                })
                .map(Some)
                .map_err(|e| e.to_string()),
                Ok(out) => rows::check(row, &want, cur, &out).map(|()| None),
                Err(e) => Err(format!("{}: {e}", row.name)),
            }
        });
        let t2 = Instant::now();
        let m = cur.kernel().machine();
        let (di, dc) = (m.instructions_retired() - i0, m.cycles() - c0);
        tally.attempted += 1;
        let mut op = OpRecord {
            busy: (t2 - t0).as_secs_f64(),
            roundtrips: di as f64 / ipr,
            sim_us: dc as f64 / CLOCK_MHZ,
            ..OpRecord::default()
        };
        match result {
            Ok(Some(_bytes)) => {
                op.latency = Some((t2 - t1).as_secs_f64());
                op.units = 1.0;
                self.current ^= 1;
            }
            Ok(None) => self.rewind(ctx, tally),
            Err(e) => {
                tally.fail(e);
                self.rewind(ctx, tally);
            }
        }
        tally.ops.push(op);
    }
}
