//! The traced run: per-layer host time, derived from spans.
//!
//! A traced run sets the workload up and runs it for the requested time,
//! recording spans for alternate blocks of [`BLOCK`] operations and none
//! for the blocks between. Comparing the two kinds of block gives
//! `trace.overhead_share` on the same inputs, the same heap and the same
//! stretch of host time. A fixed-size probe then calls every layer the
//! workload does not reach, so every per-layer metric is present on every
//! workload.
//!
//! Every per-layer metric is computed from the recorded spans (host time)
//! or from the probe's simulated counts (which repeat exactly).

use crate::rows::{self, ROWS, WRITE_PROTECT};
use crate::span::{self, Span};
use crate::workloads::{self, Tally};
use crate::{quantile, Config, Ctx, Report, Scale};
use efex_core::{DeliveryPath, ExceptionKind, HostProcess, System};
use efex_fleet::{plan, run_fleet, run_tenant, FleetConfig, Suite};
use efex_mips::machine::{ExecEngine, Machine, MachineConfig};
use efex_simos::kernel::KernelConfig;
use efex_simos::{Kernel, RunOutcome};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Repetitions of each single-call probe (`Machine::with_config`, boot,
/// builders); the metric is their median.
const REPEAT: usize = 7;
/// Round trips per row in the probe's guest runs.
const PROBE_ROUNDTRIPS: u32 = 5000;
/// Tenants in the probe's fleet batch.
const PROBE_TENANTS: u32 = 10;
/// Seeds per app suite in the probe.
const PROBE_SEEDS: u64 = 3;
/// Guest instructions between checkpoints in the probe's migration.
const PROBE_STRIDE: u64 = 20_000;

/// The span name of guest execution under the superblock engine (kept apart
/// from the default engine's `run_user` spans).
const RUN_SUPERBLOCK: &str = "simos::Kernel::run_user[superblock]";
const RUN_USER: &str = "simos::Kernel::run_user";

/// Simulated counts from the probe's fixed-size runs.
#[derive(Debug, Default)]
struct ProbeCounts {
    /// Per row: (instructions, exceptions, cycles) of a complete run.
    rows: Vec<(u64, u64, u64)>,
    /// Round trips each probe row ran.
    roundtrips: u32,
    decode: (u64, u64),
    superblock: (u64, u64, u64),
    /// Health findings over every evaluated batch.
    findings: u64,
}

/// Operations per traced or untraced block: a whole number of round-robin
/// passes over both guest workloads' rows (3 and 4).
const BLOCK: usize = 12;

/// Runs `cfg` traced and reports every per-layer metric.
pub fn traced(cfg: &Config) -> Report {
    let mut report = Report::default();
    let ctx = Ctx::new(cfg.seed, cfg.scale, true);
    let mut overhead = 0.0;
    match crate::setup(cfg.workload, &ctx) {
        Ok((mut driver, _)) => {
            let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
            let mut tally = Tally::default();
            let mut busy = [(0.0, 0usize); 2];
            while Instant::now() < deadline {
                let on = (tally.attempted as usize / BLOCK).is_multiple_of(2);
                ctx.tracer.set_enabled(on);
                let first = tally.ops.len();
                driver.step(&ctx, &mut tally);
                for op in &tally.ops[first..] {
                    busy[usize::from(on)].0 += op.busy;
                    busy[usize::from(on)].1 += 1;
                }
            }
            ctx.tracer.set_enabled(true);
            let mean = |(t, n): (f64, usize)| t / n as f64;
            overhead = mean(busy[1]) / mean(busy[0]) - 1.0;
            report.absorb(&tally);
        }
        Err(e) => {
            report.attempted += 1;
            report.failed += 1;
            report.errors.push(e);
        }
    }

    let mut counts = ProbeCounts::default();
    report.attempted += 1;
    if let Err(e) = probe(&ctx, &mut counts) {
        report.failed += 1;
        report.errors.push(format!("probe: {e}"));
    }

    let spans = ctx.tracer.spans();
    write_spans(cfg, &spans);
    derive(&mut report, &spans, &counts, overhead);
    report
}

/// Writes the spans as JSON lines under `out/` in the benchmark's directory.
fn write_spans(cfg: &Config, spans: &[Span]) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, span::to_jsonl(spans)));
    if let Err(e) = written {
        eprintln!("spans: cannot write {}: {e}", path.display());
    }
}

/// Calls every layer at a fixed size, under spans.
fn probe(ctx: &Ctx, counts: &mut ProbeCounts) -> Result<(), String> {
    let t = &ctx.tracer;
    let tiny = ctx.scale == Scale::Tiny;
    let repeat = if tiny { 2 } else { REPEAT };
    let roundtrips = if tiny { 50 } else { PROBE_ROUNDTRIPS };
    counts.roundtrips = roundtrips;
    let seeds = if tiny { 1 } else { PROBE_SEEDS };
    let err = |e: &dyn std::fmt::Display| e.to_string();

    t.span("hostbench::probe_construct", "hostbench", "", || {
        for _ in 0..repeat {
            let m = t.span("mips::Machine::with_config", "mips", "", || {
                Machine::with_config(
                    efex_simos::layout::DEFAULT_PHYS_BYTES,
                    MachineConfig::default(),
                )
            });
            drop(m);
            let k = t.span("simos::Kernel::boot", "simos", "", || {
                Kernel::boot(KernelConfig::default())
            });
            drop(k.map_err(|e| err(&e))?);
            let h = t.span("core::HostProcess::build", "core", "", || {
                HostProcess::builder().build()
            });
            drop(h.map_err(|e| err(&e))?);
            let mut sys = t
                .span("core::System::build", "core", "probe", || {
                    System::builder().delivery(DeliveryPath::FastUser).build()
                })
                .map_err(|e| err(&e))?;
            t.span("core::System::measure_null_roundtrip", "core", "", || {
                sys.measure_null_roundtrip(ExceptionKind::Breakpoint)
            })
            .map_err(|e| err(&e))?;
        }
        Ok::<_, String>(())
    })?;

    // Every row to completion, under the default machine configuration
    // (the one the workloads run) and under the superblock engine.
    for (superblock, name) in [(false, RUN_USER), (true, RUN_SUPERBLOCK)] {
        for row in &ROWS {
            let cfg = if superblock {
                MachineConfig::default().engine(ExecEngine::Superblock)
            } else {
                MachineConfig::default()
            };
            let (out, sys) = t.span("hostbench::probe_row", "hostbench", row.name, || {
                let mut sys = rows::boot(row, roundtrips, cfg, t)?;
                let out = t.span(name, "simos", row.name, || {
                    sys.kernel_mut().run_user(u64::MAX)
                });
                Ok::<_, String>((out, sys))
            })?;
            let m = sys.kernel().machine();
            t.work(name, m.instructions_retired());
            if out.map_err(|e| err(&e))? != RunOutcome::Exited(0) {
                return Err(format!("{}: probe run did not exit 0", row.name));
            }
            if !superblock {
                counts
                    .rows
                    .push((m.instructions_retired(), m.exceptions_taken(), m.cycles()));
                let (h, mi) = m.decode_cache_stats();
                counts.decode.0 += h;
                counts.decode.1 += mi;
            } else {
                let (h, mi, inv) = m.superblock_stats();
                counts.superblock.0 += h;
                counts.superblock.1 += mi;
                counts.superblock.2 += inv;
            }
        }
    }

    // The app runtimes, health on and off, and the fleet around them.
    t.span("hostbench::probe_apps", "hostbench", "", || {
        for suite in Suite::ALL {
            for s in 0..seeds {
                let seed = ctx.rng.next_u64();
                let run = t.span(tenant_span(suite), "apps", suite.as_str(), || {
                    tenant_workload(suite, seed)
                })?;
                let deliveries: u64 = run
                    .stats
                    .counters
                    .iter()
                    .filter(|(n, _)| n.contains("fault"))
                    .map(|&(_, v)| v)
                    .sum();
                t.work(tenant_span(suite), deliveries);
                let spec = efex_fleet::TenantSpec {
                    id: s as u32,
                    suite,
                    seed,
                    machine: MachineConfig::default(),
                };
                for (health, detail) in [(true, "health-on"), (false, "health-off")] {
                    t.span("fleet::run_tenant", "fleet", detail, || {
                        run_tenant(spec, false, health)
                    })
                    .map_err(|e| err(&e))?;
                }
            }
        }
        Ok::<_, String>(())
    })?;

    t.span("hostbench::probe_fleet", "hostbench", "", || {
        let base = FleetConfig {
            threads: workloads::FLEET_THREADS,
            base_seed: ctx.rng.next_u64(),
            ..FleetConfig::default()
        };
        for _ in 0..repeat {
            let empty = FleetConfig { tenants: 0, ..base };
            t.span("fleet::run_fleet", "fleet", "empty", || run_fleet(&empty))
                .map_err(|e| err(&e))?;
        }
        let batch = FleetConfig {
            tenants: if tiny { 5 } else { PROBE_TENANTS },
            ..base
        };
        for spec in plan(&batch) {
            t.span("fleet::run_tenant", "fleet", "serial", || {
                run_tenant(spec, false, true)
            })
            .map_err(|e| err(&e))?;
        }
        let report = t
            .span("fleet::run_fleet", "fleet", "batch", || run_fleet(&batch))
            .map_err(|e| err(&e))?;
        counts.findings += t.span("health::health_monitor+finish", "health", "", || {
            report.health_monitor().finish().len() as u64
        });
        Ok::<_, String>(())
    })?;

    // A short migrated run of the checkpoint workload's guest.
    t.span("hostbench::probe_migrate", "hostbench", "", || {
        let row = &ROWS[WRITE_PROTECT];
        let mut a = rows::boot(row, roundtrips, MachineConfig::default(), t)?;
        let mut b = System::builder()
            .delivery(row.path)
            .build()
            .map_err(|e| err(&e))?;
        let stride = if tiny { 400 } else { PROBE_STRIDE };
        loop {
            let before = a.kernel().machine().instructions_retired();
            let out = t
                .span(RUN_USER, "simos", "resume", || {
                    a.kernel_mut().run_user(stride)
                })
                .map_err(|e| err(&e))?;
            t.work(
                RUN_USER,
                a.kernel().machine().instructions_retired() - before,
            );
            if out != RunOutcome::StepLimit {
                // The migrated run must end exactly where the uninterrupted
                // probe run of the same guest did.
                let m = a.kernel().machine();
                let got = (m.instructions_retired(), m.exceptions_taken(), m.cycles());
                let want = counts.rows.get(WRITE_PROTECT).copied();
                return match (out, want) {
                    (RunOutcome::Exited(0), Some(want)) if got == want => Ok(()),
                    _ => Err(format!("migrated run ended {out:?} {got:?}, want {want:?}")),
                };
            }
            workloads::migrate(t, &mut a, &mut b, |_| {}).map_err(|e| err(&e))?;
            std::mem::swap(&mut a, &mut b);
        }
    })
}

fn tenant_span(suite: Suite) -> &'static str {
    match suite {
        Suite::Gc => "gc::workloads::tenant_workload",
        Suite::Dsm => "dsm::workloads::tenant_workload",
        Suite::Pstore => "pstore::workloads::tenant_workload",
        Suite::Lazydata => "lazydata::tenant_workload",
        Suite::Watch => "watch::tenant_workload",
    }
}

fn tenant_workload(suite: Suite, seed: u64) -> Result<efex_core::WorkloadRun, String> {
    let e = |e: &dyn std::fmt::Display| format!("{suite}: {e}");
    match suite {
        Suite::Gc => efex_gc::workloads::tenant_workload(seed).map_err(|x| e(&x)),
        Suite::Dsm => efex_dsm::workloads::tenant_workload(seed).map_err(|x| e(&x)),
        Suite::Pstore => efex_pstore::workloads::tenant_workload(seed).map_err(|x| e(&x)),
        Suite::Lazydata => efex_lazydata::tenant_workload(seed).map_err(|x| e(&x)),
        Suite::Watch => efex_watch::tenant_workload(seed).map_err(|x| e(&x)),
    }
}

/// Span queries.
struct Spans<'a>(&'a [Span]);

impl Spans<'_> {
    fn of<'s>(&'s self, name: &'s str, detail: Option<&'s str>) -> impl Iterator<Item = &'s Span> {
        self.0
            .iter()
            .filter(move |s| s.name == name && detail.is_none_or(|d| s.detail == d))
    }

    /// Median duration in ms.
    fn p50_ms(&self, name: &str, detail: Option<&str>) -> f64 {
        let v: Vec<f64> = self.of(name, detail).map(|s| s.ns() as f64 / 1e6).collect();
        quantile(&v, 0.5)
    }

    /// (Σ ns, Σ work).
    fn sums(&self, name: &str, detail: Option<&str>) -> (f64, f64) {
        self.of(name, detail).fold((0.0, 0.0), |(t, w), s| {
            (t + s.ns() as f64, w + s.work as f64)
        })
    }

    fn count(&self, name: &str, detail: Option<&str>) -> usize {
        self.of(name, detail).count()
    }
}

/// The layers self time is reported for. App suites share `apps`.
const LAYERS: [&str; 9] = [
    "hostbench",
    "bench",
    "mips",
    "simos",
    "core",
    "apps",
    "fleet",
    "health",
    "snap",
];

fn derive(report: &mut Report, spans: &[Span], counts: &ProbeCounts, overhead: f64) {
    let q = Spans(spans);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // efex-mips
    let (run_ns, run_instr) = q.sums(RUN_USER, None);
    let (resume_ns, resume_instr) = q.sums(RUN_USER, Some("resume"));
    let guest_mips = ratio(run_instr - resume_instr, run_ns - resume_ns) * 1e3;
    report.push("mips.guest_mips", guest_mips, "Minstr/s");
    let (dh, dm) = counts.decode;
    report.push(
        "mips.decode_hit_ratio",
        ratio(dh as f64, (dh + dm) as f64),
        "ratio",
    );
    let (sh, sm, si) = counts.superblock;
    report.push(
        "mips.superblock_hit_ratio",
        ratio(sh as f64, (sh + sm) as f64),
        "ratio",
    );
    report.push("mips.superblock_invalidations", si as f64, "count");
    for (kernel, name) in [
        (false, "mips.superblock_speedup_user"),
        (true, "mips.superblock_speedup_kernel"),
    ] {
        let (mut interp, mut sb) = (0.0, 0.0);
        for row in ROWS.iter().filter(|r| r.kernel_routed == kernel) {
            // Probe runs only: both engines ran the same guest.
            interp += probe_run_ns(spans, RUN_USER, row.name);
            sb += q.sums(RUN_SUPERBLOCK, Some(row.name)).0;
        }
        report.push(name, ratio(interp, sb), "x");
    }
    let (ti, te, rt) = counts
        .rows
        .iter()
        .fold((0, 0, 0.0), |(i, e, r), &(ri, re, _)| {
            (i + ri, e + re, r + f64::from(counts.roundtrips))
        });
    report.push(
        "mips.instructions_per_roundtrip",
        ratio(ti as f64, rt),
        "count",
    );
    report.push(
        "mips.exceptions_per_roundtrip",
        ratio(te as f64, rt),
        "count",
    );
    report.push(
        "mips.machine_new_ms",
        q.p50_ms("mips::Machine::with_config", None),
        "ms",
    );

    // efex-simos
    report.push("simos.boot_ms", q.p50_ms("simos::Kernel::boot", None), "ms");
    let ipr = |i: usize| {
        counts.rows.get(i).map_or(0.0, |&(instr, _, _)| {
            instr as f64 / f64::from(counts.roundtrips)
        })
    };
    let (mut k_ns, mut k_rt) = (0.0, 0.0);
    let mut per_row = Vec::new();
    for (i, row) in ROWS.iter().enumerate() {
        let (ns, instr) = q.sums(RUN_USER, Some(row.name));
        let roundtrips = ratio(instr, ipr(i));
        if row.kernel_routed {
            k_ns += ns;
            k_rt += roundtrips;
        }
        per_row.push(ratio(ns, roundtrips) / 1e3);
    }
    report.push(
        "simos.kernel_routed_us_per_roundtrip",
        ratio(k_ns, k_rt) / 1e3,
        "us",
    );
    for (i, row) in ROWS.iter().enumerate() {
        report.push(&format!("row.{}.host_us", row.name), per_row[i], "us");
    }
    for (i, row) in ROWS.iter().enumerate() {
        let cycles = counts.rows.get(i).map_or(0, |r| r.2);
        report.push(
            &format!("row.{}.sim_cycles", row.name),
            cycles as f64 / f64::from(counts.roundtrips),
            "cycles",
        );
    }

    // efex-core
    report.push(
        "core.host_build_ms",
        q.p50_ms("core::HostProcess::build", None),
        "ms",
    );
    report.push(
        "core.system_build_ms",
        q.p50_ms("core::System::build", None),
        "ms",
    );
    report.push(
        "core.probe_roundtrip_ms",
        q.p50_ms("core::System::measure_null_roundtrip", None),
        "ms",
    );

    // app runtimes
    let (mut app_ns, mut app_deliveries) = (0.0, 0.0);
    for suite in Suite::ALL {
        let name = tenant_span(suite);
        report.push(
            &format!("apps.{suite}.tenant_ms"),
            q.p50_ms(name, None),
            "ms",
        );
        let (ns, deliveries) = q.sums(name, None);
        app_ns += ns;
        app_deliveries += deliveries;
        report.push(
            &format!("apps.{suite}.deliveries"),
            ratio(deliveries, q.count(name, None) as f64),
            "count",
        );
    }
    report.push(
        "apps.host_us_per_delivery",
        ratio(app_ns, app_deliveries) / 1e3,
        "us",
    );

    // efex-fleet
    let serial = q.sums("fleet::run_tenant", Some("serial")).0;
    let batch = q.sums("fleet::run_fleet", Some("batch")).0;
    report.push(
        "fleet.parallel_efficiency",
        ratio(serial, batch * workloads::FLEET_THREADS as f64),
        "ratio",
    );
    report.push(
        "fleet.batch_fixed_ms",
        q.p50_ms("fleet::run_fleet", Some("empty")),
        "ms",
    );

    // efex-health
    let on = q.sums("fleet::run_tenant", Some("health-on")).0;
    let off = q.sums("fleet::run_tenant", Some("health-off")).0;
    report.push("health.probe_share", ratio(on - off, on), "ratio");
    report.push(
        "health.monitor_ms",
        q.p50_ms("health::health_monitor+finish", None),
        "ms",
    );
    let workload_findings = q.sums("health::health_monitor+finish", None).1;
    report.push(
        "health.findings",
        counts.findings as f64 + workload_findings,
        "count",
    );

    // efex-snap and the snapshot modules
    report.push(
        "snap.capture_ms",
        q.p50_ms("core::System::snapshot", None),
        "ms",
    );
    report.push(
        "snap.restore_ms",
        q.p50_ms("core::System::restore", None),
        "ms",
    );
    let (enc_ns, enc_bytes) = q.sums("core::SystemSnapshot::to_bytes", None);
    let (dec_ns, dec_bytes) = q.sums("core::SystemSnapshot::from_bytes", None);
    report.push(
        "snap.encode_mb_per_s",
        ratio(enc_bytes, enc_ns) * 1e3,
        "MB/s",
    );
    report.push(
        "snap.decode_mb_per_s",
        ratio(dec_bytes, dec_ns) * 1e3,
        "MB/s",
    );
    report.push(
        "snap.bytes_per_checkpoint",
        ratio(
            enc_bytes,
            q.count("core::SystemSnapshot::to_bytes", None) as f64,
        ),
        "bytes",
    );
    let resume_mips = ratio(resume_instr, resume_ns) * 1e3;
    report.push("snap.resume_mips", resume_mips, "Minstr/s");
    let (wp_ns, wp_instr) = q.sums(RUN_USER, Some(ROWS[WRITE_PROTECT].name));
    report.push(
        "snap.resume_ratio",
        ratio(resume_mips, ratio(wp_instr, wp_ns) * 1e3),
        "ratio",
    );

    // efex-trace: the cost of recording these spans
    report.push("trace.overhead_share", overhead, "ratio");
    report.push("trace.spans", spans.len() as f64, "count");

    // Self time per layer, as a share of all traced operations.
    let own = span::self_ns(spans);
    let total: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.ns() as f64)
        .sum();
    for layer in LAYERS {
        let t: f64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.layer == layer)
            .map(|(_, &ns)| ns as f64)
            .sum();
        report.push(&format!("self_share.{layer}"), ratio(t, total), "ratio");
    }
}

/// Host ns of the probe's default-engine run of `row` (the one inside a
/// `hostbench::probe_row` span).
fn probe_run_ns(spans: &[Span], name: &str, row: &str) -> f64 {
    spans
        .iter()
        .filter(|s| {
            s.name == name
                && s.detail == row
                && s.parent
                    .is_some_and(|p| spans[p].name == "hostbench::probe_row")
        })
        .map(|s| s.ns() as f64)
        .sum()
}
