//! Multi-tenant fleet runner: determinism, health and recovery gates.
//!
//! ```text
//! fleet --tenants 64 --threads 4        one run, aggregate summary
//! fleet ... --check-determinism         re-run on one thread; the fleet
//!                                       fingerprints must match bit-exactly
//! fleet ... --engine interpreter        run every tenant under the given
//!                                       execution engine (superblock is
//!                                       the default; results identical)
//! fleet ... --chrome <path>             per-tenant Chrome-trace rows
//! fleet ... --seed <n>                  override the fleet base seed
//! fleet ... --health                    evaluate the fleet invariant set;
//!                                       nonzero exit on any finding, and
//!                                       the health-on/off fingerprints
//!                                       must match (health observes, it
//!                                       never perturbs)
//! fleet ... --metrics-out <path>        write the health registry —
//!                                       Prometheus text for `.prom`,
//!                                       JSONL for `.jsonl`
//! fleet ... --migrate                   live-migration drill: checkpoint
//!                                       every tenant mid-suite, resume it
//!                                       on a different worker shard; the
//!                                       aggregate fingerprint must match
//!                                       the uninterrupted run
//! fleet ... --kill-shard <n>            crash-recovery drill: kill shard
//!                                       n mid-run, restore its tenants
//!                                       from their last checkpoints on the
//!                                       survivors; fingerprint must match
//! ```
//!
//! Simulated results (stats, cycle-derived times, histograms) are
//! deterministic and gated. Wall time appears only in the summary line and
//! is never gated; the benchmark under `hostbench/` records host time (guest
//! Mips per engine, block-cache hit ratio, fleet parallel efficiency) — see
//! `hostbench/README.md`.

use efex_fleet::{run_fleet, run_fleet_kill_shard, run_fleet_migrate, FleetConfig, FleetReport};
use efex_mips::cycles::CLOCK_MHZ;
use efex_mips::machine::ExecEngine;
use std::process::ExitCode;

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn print_summary(r: &FleetReport) {
    println!(
        "fleet: {} tenants on {} thread(s): simulated {:.1} ms, wall {:.0} ms",
        r.tenants.len(),
        r.threads,
        r.total_micros / 1000.0,
        r.wall_seconds * 1000.0,
    );
    let us = |v: Option<u64>| v.unwrap_or(0) as f64 / 1000.0;
    println!(
        "fleet: {} deliveries ({:.0}/wall-sec), tenant latency p50={:.0}us p90={:.0}us p99={:.0}us",
        r.deliveries(),
        r.deliveries_per_wall_sec(),
        us(r.latency.p50()),
        us(r.latency.p90()),
        us(r.latency.p99()),
    );
}

fn check_determinism(cfg: &FleetConfig) -> Result<bool, efex_fleet::FleetError> {
    let many = run_fleet(cfg)?;
    let one = run_fleet(&FleetConfig { threads: 1, ..*cfg })?;
    if many.fingerprint() == one.fingerprint() {
        println!(
            "fleet: determinism ok — threads={} and threads=1 fingerprints identical",
            cfg.threads
        );
        Ok(true)
    } else {
        eprintln!(
            "fleet: DETERMINISM FAILURE — threads={} and threads=1 disagree",
            cfg.threads
        );
        eprintln!("--- threads={} ---\n{}", cfg.threads, many.fingerprint());
        eprintln!("--- threads=1 ---\n{}", one.fingerprint());
        Ok(false)
    }
}

/// The `--health` exhibit: evaluate the fleet invariant set, print every
/// finding, and gate that the health plane changed nothing deterministic.
fn run_health(
    report: &FleetReport,
    cfg: &FleetConfig,
    metrics_out: Option<&str>,
) -> Result<bool, String> {
    let mut ok = true;

    // Re-run without the health plane: health must add zero simulated
    // cycles, so the fingerprints must match.
    let bare = run_fleet(&FleetConfig {
        health: false,
        trace: false,
        ..*cfg
    })
    .map_err(|e| e.to_string())?;
    if report.fingerprint() == bare.fingerprint() {
        println!("fleet: health plane is result-transparent (fingerprints identical on/off)");
    } else {
        eprintln!("fleet: HEALTH PLANE CHANGED RESULTS — on/off fingerprints disagree");
        ok = false;
    }

    let mut mon = report.health_monitor();
    let findings = mon.finish().to_vec();
    for f in &findings {
        eprintln!("{f}");
    }
    println!(
        "fleet: health: {} invariants, {} evaluations, {} findings",
        mon.invariants().len(),
        mon.evaluations(),
        findings.len(),
    );
    ok &= findings.is_empty();

    if let Some(path) = metrics_out {
        let text = if path.ends_with(".jsonl") {
            efex_health::to_jsonl(&mon)
        } else if path.ends_with(".prom") {
            efex_health::to_prometheus(&mon)
        } else {
            return Err(format!(
                "--metrics-out {path}: extension must be .prom or .jsonl"
            ));
        };
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        println!("fleet: wrote health metrics to {path}");
    }
    Ok(ok)
}

/// Live-migration drill: checkpoint every tenant mid-suite on its home
/// shard, resume it on a different one, and demand the aggregate
/// fingerprint match an uninterrupted run of the same legged fleet.
fn migrate_drill(cfg: &FleetConfig) -> Result<bool, efex_fleet::FleetError> {
    let legged = FleetConfig {
        legs: cfg.legs.max(2),
        ..*cfg
    };
    let baseline = run_fleet(&legged)?;
    let migrated = run_fleet_migrate(&legged)?;
    let ok = baseline.fingerprint() == migrated.fingerprint();
    println!(
        "fleet: migration drill: {} tenants checkpointed and resumed on a \
         different shard: fingerprints {}",
        migrated.migrations,
        if ok { "MATCH" } else { "DIFFER" },
    );
    Ok(ok)
}

/// Crash-recovery drill: kill one worker shard mid-run and restore its
/// tenants from their last serialized checkpoints on the survivors.
fn kill_shard_drill(cfg: &FleetConfig, dead: usize) -> Result<bool, efex_fleet::FleetError> {
    let legged = FleetConfig {
        legs: cfg.legs.max(2),
        ..*cfg
    };
    let baseline = run_fleet(&legged)?;
    let drilled = run_fleet_kill_shard(&legged, dead)?;
    let ok = baseline.fingerprint() == drilled.fingerprint() && drilled.recoveries > 0;
    println!(
        "fleet: kill-shard drill: shard {dead} killed, {} tenant(s) restored \
         from checkpoint as degraded recoveries: fingerprints {}",
        drilled.recoveries,
        if ok { "MATCH" } else { "DIFFER" },
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: fleet [--tenants <n>] [--threads <n>] [--seed <n>] \
             [--engine interpreter|superblock] [--check-determinism] [--chrome <path>] \
             [--health] [--metrics-out <path>] [--migrate] [--kill-shard <n>]"
        );
        return ExitCode::SUCCESS;
    }

    let mut cfg = FleetConfig {
        tenants: 16,
        threads: 4,
        ..FleetConfig::default()
    };
    let mut do_check = false;
    let mut do_health = false;
    let mut do_migrate = false;
    let mut kill_shard: Option<usize> = None;
    let mut chrome_path: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut take = |flag: &str| {
            it.next()
                .as_deref()
                .and_then(parse_u64)
                .ok_or_else(|| format!("fleet: {flag} needs a numeric value"))
        };
        match arg.as_str() {
            "--tenants" => match take("--tenants") {
                Ok(v) => cfg.tenants = v as u32,
                Err(e) => return fail(&e),
            },
            "--threads" => match take("--threads") {
                Ok(v) => cfg.threads = v as usize,
                Err(e) => return fail(&e),
            },
            "--seed" => match take("--seed") {
                Ok(v) => cfg.base_seed = v,
                Err(e) => return fail(&e),
            },
            "--migrate" => do_migrate = true,
            "--kill-shard" => match take("--kill-shard") {
                Ok(v) => kill_shard = Some(v as usize),
                Err(e) => return fail(&e),
            },
            "--check-determinism" => do_check = true,
            "--health" => do_health = true,
            "--engine" => match it.next().as_deref().and_then(ExecEngine::parse) {
                Some(engine) => cfg.machine = cfg.machine.engine(engine),
                None => return fail("fleet: --engine needs 'interpreter' or 'superblock'"),
            },
            "--chrome" => match it.next() {
                Some(p) => chrome_path = Some(p),
                None => return fail("fleet: --chrome needs a file path"),
            },
            "--metrics-out" => match it.next() {
                Some(p) => metrics_out = Some(p),
                None => return fail("fleet: --metrics-out needs a file path"),
            },
            other => return fail(&format!("fleet: unknown argument {other}")),
        }
    }

    cfg.trace = chrome_path.is_some();
    let mut ok = true;

    let report = match run_fleet(&cfg) {
        Ok(r) => r,
        Err(e) => return fail(&format!("fleet: {e}")),
    };
    print_summary(&report);

    if let Some(path) = &chrome_path {
        if let Err(e) = std::fs::write(path, report.chrome_trace(CLOCK_MHZ)) {
            return fail(&format!("fleet: writing {path}: {e}"));
        }
        println!("fleet: wrote per-tenant Chrome trace to {path}");
    }

    if do_health || metrics_out.is_some() {
        match run_health(&report, &cfg, metrics_out.as_deref()) {
            Ok(pass) => ok &= pass,
            Err(e) => return fail(&format!("fleet: {e}")),
        }
    }

    // The remaining modes don't need tracing enabled.
    cfg.trace = false;
    if do_check {
        match check_determinism(&cfg) {
            Ok(pass) => ok &= pass,
            Err(e) => return fail(&format!("fleet: {e}")),
        }
    }
    if do_migrate {
        match migrate_drill(&cfg) {
            Ok(pass) => ok &= pass,
            Err(e) => return fail(&format!("fleet: {e}")),
        }
    }
    if let Some(dead) = kill_shard {
        match kill_shard_drill(&cfg, dead) {
            Ok(pass) => ok &= pass,
            Err(e) => return fail(&format!("fleet: {e}")),
        }
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::FAILURE
}
