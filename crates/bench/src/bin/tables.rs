//! Regenerates every table and figure of the paper on the simulator.
//!
//! ```text
//! tables [--table1] [--table2] [--table3] [--table4] [--table5]
//!        [--fig3] [--fig4] [--ablations] [--dsm] [--health] [--all]
//!        [--trace-json]
//! ```
//!
//! With no arguments, prints everything. Output is paper-value vs measured
//! wherever the paper reports a number. `--trace-json` instead emits one
//! JSON document of exception-lifecycle metrics (per-path, per-class
//! delivery/handler/return cycle histograms) collected from the guest
//! microbenchmarks and a host-level barrier workload.

use efex_bench::suite::GUEST_MATRIX;
use efex_core::{
    DeliveryPath, GuestMem, HandlerAction, HandlerSpec, HostProcess, Prot, Protection, System,
};
use efex_gc::{workloads as gcw, BarrierKind, Gc, GcConfig};
use efex_trace::jsonval::Value;
use efex_trace::{Metrics, Snapshot};
use std::env;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.iter().any(|a| a == "--trace-json") {
        trace_json();
        return;
    }
    let want = |flag: &str| args.is_empty() || args.iter().any(|a| a == flag || a == "--all");

    if want("--table1") {
        table1();
    }
    if want("--table2") {
        table2();
    }
    if want("--table3") {
        table3();
    }
    if want("--table4") {
        table4();
    }
    if want("--table5") {
        table5();
    }
    if want("--fig3") {
        fig3();
    }
    if want("--fig4") {
        fig4();
    }
    if want("--ablations") {
        ablations();
    }
    // The DSM comparison is one of the ablations too.
    if want("--dsm") || want("--ablations") {
        dsm();
    }
    if want("--health") {
        health();
    }
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Runs the Table-2 microbenchmark matrix plus a host-level write-barrier
/// loop on every path, and prints the merged lifecycle metrics as JSON.
fn trace_json() {
    let mut guest = Metrics::new();
    for (path, kind) in GUEST_MATRIX {
        let mut sys = System::builder().delivery(path).build().expect("boot");
        sys.measure_null_roundtrip(kind).expect("microbenchmark");
        guest.merge(sys.trace_metrics());
    }

    let mut host_metrics = Metrics::new();
    let mut host_stats = Vec::new();
    for path in [
        DeliveryPath::UnixSignals,
        DeliveryPath::FastUser,
        DeliveryPath::HardwareVectored,
    ] {
        let mut h = HostProcess::builder().delivery(path).build().expect("boot");
        let base = h.alloc_region(4096, Prot::ReadWrite).expect("region");
        h.store_u32(base, 0).expect("touch");
        h.set_handler(HandlerSpec::new(|ctx, info| {
            ctx.protect(Protection::region(info.vaddr & !0xfff, 4096).read_write())
                .expect("amplify");
            HandlerAction::Retry
        }));
        for round in 0..8u32 {
            h.protect(Protection::region(base, 4096).read_only())
                .expect("protect");
            h.store_u32(base + 4 * round, round)
                .expect("faulting store");
        }
        host_metrics.merge(h.trace_metrics());
        host_stats.push(h.stats().snapshot().to_value());
    }

    let doc = Value::object()
        .with("guest", guest.to_value())
        .with("host", host_metrics.to_value())
        .with("host_stats", Value::Arr(host_stats));
    println!("{doc}");
}

fn table1() {
    banner("Table 1: exception delivery on conventional systems (modeled)");
    println!(
        "{:<44} {:>10} {:>10} {:>9} {:>11}",
        "system", "simple us", "wprot us", "ret us", "roundtrip"
    );
    for r in efex_bench::table1() {
        println!(
            "{:<44} {:>10.0} {:>10.0} {:>9.0} {:>11.0}",
            r.system, r.deliver_simple_us, r.deliver_write_prot_us, r.return_us, r.round_trip_us
        );
    }
    println!("anchors from the paper: Ultrix ~80, Mach/UX ~2000, raw Mach 256, SunOS 69 (best)");
}

fn table2() {
    banner("Table 2: fast exceptions vs Ultrix signals (measured on the simulator)");
    let rows = efex_bench::table2().expect("microbenchmarks");
    println!(
        "{:<48} {:>9} {:>11} {:>10} {:>12}",
        "operation", "fast us", "paper fast", "unix us", "paper unix"
    );
    for r in rows {
        let unix = r.unix_us.map_or("-".to_string(), |v| format!("{v:.1}"));
        let punix = r
            .paper_unix_us
            .map_or("-".to_string(), |v| format!("{v:.0}"));
        println!(
            "{:<48} {:>9.1} {:>11.0} {:>10} {:>12}",
            r.operation, r.fast_us, r.paper_fast_us, unix, punix
        );
    }
}

fn table3() {
    banner("Table 3: kernel fast-path handler instruction counts (measured)");
    let rows = efex_bench::table3().expect("profile");
    println!("{:<28} {:>9} {:>7}", "phase", "measured", "paper");
    let (mut m, mut p) = (0, 0);
    for r in rows {
        println!(
            "{:<28} {:>9} {:>7}",
            r.name, r.measured_instructions, r.paper_instructions
        );
        m += r.measured_instructions;
        p += r.paper_instructions;
    }
    println!("{:<28} {:>9} {:>7}", "total", m, p);
    println!("(our handler is smaller because the comm page is addressed via its");
    println!(" unmapped KSEG0 alias, removing the paper's TLB-miss-protection saves)");
}

fn table4() {
    banner("Table 4: generational GC, SIGSEGV+mprotect vs fast exceptions (measured)");
    let rows = efex_bench::table4(efex_bench::Table4Scale::default()).expect("workloads");
    println!(
        "{:<18} {:>12} {:>12} {:>8} {:>9} {:>11}",
        "application", "sigsegv us", "fast us", "improv%", "paper%", "faults"
    );
    for r in rows {
        println!(
            "{:<18} {:>12.0} {:>12.0} {:>7.1}% {:>8.0}% {:>11}",
            r.application,
            r.sigsegv_us,
            r.fast_us,
            r.improvement_pct,
            r.paper_improvement_pct,
            r.faults
        );
    }
}

fn table5() {
    banner("Table 5: break-even exception cost vs software checks (analytic)");
    println!(
        "{:<14} {:>13} {:>22} {:>22}",
        "application", "breakeven us", "fast(18us) beats checks", "ultrix(80us) beats"
    );
    for r in efex_bench::table5() {
        println!(
            "{:<14} {:>13.1} {:>22} {:>22}",
            r.application, r.breakeven_us, r.fast_wins, r.ultrix_wins
        );
    }
}

fn fig3() {
    banner("Figure 3: swizzling checks vs exceptions — breakeven uses per pointer");
    let (ultrix, fast) = efex_bench::figure3_curves();
    println!(
        "{:>8} {:>16} {:>16}",
        "c (cyc)", "ultrix breakeven", "fast breakeven"
    );
    for (u, f) in ultrix.iter().zip(&fast).step_by(3) {
        println!(
            "{:>8.0} {:>16.1} {:>16.1}",
            u.check_cycles, u.breakeven_uses, f.breakeven_uses
        );
    }
    println!("\nmeasured companion points (simulated us for the same workload):");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "u", "checks", "fast exc", "signal exc"
    );
    for m in efex_bench::figure3_measured(&[1, 5, 20, 60]).expect("measure") {
        println!(
            "{:>6} {:>12.0} {:>12.0} {:>12.0}",
            m.uses_per_pointer, m.checks_us, m.fast_exceptions_us, m.signal_exceptions_us
        );
    }
}

fn fig4() {
    banner("Figure 4: eager vs lazy swizzling — breakeven used-fraction (pn = 50)");
    let (ultrix, fast) = efex_bench::figure4_curves();
    println!("{:>9} {:>18} {:>18}", "s (us)", "ultrix frac", "fast frac");
    for (u, f) in ultrix.iter().zip(&fast).step_by(5) {
        println!(
            "{:>9.1} {:>18.2} {:>18.2}",
            u.swizzle_us, u.breakeven_fraction, f.breakeven_fraction
        );
    }
    println!("\nmeasured companion points (fast path, simulated us per traversal):");
    println!("{:>10} {:>12} {:>12}", "pu (of 50)", "eager", "lazy");
    for m in efex_bench::figure4_measured(&[2, 10, 25, 50]).expect("measure") {
        println!(
            "{:>10} {:>12.0} {:>12.0}",
            m.pointers_used, m.eager_us, m.lazy_us
        );
    }
}

/// The health-plane exhibit: a small fleet run under the always-on monitor,
/// with the headline effectiveness metrics and every invariant verdict.
fn health() {
    use efex_fleet::{run_fleet, FleetConfig};

    banner("Extension: health plane — fleet effectiveness invariants (measured)");
    let cfg = FleetConfig {
        tenants: 10,
        threads: 2,
        ..FleetConfig::default()
    };
    let report = run_fleet(&cfg).expect("fleet");
    let mut mon = report.health_monitor();
    let findings = mon.finish().to_vec();
    let reg = mon.registry_ref();
    let g = |name: &str| reg.get("tenant-health", None, name).unwrap_or(0);
    println!(
        "repairs: {} utlb, {} comm-page; degraded deliveries: {}",
        g("utlb_repairs"),
        g("comm_page_repairs"),
        g("degraded_deliveries"),
    );
    println!(
        "trace rings: {} events pushed, {} overwritten",
        g("probe_ring_total_pushed"),
        g("probe_ring_overwritten"),
    );
    if let Some(fp) = &report.fast_path {
        println!(
            "fast path: measured {} instructions vs static bound {} instructions / {} cycles",
            fp.total_measured_instructions, fp.static_instructions, fp.static_cycles,
        );
    }
    println!(
        "invariants: {} checked over {} evaluations -> {} findings",
        mon.invariants().len(),
        mon.evaluations(),
        findings.len(),
    );
    for f in &findings {
        println!("{f}");
    }
}

/// The design-choice ablations DESIGN.md calls out, in simulated cost:
/// eager amplification on/off (Section 3.2.3), kernel subpage emulation
/// (Section 3.2.4) and the GC write barrier's granularity. The DSM
/// extension under each delivery path follows as its own exhibit.
fn ablations() {
    banner("Ablations: eager amplification, subpage emulation, GC barrier granularity (measured)");
    const ROUNDS: u32 = 50;
    println!(
        "eager amplification: {} cycles/fault vs {} without",
        barrier_loop(true, ROUNDS) / u64::from(ROUNDS),
        barrier_loop(false, ROUNDS) / u64::from(ROUNDS),
    );
    let emul = System::builder()
        .delivery(DeliveryPath::FastUser)
        .build()
        .expect("boot")
        .measure_subpage_emulation()
        .expect("emulation");
    println!("subpage kernel emulation: {emul} cycles per store");
    println!(
        "GC barrier granularity (array test): page {:.0} us, subpage {:.0} us, checks {:.0} us",
        gc_barrier_granularity(BarrierKind::PageProtection),
        gc_barrier_granularity(BarrierKind::SubpageProtection),
        gc_barrier_granularity(BarrierKind::SoftwareCheck),
    );
}

/// Simulated cycles for a protect-store-fault-reprotect loop with and
/// without eager amplification.
fn barrier_loop(eager: bool, rounds: u32) -> u64 {
    let mut h = HostProcess::builder()
        .delivery(DeliveryPath::FastUser)
        .eager_amplification(eager)
        .build()
        .expect("host");
    let base = h.alloc_region(4096, Prot::ReadWrite).expect("region");
    h.store_u32(base, 0).expect("touch");
    if eager {
        h.set_handler(HandlerSpec::new(|_, _| HandlerAction::Retry));
    } else {
        h.set_handler(HandlerSpec::new(|ctx, info| {
            ctx.protect(Protection::region(info.vaddr & !0xfff, 4096).read_write())
                .expect("amplify");
            HandlerAction::Retry
        }));
    }
    let start = h.cycles();
    for i in 0..rounds {
        h.protect(Protection::region(base, 4096).read_only())
            .expect("protect");
        h.store_u32(base, i).expect("store");
    }
    h.cycles() - start
}

/// Simulated µs of the GC array workload under a given barrier granularity.
fn gc_barrier_granularity(barrier: BarrierKind) -> f64 {
    let mut gc = Gc::new(GcConfig {
        path: DeliveryPath::FastUser,
        barrier,
        eager_amplification: barrier == BarrierKind::PageProtection,
        heap_bytes: 4 * 1024 * 1024,
        minor_threshold: 16 * 1024,
        ..GcConfig::default()
    })
    .expect("gc");
    gcw::array_test(
        &mut gc,
        gcw::ArrayTestParams {
            array_words: 32 * 1024,
            replacements: 1_500,
            mutator_cycles: 200,
            seed: 5,
        },
    )
    .expect("workload")
    .micros
}

fn dsm() {
    banner("Extension: DSM ping-pong under each delivery path (measured)");
    println!("{:>20} {:>12} {:>8}", "path", "total us", "faults");
    for r in efex_bench::dsm_comparison(40).expect("dsm") {
        println!(
            "{:>20} {:>12.0} {:>8}",
            r.path.to_string(),
            r.total_us,
            r.faults
        );
    }
}
