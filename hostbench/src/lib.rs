//! Host-time benchmark for the efex simulator.
//!
//! One command runs one workload for a fixed time and prints every metric
//! by name with its unit, then a JSON summary line. Simulated results are
//! deterministic and checked on every operation; host times are what this
//! machine took to produce them, counted in reference seconds (see
//! [`hostspeed`]) so that the host's changing speed largely cancels. See
//! `README.md` in this directory for the layer → metric → end-to-end map.

pub mod hostspeed;
pub mod layers;
pub mod reference;
pub mod rows;
pub mod span;
pub mod workloads;

use reference::REFERENCE;
use span::Tracer;
use std::cell::Cell;
use std::ops::Range;
use std::time::{Duration, Instant};
use workloads::{Driver, OpRecord, Tally};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table 2 rows whose delivery never enters the Rust kernel.
    GuestUser,
    /// Table 2 rows routed through the Rust kernel's trap dispatch.
    GuestKernel,
    /// Back-to-back multi-tenant fleet batches.
    FleetTenants,
    /// One guest run migrated between two systems by checkpoint.
    CheckpointMigrate,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::GuestUser,
        Workload::GuestKernel,
        Workload::FleetTenants,
        Workload::CheckpointMigrate,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GuestUser => "guest-user",
            Workload::GuestKernel => "guest-kernel",
            Workload::FleetTenants => "fleet-tenants",
            Workload::CheckpointMigrate => "checkpoint-migrate",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Run size: `Full` for measurement, `Tiny` for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures at.
    Full,
    /// Small enough that every workload completes its checks in well under
    /// a second.
    Tiny,
}

/// SplitMix64: every input the benchmark generates derives from the seed.
#[derive(Debug)]
pub struct Rng(Cell<u64>);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(Cell::new(seed))
    }

    /// The next 64 random bits.
    pub fn next_u64(&self) -> u64 {
        let s = self.0.get().wrapping_add(0x9e37_79b9_7f4a_7c15);
        self.0.set(s);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Shuffles `v` in place.
    pub fn shuffle<T>(&self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// What every workload operation can reach.
#[derive(Debug)]
pub struct Ctx {
    /// Span recorder (off for end-to-end runs).
    pub tracer: Tracer,
    /// Seeded input generator.
    pub rng: Rng,
    /// Run size.
    pub scale: Scale,
}

impl Ctx {
    /// A context for `seed`.
    pub fn new(seed: u64, scale: Scale, trace: bool) -> Ctx {
        Ctx {
            tracer: Tracer::new(trace),
            rng: Rng::new(seed),
            scale,
        }
    }
}

/// One run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured time, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Run size.
    pub scale: Scale,
}

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Host-time figures printed beside the metrics but not part of them.
    pub host: Vec<Metric>,
    /// Timed operations behind the latency percentiles.
    pub latency_samples: usize,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    fn absorb(&mut self, t: &Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.errors.extend(t.errors.iter().cloned());
    }

    /// The summary line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Linear-interpolated quantile `q` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Mean absolute relative error, in percent, of `efex_bench::table2()`
/// against the paper's Table 2 columns. Table 2 is the model's only
/// accuracy reference.
///
/// # Errors
///
/// Simulator failures while regenerating the table.
pub fn table2_error_pct(tracer: &Tracer) -> Result<f64, String> {
    let rows = tracer
        .span("bench::table2", "bench", "", efex_bench::table2)
        .map_err(|e| format!("table2: {e}"))?;
    let mut errs = Vec::new();
    for r in &rows {
        errs.push((r.fast_us - r.paper_fast_us).abs() / r.paper_fast_us);
        if let (Some(sim), Some(paper)) = (r.unix_us, r.paper_unix_us) {
            errs.push((sim - paper).abs() / paper);
        }
    }
    Ok(100.0 * errs.iter().sum::<f64>() / errs.len() as f64)
}

/// Host memory high-water mark (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sets up `w`: the reference data, booted systems and loaded programs.
///
/// # Errors
///
/// A failed boot, assembly or reference run.
pub fn setup(w: Workload, ctx: &Ctx) -> Result<(Box<dyn Driver>, f64), String> {
    let table2 = table2_error_pct(&ctx.tracer)?;
    let driver: Box<dyn Driver> = match w {
        Workload::GuestUser | Workload::GuestKernel => {
            let kernel = w == Workload::GuestKernel;
            let picked: Vec<usize> = (0..rows::ROWS.len())
                .filter(|&i| rows::ROWS[i].kernel_routed == kernel)
                .collect();
            Box::new(workloads::Guest::setup(ctx, &picked, &REFERENCE)?)
        }
        Workload::FleetTenants => {
            let mut fleet = workloads::Fleet::setup(ctx.scale);
            // A process's first batch pays one-time costs (worker stacks,
            // fresh pages for every 16 MB machine); it is part of set-up, so
            // the timed batches are alike.
            let mut warm = Tally::default();
            fleet.step(ctx, &mut warm);
            if let Some(e) = warm.errors.into_iter().next() {
                return Err(format!("warm-up batch: {e}"));
            }
            Box::new(fleet)
        }
        Workload::CheckpointMigrate => Box::new(workloads::Migrate::setup(
            ctx,
            &REFERENCE[rows::WRITE_PROTECT],
        )?),
    };
    Ok((driver, table2))
}

/// Host time per throughput window, seconds.
const WINDOW_S: f64 = 0.25;
/// Host time per latency window, seconds: long enough for a p90 of the
/// slowest operation kind.
const LATENCY_WINDOW_S: f64 = 2.0;

/// Splits `ops` into runs of consecutive operations at least `span` host
/// seconds long; a shorter remainder joins the last run.
fn windows(ops: &[OpRecord], span: f64) -> Vec<Range<usize>> {
    let mut out: Vec<Range<usize>> = Vec::new();
    let (mut start, mut busy) = (0, 0.0);
    for (i, op) in ops.iter().enumerate() {
        busy += op.busy;
        if busy >= span {
            out.push(start..i + 1);
            (start, busy) = (i + 1, 0.0);
        }
    }
    if start < ops.len() {
        match out.last_mut() {
            Some(last) => last.end = ops.len(),
            None => out.push(start..ops.len()),
        }
    }
    out
}

/// Converts an operation's host seconds into the seconds a metric counts.
type Clock = fn(&OpRecord) -> f64;

/// Reference seconds per host second while `op` ran (see [`hostspeed`]).
fn reference(op: &OpRecord) -> f64 {
    op.host_speed
}

/// Host seconds as they are.
fn host(_: &OpRecord) -> f64 {
    1.0
}

/// Work `f` counts per `clock` second: the median over [`WINDOW_S`]
/// windows.
fn windowed_rate(ops: &[OpRecord], f: fn(&OpRecord) -> f64, clock: Clock) -> f64 {
    let rates: Vec<f64> = windows(ops, WINDOW_S)
        .into_iter()
        .map(|w| {
            let ops = &ops[w];
            let time: f64 = ops.iter().map(|o| o.busy * clock(o)).sum();
            ops.iter().map(f).sum::<f64>() / time
        })
        .collect();
    quantile(&rates, 0.5)
}

/// Latency quantile `q` in `clock` milliseconds. It is taken in every
/// [`LATENCY_WINDOW_S`] window over each kind of operation on its own;
/// each kind's median over the windows is then averaged over the kinds.
/// Mixing rows of different cost would put the quantile in the gap between
/// two rows, where it jumps with a one-operation change in their counts;
/// taking it per window keeps a burst of interference in a few windows.
fn latency_ms(ops: &[OpRecord], q: f64, clock: Clock) -> f64 {
    let mut kinds: Vec<usize> = ops.iter().map(|o| o.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    let spans = windows(ops, LATENCY_WINDOW_S);
    let per_kind: Vec<f64> = kinds
        .iter()
        .filter_map(|&k| {
            let per_window: Vec<f64> = spans
                .iter()
                .filter_map(|w| {
                    let ms: Vec<f64> = ops[w.clone()]
                        .iter()
                        .filter(|o| o.kind == k)
                        .filter_map(|o| o.latency.map(|s| s * clock(o) * 1e3))
                        .collect();
                    (!ms.is_empty()).then(|| quantile(&ms, q))
                })
                .collect();
            (!per_window.is_empty()).then(|| quantile(&per_window, 0.5))
        })
        .collect();
    per_kind.iter().sum::<f64>() / per_kind.len().max(1) as f64
}

/// Gives every operation the median host speed of its [`WINDOW_S`] window.
/// One reading of the reference loop is short and noisy; the host's state
/// lasts seconds, so the window's median loses nothing of it.
fn smooth_host_speed(ops: &mut [OpRecord]) {
    for w in windows(ops, WINDOW_S) {
        let speeds: Vec<f64> = ops[w.clone()].iter().map(|o| o.host_speed).collect();
        let median = quantile(&speeds, 0.5);
        for op in &mut ops[w] {
            op.host_speed = median;
        }
    }
}

/// Share of each operation's host time spent measuring the host's speed
/// after it.
const METER_SHARE: f64 = 0.02;

/// How many times an end-to-end run sets up; `setup_s` is the median.
const SETUPS: usize = 9;

/// Runs one configuration and reports its metrics.
pub fn run(cfg: &Config) -> Report {
    if cfg.trace {
        layers::traced(cfg)
    } else {
        end_to_end(cfg)
    }
}

fn end_to_end(cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        // Each set-up starts from the same seed, so the last one prepares
        // exactly the inputs the first would have.
        drop(prepared.take());
        let ctx = Ctx::new(cfg.seed, cfg.scale, false);
        let t = Instant::now();
        let result = setup(cfg.workload, &ctx);
        setups.push(t.elapsed().as_secs_f64());
        prepared = Some((ctx, result));
    }
    let (ctx, result) = prepared.expect("at least one set-up");
    let (mut driver, table2) = match result {
        Ok(ok) => ok,
        Err(e) => {
            report.attempted = 1;
            report.failed = 1;
            report.errors.push(e);
            return report;
        }
    };
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut tally = Tally::default();
    let mut meter = hostspeed::Meter::new();
    while Instant::now() < deadline {
        let first = tally.ops.len();
        driver.step(&ctx, &mut tally);
        let ops = &mut tally.ops[first..];
        let busy: f64 = ops.iter().map(|o| o.busy).sum();
        let speed = meter.sample(busy * METER_SHARE);
        for op in ops {
            op.host_speed = speed;
        }
    }
    smooth_host_speed(&mut tally.ops);
    report.absorb(&tally);
    report.latency_samples = tally.ops.iter().filter(|o| o.latency.is_some()).count();
    let ops = &tally.ops;
    // Set-up stays in host seconds. It does more memory work than the timed
    // loop (fresh 16 MB machines), and the reference loop does not follow
    // it: in runs where the loop read 1.8-2x the slow state's speed, set-up
    // was only 1.1-1.4x as fast.
    report.push("setup_s", quantile(&setups, 0.5), "s");
    report.push(
        "roundtrips_per_ref_s",
        windowed_rate(ops, |o| o.roundtrips, reference),
        "1/ref_s",
    );
    report.push(
        "ops_per_ref_s",
        windowed_rate(ops, |o| o.units, reference),
        "1/ref_s",
    );
    report.push("op_p50_ref_ms", latency_ms(ops, 0.5, reference), "ref_ms");
    report.push("op_p90_ref_ms", latency_ms(ops, 0.9, reference), "ref_ms");
    report.push(
        "sim_speed",
        windowed_rate(ops, |o| o.sim_us / 1e6, reference),
        "sim_s/ref_s",
    );
    report.push("table2_error_pct", table2, "%");
    report.push("peak_rss_mb", peak_rss_mb(), "MB");
    // The same figures in host time, and the host's speed, for the reader.
    let speeds: Vec<f64> = ops.iter().map(|o| o.host_speed).collect();
    report.host = vec![
        Metric::new(
            "host.roundtrips_per_s",
            windowed_rate(ops, |o| o.roundtrips, host),
            "1/s",
        ),
        Metric::new(
            "host.ops_per_s",
            windowed_rate(ops, |o| o.units, host),
            "1/s",
        ),
        Metric::new("host.op_p50_ms", latency_ms(ops, 0.5, host), "ms"),
        Metric::new("host.op_p90_ms", latency_ms(ops, 0.9, host), "ms"),
        Metric::new(
            "host.sim_speed",
            windowed_rate(ops, |o| o.sim_us / 1e6, host),
            "sim_s/s",
        ),
        Metric::new("host.ref_per_s", quantile(&speeds, 0.5), "ref_s/s"),
    ];
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(busy: f64, kind: usize, host_speed: f64) -> OpRecord {
        OpRecord {
            busy,
            latency: Some(busy),
            kind,
            host_speed,
            units: 1.0,
            ..OpRecord::default()
        }
    }

    #[test]
    fn a_short_remainder_joins_the_last_window() {
        let ops = vec![op(0.1, 0, 1.0); 7];
        assert_eq!(windows(&ops, 0.25), vec![0..3, 3..7]);
        assert_eq!(windows(&ops[..2], 0.25), vec![0..2]);
        assert!(windows(&[], 0.25).is_empty());
    }

    #[test]
    fn reference_time_cancels_a_host_that_runs_at_half_speed() {
        // The same work at full speed, then on a host half as fast: twice
        // the host time, half the reference seconds per host second.
        let mut ops = vec![op(0.01, 0, 1.0); 100];
        ops.extend(vec![op(0.02, 0, 0.5); 100]);
        assert!((windowed_rate(&ops, |o| o.units, host) - 100.0).abs() > 1.0);
        assert!((windowed_rate(&ops, |o| o.units, reference) - 100.0).abs() < 1e-9);
        assert!((latency_ms(&ops, 0.9, reference) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn latency_quantiles_are_taken_per_kind() {
        // Two kinds, 1 ms and 9 ms: the mixed median would sit between
        // them; per kind it is their mean.
        let ops: Vec<OpRecord> = (0..100)
            .map(|i| op(if i % 2 == 0 { 0.001 } else { 0.009 }, i % 2, 1.0))
            .collect();
        assert!((latency_ms(&ops, 0.5, host) - 5.0).abs() < 1e-9);
        assert!((latency_ms(&ops, 0.9, host) - 5.0).abs() < 1e-9);
    }
}
