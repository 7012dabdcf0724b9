//! Runs every workload at a tiny size and checks the benchmark's contract:
//! every metric named in `BENCHMARK.json` is reported with its unit, and the
//! output checks turn corruption into counted failures, not panics.

use efex_hostbench::reference::REFERENCE;
use efex_hostbench::rows::{self, ROWS, WRITE_PROTECT};
use efex_hostbench::workloads::{migrate, Driver, Guest, Migrate, MigrateError, Tally};
use efex_hostbench::{run, Config, Ctx, Scale, Workload};
use efex_mips::machine::MachineConfig;
use efex_report::jsonval::{self, Value};
use efex_simos::RunOutcome;
use efex_snap::SnapError;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    jsonval::parse(&text).expect("BENCHMARK.json parses")
}

/// (name, unit) of every metric in one section of `BENCHMARK.json`.
fn named(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs `f` on a thread with a large stack: machines, snapshots and app
/// tenants keep large values on the stack in unoptimized builds (the fleet
/// gives its workers 16 MB for the same reason).
fn on_big_stack(f: fn()) {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("test body");
}

#[test]
fn every_workload_reports_every_named_metric() {
    on_big_stack(check_every_workload);
}

fn check_every_workload() {
    for trace in [false, true] {
        let mut want = named(if trace { "per_layer" } else { "end_to_end" });
        want.sort();
        for workload in Workload::ALL {
            let report = run(&Config {
                workload,
                seed: 7,
                seconds: 0.2,
                trace,
                scale: Scale::Tiny,
            });
            assert!(report.attempted >= 1, "{workload:?}: nothing attempted");
            assert_eq!(report.failed, 0, "{workload:?}: {:?}", report.errors);
            let line = jsonval::parse(&report.to_json()).expect("summary line is JSON");
            assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
            let metrics = line
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let mut got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                    assert!(
                        m.get("value").and_then(Value::as_f64).is_some(),
                        "{name}: value"
                    );
                    (name.clone(), unit.to_string())
                })
                .collect();
            got.sort();
            assert_eq!(got, want, "{workload:?} trace={trace}");
        }
    }
}

#[test]
fn flipped_checkpoint_byte_is_a_typed_failure() {
    on_big_stack(check_flipped_byte);
}

fn check_flipped_byte() {
    let tracer = efex_hostbench::span::Tracer::new(false);
    let row = &ROWS[WRITE_PROTECT];
    let mut a = rows::boot(row, 20, MachineConfig::default(), &tracer).unwrap();
    let mut b = rows::boot(row, 20, MachineConfig::default(), &tracer).unwrap();
    assert_eq!(a.kernel_mut().run_user(500).unwrap(), RunOutcome::StepLimit);
    let err = migrate(&tracer, &mut a, &mut b, |bytes| {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
    })
    .unwrap_err();
    assert!(
        matches!(
            err,
            MigrateError::Decode(SnapError::ChecksumMismatch { .. })
        ),
        "{err}"
    );

    // Inside the workload the same corruption is one failed operation.
    let ctx = Ctx::new(3, Scale::Tiny, false);
    let mut driver = Migrate::setup(&ctx, &REFERENCE[WRITE_PROTECT]).unwrap();
    driver.corrupt_next_checkpoint(1000);
    let mut tally = Tally::default();
    driver.step(&ctx, &mut tally);
    assert_eq!((tally.attempted, tally.failed), (1, 1));
    assert!(tally.errors[0].contains("checksum"), "{:?}", tally.errors);
    // The run recovers: the guest rewinds and later checkpoints succeed.
    for _ in 0..5 {
        driver.step(&ctx, &mut tally);
    }
    assert_eq!((tally.attempted, tally.failed), (6, 1));
}

#[test]
fn wrong_committed_row_count_is_a_failure() {
    on_big_stack(check_wrong_count);
}

fn check_wrong_count() {
    let mut table = REFERENCE;
    table[0][0].cycles += 1;
    let ctx = Ctx::new(5, Scale::Tiny, false);
    let mut driver = Guest::setup(&ctx, &[0], &table).unwrap();
    let mut tally = Tally::default();
    // The tiny run finishes inside its first slice.
    driver.step(&ctx, &mut tally);
    assert_eq!((tally.attempted, tally.failed), (1, 1));
    assert!(tally.errors[0].contains(ROWS[0].name), "{:?}", tally.errors);

    // With the committed table the same run passes.
    let mut driver = Guest::setup(&ctx, &[0], &REFERENCE).unwrap();
    let mut tally = Tally::default();
    driver.step(&ctx, &mut tally);
    assert_eq!((tally.attempted, tally.failed), (1, 0));
}
