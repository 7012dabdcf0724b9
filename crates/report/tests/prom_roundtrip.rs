//! Satellite proof: the `efex-health` Prometheus exposition is lossless.
//!
//! Every `StatsSnapshot` counter (aggregate and per-tenant, including
//! awkward slash-and-quote names) and every `Histogram` field — per-bucket
//! counts, sum, count, min, max — must re-parse from the text format to the
//! exact `u64` that was recorded.

use efex_health::{registry_to_prometheus, Registry};
use efex_report::prom;
use efex_trace::{Histogram, StatsSnapshot};

fn sample_snapshot() -> StatsSnapshot {
    StatsSnapshot::new("kernel-health")
        .counter("superblock_hits", 12_345)
        .counter("superblock_misses", 6)
        .counter("fast-user/write-protect/deliver_p50", 91)
        .counter("quote\"back\\slash", 1)
        .counter("zero", 0)
        .counter("huge", u64::MAX)
}

fn sample_histogram() -> Histogram {
    let mut h = Histogram::new();
    for v in [0, 1, 1, 2, 3, 44, 1000, 1_000_000, u64::MAX] {
        h.record(v);
    }
    h
}

#[test]
fn every_snapshot_counter_round_trips() {
    let snap = sample_snapshot();
    let mut reg = Registry::new();
    reg.record_snapshot(None, &snap);
    reg.record_snapshot(Some(7), &snap);
    let scrape = prom::parse(&registry_to_prometheus(&reg)).expect("exposition must parse");

    assert_eq!(scrape.family_type("efex_counter"), Some("counter"));
    for (name, value) in &snap.counters {
        let agg = scrape
            .get(
                "efex_counter",
                &[("component", "kernel-health"), ("name", name)],
            )
            .unwrap_or_else(|| panic!("aggregate sample for {name} missing"));
        assert_eq!(agg.value_u64(), Some(*value), "{name} (aggregate)");
        assert_eq!(agg.label("tenant"), None, "{name} must be unscoped");
        let tenant = scrape
            .get(
                "efex_counter",
                &[
                    ("component", "kernel-health"),
                    ("name", name),
                    ("tenant", "7"),
                ],
            )
            .unwrap_or_else(|| panic!("tenant sample for {name} missing"));
        assert_eq!(tenant.value_u64(), Some(*value), "{name} (tenant 7)");
    }
    // Nothing extra was invented: 2 scopes × the snapshot's counters.
    assert_eq!(scrape.family("efex_counter").len(), 2 * snap.counters.len());
}

#[test]
fn every_histogram_field_round_trips() {
    let h = sample_histogram();
    let mut reg = Registry::new();
    reg.record_histogram("lat", &h);
    let scrape = prom::parse(&registry_to_prometheus(&reg)).expect("exposition must parse");

    let field = |family: &str| {
        scrape
            .get(family, &[("name", "lat")])
            .unwrap_or_else(|| panic!("{family} missing"))
            .value_u64()
            .unwrap_or_else(|| panic!("{family} not a u64"))
    };
    assert_eq!(field("efex_histogram_sum"), h.sum());
    assert_eq!(field("efex_histogram_count"), h.count());
    assert_eq!(field("efex_histogram_min"), h.min().unwrap());
    assert_eq!(field("efex_histogram_max"), h.max().unwrap());

    // De-cumulate the buckets and map each `le` boundary back to its source
    // bucket: the reconstruction must equal `nonzero_buckets()` exactly.
    let mut reconstructed = Vec::new();
    let mut previous = 0u64;
    let mut saw_inf = false;
    for b in scrape.family("efex_histogram_bucket") {
        assert_eq!(b.label("name"), Some("lat"));
        let le = b.label("le").expect("bucket without le");
        let cumulative = b.value_u64().expect("bucket count not a u64");
        if le == "+Inf" {
            assert_eq!(cumulative, h.count(), "+Inf bucket is the total");
            saw_inf = true;
            continue;
        }
        let boundary: u64 = le.parse().expect("finite le must be a u64");
        let index = Histogram::bucket_index(boundary);
        let (lo, hi) = Histogram::bucket_range(index);
        reconstructed.push((lo, hi, cumulative - previous));
        previous = cumulative;
    }
    assert!(saw_inf, "+Inf bucket missing");
    let expected: Vec<(u64, u64, u64)> = h.nonzero_buckets().collect();
    assert_eq!(reconstructed, expected);
}

#[test]
fn gauges_keep_their_kind_through_the_scrape() {
    let mut reg = Registry::new();
    reg.record_gauge("fleet", None, "tenants", 16);
    reg.record_counter("fleet", None, "deliveries", 400);
    let scrape = prom::parse(&registry_to_prometheus(&reg)).unwrap();
    assert_eq!(scrape.family_type("efex_gauge"), Some("gauge"));
    let g = scrape
        .get("efex_gauge", &[("component", "fleet"), ("name", "tenants")])
        .unwrap();
    assert_eq!(g.value_u64(), Some(16));
    assert!(
        scrape
            .get("efex_gauge", &[("name", "deliveries")])
            .is_none(),
        "counters must not leak into the gauge family"
    );
}
