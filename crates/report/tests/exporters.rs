//! Cross-crate checks on the exported trace formats: the JSONL sink numbers
//! its lines, and the Chrome trace keeps each thread row's spans in time
//! order. Write/parse round trips of every exporter are one generic property
//! in `crates/bench/tests/json_roundtrip.rs`.

use efex_mips::RegionSpan;
use efex_report::{jsonval, ChromeTrace};
use efex_trace::{EventKind, FaultClass, JsonLinesSink, TraceEvent, TracePath, TraceSink};

fn sample_events() -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for (i, &kind) in EventKind::ALL.iter().enumerate() {
        out.push(TraceEvent {
            cycles: 1000 + 17 * i as u64,
            kind,
            path: TracePath::FastUser,
            class: FaultClass::WriteProtect,
            exc_code: 1,
            vaddr: 0x0040_2000,
            pc: 0x0040_0104,
            ..TraceEvent::default()
        });
    }
    out
}

#[test]
fn json_lines_sink_emits_valid_json_per_line() {
    let sink = JsonLinesSink::new(Vec::new());
    for ev in sample_events() {
        sink.emit(&ev);
    }
    let out = String::from_utf8(sink.into_inner()).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), EventKind::ALL.len());
    for (i, line) in lines.iter().enumerate() {
        let v = jsonval::parse(line)
            .unwrap_or_else(|e| panic!("line {i} is not valid JSON ({e}): {line}"));
        assert_eq!(v.get("seq").unwrap().as_u64(), Some(i as u64));
        assert_eq!(v.get("path").unwrap().as_str(), Some("fast-user"));
        assert_eq!(v.get("vaddr").unwrap().as_str(), Some("0x00402000"));
    }
}

#[test]
fn chrome_trace_document_is_valid_and_time_consistent() {
    let mut trace = ChromeTrace::new();
    trace.push_lifecycle(&sample_events());
    trace.push_profile_spans(&[
        RegionSpan {
            name: "save_state".into(),
            start_cycles: 1000,
            end_cycles: 1040,
            instructions: 20,
        },
        RegionSpan {
            name: "decode".into(),
            start_cycles: 1040,
            end_cycles: 1060,
            instructions: 10,
        },
    ]);
    let doc = jsonval::parse(&trace.to_json()).expect("valid trace-event JSON");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty());
    // Required fields per event, and ts/dur consistency per thread.
    let mut last_end_by_tid: std::collections::BTreeMap<u64, f64> = Default::default();
    for e in events {
        let ph = e.get("ph").unwrap().as_str().unwrap();
        assert!(e.get("name").unwrap().as_str().is_some());
        assert!(e.get("pid").unwrap().as_u64().is_some());
        let tid = e.get("tid").unwrap().as_u64().unwrap();
        if ph != "X" {
            continue;
        }
        let ts = e.get("ts").unwrap().as_f64().unwrap();
        let dur = e.get("dur").unwrap().as_f64().unwrap();
        assert!(ts >= 0.0 && dur >= 0.0);
        // Within one thread row, spans never overlap going backwards: each
        // span starts at or after the previous span's start.
        if let Some(&prev) = last_end_by_tid.get(&tid) {
            assert!(ts >= prev, "span on tid {tid} starts before predecessor");
        }
        last_end_by_tid.insert(tid, ts);
    }
}
