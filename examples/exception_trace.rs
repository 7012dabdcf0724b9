//! Exception observability: trace one FastUser breakpoint round trip.
//!
//! ```text
//! cargo run --example exception_trace
//! ```
//!
//! Attaches a ring sink to the guest system, runs the Table 2 breakpoint
//! microbenchmark, and prints the captured lifecycle events plus the
//! per-(path, class) cycle histograms.

use efex::core::{DeliveryPath, ExceptionKind, System};
use efex::trace::RingSink;
use std::rc::Rc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ring = Rc::new(RingSink::new());
    let mut sys = System::builder()
        .delivery(DeliveryPath::FastUser)
        .trace_sink(ring.clone())
        .build()?;
    let r = sys.measure_null_roundtrip(ExceptionKind::Breakpoint)?;
    println!(
        "measured: deliver {:.1} us, return {:.1} us\n",
        r.deliver_micros(),
        r.return_micros()
    );
    println!("lifecycle ({} events captured):", ring.len());
    for ev in ring.events() {
        println!(
            "  {:>10} cy  {:<16} pc={:#010x}",
            ev.cycles,
            ev.kind.as_str(),
            ev.pc
        );
    }
    println!("\nmetrics:\n{}", sys.trace_metrics().to_value());
    Ok(())
}
