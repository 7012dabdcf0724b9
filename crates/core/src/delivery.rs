//! Delivery paths and their cost profiles.

use std::fmt;

/// How synchronous exceptions reach user code.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DeliveryPath {
    /// Conventional Unix signals (the paper's baseline, Section 3.1).
    UnixSignals,
    /// The paper's software fast path (Section 3.2).
    FastUser,
    /// The paper's hardware proposal: direct user vectoring via the
    /// PC/UXT exchange (Section 2).
    HardwareVectored,
}

impl fmt::Display for DeliveryPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DeliveryPath::UnixSignals => "unix-signals",
            DeliveryPath::FastUser => "fast-user",
            DeliveryPath::HardwareVectored => "hardware-vectored",
        })
    }
}

impl From<DeliveryPath> for efex_trace::TracePath {
    fn from(path: DeliveryPath) -> efex_trace::TracePath {
        match path {
            DeliveryPath::UnixSignals => efex_trace::TracePath::UnixSignals,
            DeliveryPath::FastUser => efex_trace::TracePath::FastUser,
            DeliveryPath::HardwareVectored => efex_trace::TracePath::HardwareVectored,
        }
    }
}

/// Cycle costs charged to **host-level** applications per exception event.
///
/// Guest-level code pays instruction-by-instruction; host-level
/// applications (GC, persistent store, DSM) charge these constants instead.
/// The defaults for each path come from the guest-level microbenchmarks of
/// [`crate::System`] (Table 2 of EXPERIMENTS.md records the measured
/// values); `DeliveryCosts::measured_on` re-derives them on a live system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DeliveryCosts {
    /// Fault → first user handler instruction, simple exception.
    pub simple_deliver: u64,
    /// Handler return → next application instruction, simple exception.
    pub simple_return: u64,
    /// Fault → handler, write-protection fault (adds page-table work).
    pub prot_deliver: u64,
    /// Fault → handler, protection fault on a subpage-managed page.
    pub subpage_deliver: u64,
    /// One protection-change call (protect or unprotect a region).
    pub protect_call: u64,
    /// Extra per page protected/unprotected in one call.
    pub protect_per_page: u64,
    /// Kernel emulation of an access to an unprotected subpage.
    pub subpage_emulate: u64,
}

impl DeliveryCosts {
    /// The default cost profile for a path, in 25 MHz cycles.
    ///
    /// These constants are the paper's Table 2 (and its Unix baseline), not
    /// what this machine measures with `System::measure_null_roundtrip`:
    /// they differ, e.g. the fast path's `simple_return` is charged 75
    /// cycles but measures 45. ROADMAP item 10 tabulates every difference
    /// and plans to charge the measured rows instead. Keeping them as
    /// constants makes host-level application runs deterministic and
    /// cheap to construct.
    pub fn for_path(path: DeliveryPath) -> DeliveryCosts {
        use efex_simos::costs;
        match path {
            DeliveryPath::UnixSignals => DeliveryCosts {
                // ~70 us deliver + ~30 us return at 25 MHz; the paper's
                // Table 1/2 baseline (80 us round trip for the null
                // handler; protection faults reach ~60 us delivery).
                simple_deliver: 1750,
                simple_return: 750,
                prot_deliver: 1500,
                subpage_deliver: 1600,
                protect_call: costs::ULTRIX_SYSCALL_WRAPPER,
                protect_per_page: costs::ULTRIX_MPROTECT_PER_PAGE,
                subpage_emulate: costs::SUBPAGE_EMULATE,
            },
            DeliveryPath::FastUser => DeliveryCosts {
                // Table 2: 5 us deliver, 3 us return, 15 us write-protect,
                // 19 us subpage.
                simple_deliver: 125,
                simple_return: 75,
                prot_deliver: 375,
                subpage_deliver: 475,
                protect_call: costs::FAST_PROTECT_SYSCALL,
                protect_per_page: 2,
                subpage_emulate: costs::SUBPAGE_EMULATE,
            },
            DeliveryPath::HardwareVectored => DeliveryCosts {
                // The PC/UXT exchange: a few cycles in, a few cycles out;
                // protection changes through user-level TLB modification
                // (utlbp), no kernel call. Kernel still validates TLB-type
                // faults' page-table state in the software fallback, so
                // protection faults keep a modest cost.
                simple_deliver: 40,
                simple_return: 20,
                prot_deliver: 90,
                subpage_deliver: 190,
                protect_call: 8,
                protect_per_page: 3,
                subpage_emulate: costs::SUBPAGE_EMULATE,
            },
        }
    }

    /// The round-trip cost of one simple exception.
    pub fn simple_round_trip(&self) -> u64 {
        self.simple_deliver + self.simple_return
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efex_mips::cycles::to_micros;

    #[test]
    fn fast_path_matches_paper_table2() {
        let c = DeliveryCosts::for_path(DeliveryPath::FastUser);
        assert_eq!(to_micros(c.simple_deliver), 5.0);
        assert_eq!(to_micros(c.simple_return), 3.0);
        assert_eq!(to_micros(c.prot_deliver), 15.0);
        assert_eq!(to_micros(c.subpage_deliver), 19.0);
        assert_eq!(to_micros(c.simple_round_trip()), 8.0);
    }

    #[test]
    fn unix_path_is_an_order_of_magnitude_slower() {
        let fast = DeliveryCosts::for_path(DeliveryPath::FastUser);
        let slow = DeliveryCosts::for_path(DeliveryPath::UnixSignals);
        let ratio = slow.simple_round_trip() as f64 / fast.simple_round_trip() as f64;
        assert!(ratio >= 10.0, "paper's headline: got {ratio:.1}x");
    }

    #[test]
    fn hardware_path_is_another_2_to_3x() {
        let fast = DeliveryCosts::for_path(DeliveryPath::FastUser);
        let hw = DeliveryCosts::for_path(DeliveryPath::HardwareVectored);
        let ratio = fast.simple_round_trip() as f64 / hw.simple_round_trip() as f64;
        assert!((2.0..=4.5).contains(&ratio), "got {ratio:.1}x");
    }

    #[test]
    fn eager_amplification_anchor() {
        // Fault + re-enable = 15 us + 3 us = the paper's 18 us.
        let c = DeliveryCosts::for_path(DeliveryPath::FastUser);
        let total = to_micros(c.prot_deliver + c.protect_call);
        assert!((17.0..=19.0).contains(&total), "got {total}");
    }
}
