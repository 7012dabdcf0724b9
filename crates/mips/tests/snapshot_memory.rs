//! Checkpoint memory capture and restore against a full scan of physical
//! memory.
//!
//! `Machine::snapshot` reads only the pages written since the machine was
//! built, and `Machine::restore` zeroes only the receiver's written pages.
//! These properties check both against the obvious whole-memory algorithm,
//! over random writes through every `Memory` write path, on a machine whose
//! size ends in a partial page.

use efex_mips::machine::Machine;
use efex_mips::snapshot::{MachineState, SNAP_PAGE};
use proptest::prelude::*;

/// Five whole pages and a half page.
const SIZE: usize = 5 * SNAP_PAGE + SNAP_PAGE / 2;

#[derive(Clone, Debug)]
enum Write {
    U8(u32, u8),
    U16(u32, u16),
    U32(u32, u32),
    /// Address, length (clipped to the end of memory) and a fill seed
    /// (seed 0 writes zeros).
    Bytes(u32, usize, u8),
    /// Address and length (clipped to the end of memory).
    Zero(u32, usize),
}

/// A value that is zero about half the time: zero stores into pages that
/// were never written must not show up in a capture.
fn maybe_zero<T: proptest::arbitrary::Arbitrary + Default + Clone + 'static>() -> BoxedStrategy<T> {
    prop_oneof![Just(T::default()), any::<T>()].boxed()
}

fn arb_write() -> impl Strategy<Value = Write> {
    let end = SIZE as u32;
    prop_oneof![
        (0..end, maybe_zero::<u8>()).prop_map(|(a, v)| Write::U8(a, v)),
        (0..end - 1, maybe_zero::<u16>()).prop_map(|(a, v)| Write::U16(a, v)),
        (0..end - 3, maybe_zero::<u32>()).prop_map(|(a, v)| Write::U32(a, v)),
        (0..end, 0..2 * SNAP_PAGE, maybe_zero::<u8>()).prop_map(|(a, n, s)| Write::Bytes(a, n, s)),
        (0..end, 0..2 * SNAP_PAGE).prop_map(|(a, n)| Write::Zero(a, n)),
    ]
}

fn apply(m: &mut Machine, writes: &[Write]) {
    let mem = m.mem_mut();
    for w in writes {
        match *w {
            Write::U8(a, v) => mem.write_u8(a, v),
            Write::U16(a, v) => mem.write_u16(a, v),
            Write::U32(a, v) => mem.write_u32(a, v),
            Write::Bytes(a, n, seed) => {
                let n = n.min(SIZE - a as usize);
                let data: Vec<u8> = (0..n).map(|i| seed.wrapping_mul(i as u8 | 1)).collect();
                mem.write_bytes(a, &data)
            }
            Write::Zero(a, n) => mem.zero(a, n.min(SIZE - a as usize)),
        }
        .expect("write within physical memory");
    }
}

/// The non-zero pages found by reading every byte of physical memory, in
/// the snapshot's page layout (a partial last page zero-padded).
fn full_scan(m: &Machine) -> Vec<(u32, Vec<u8>)> {
    let size = m.mem().size();
    let mut pages = Vec::new();
    for page_idx in 0..size.div_ceil(SNAP_PAGE) {
        let paddr = page_idx * SNAP_PAGE;
        let mut page = vec![0; SNAP_PAGE];
        m.mem()
            .read_into(paddr as u32, &mut page[..SNAP_PAGE.min(size - paddr)])
            .unwrap();
        if page.iter().any(|&b| b != 0) {
            pages.push((page_idx as u32, page));
        }
    }
    pages
}

/// All of physical memory, copied out.
fn all_memory(m: &Machine) -> Vec<u8> {
    let mut out = vec![0; SIZE];
    m.mem().read_into(0, &mut out).unwrap();
    out
}

fn page_indices(s: &MachineState) -> Vec<u32> {
    s.pages.iter().map(|&(i, _)| i).collect()
}

fn page_versions(m: &Machine) -> Vec<u32> {
    (0..SIZE.div_ceil(SNAP_PAGE))
        .map(|i| m.mem().page_version((i * SNAP_PAGE) as u32))
        .collect()
}

fn page_contents(m: &Machine) -> Vec<Vec<u8>> {
    all_memory(m)
        .chunks(SNAP_PAGE)
        .map(<[u8]>::to_vec)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Capture writes the same bytes as a whole-memory scan would, and a
    /// restore over a receiver with its own writes leaves the receiver's
    /// memory equal to the source's, bumping every page it changed.
    #[test]
    fn capture_and_restore_match_a_full_scan(
        source_writes in prop::collection::vec(arb_write(), 0..24),
        receiver_writes in prop::collection::vec(arb_write(), 0..24),
    ) {
        let mut source = Machine::new(SIZE);
        apply(&mut source, &source_writes);
        let state = source.snapshot();
        let scanned = MachineState { pages: full_scan(&source), ..state.clone() };
        prop_assert!(
            state.to_bytes() == scanned.to_bytes(),
            "capture differs from a full scan: pages {:?} vs {:?}",
            page_indices(&state),
            page_indices(&scanned)
        );

        let mut receiver = Machine::new(SIZE);
        apply(&mut receiver, &receiver_writes);
        let before = page_contents(&receiver);
        let versions_before = page_versions(&receiver);
        receiver
            .restore(&MachineState::from_bytes(&state.to_bytes()).unwrap())
            .unwrap();
        prop_assert!(
            all_memory(&receiver) == all_memory(&source),
            "restored memory differs from the source"
        );
        let after = page_contents(&receiver);
        let versions_after = page_versions(&receiver);
        for page in 0..before.len() {
            if before[page] != after[page] {
                prop_assert!(
                    versions_before[page] != versions_after[page],
                    "page {page} changed without a version bump"
                );
            }
        }
        prop_assert!(
            receiver.snapshot().to_bytes() == state.to_bytes(),
            "re-capture after restore differs from the restored snapshot"
        );
    }
}
