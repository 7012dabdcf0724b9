//! `Machine::peek_words`/`poke_words` must behave exactly like a loop of
//! `peek_u32`/`poke_u32` over the same words.
//!
//! Each case builds one machine and clones it: one clone runs the page-run
//! copy, the other the word loop. The run starts at a random word of page
//! A (sometimes at a misaligned byte) and may straddle into pages B and C.
//! Each of those is mapped, unmapped, invalid, clean (on the R3000 a
//! read-only page is one whose D bit is clear, so a store raises
//! `TlbMod`), mapped only under another ASID, or backed by a frame that
//! ends, or starts, past physical memory. Some cases start at the top of
//! KUSEG, so page C is KSEG0: an address error in user mode, an unmapped
//! window for the kernel. Both clones must agree on every memory byte,
//! the set of written pages, the result (words read, or the exception),
//! the TLB generation and the step digest.

use efex_mips::exception::Exception;
use efex_mips::machine::Machine;
use efex_mips::tlb::{TlbEntry, PAGE_SIZE};
use proptest::prelude::*;

/// Physical memory: twelve whole frames and half of a thirteenth, so a
/// run into frame 12 meets the end of memory mid-page.
const PHYS: usize = 12 * PAGE_SIZE as usize + 2048;

/// The ASID the machine runs under.
const ASID: u8 = 5;

/// What backs one of the pages after the first.
#[derive(Clone, Copy, Debug)]
enum Page {
    Mapped,
    Unmapped,
    Invalid,
    Clean,
    OtherAsid,
    PartlyPastMemory,
    PastMemory,
}

const PAGES: [Page; 7] = [
    Page::Mapped,
    Page::Unmapped,
    Page::Invalid,
    Page::Clean,
    Page::OtherAsid,
    Page::PartlyPastMemory,
    Page::PastMemory,
];

/// One case: where the run starts, what it covers and how it is made.
#[derive(Clone, Copy, Debug)]
struct Case {
    /// Page A's virtual page number; B and C follow it.
    vpn: u32,
    /// Backing of pages B and C.
    next: [Page; 2],
    /// Byte offset of the first word in page A.
    offset: u32,
    /// Words in the run.
    len: usize,
    /// Store (`poke`) rather than load (`peek`).
    store: bool,
    /// User rather than kernel rights.
    user: bool,
    /// Frames 0–11 that hold data before the copy (bit per frame); the
    /// rest are never written.
    filled: u16,
    /// Seed of the stored words.
    seed: u32,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (
            prop_oneof![Just(0x400u32), Just(0x7fffe)],
            (0usize..7, 0usize..7),
            0u32..1024,
            0u32..16,
        ),
        (0usize..1100, any::<bool>(), any::<bool>()),
        (any::<u16>(), any::<u32>()),
    )
        .prop_map(
            |((vpn, (b, c), word, misalign), (len, store, user), (filled, seed))| Case {
                vpn,
                next: [PAGES[b], PAGES[c]],
                // One case in eight starts at a misaligned byte.
                offset: 4 * word + if misalign < 2 { misalign * 2 + 1 } else { 0 },
                len,
                store,
                user,
                filled,
                seed,
            },
        )
}

/// A TLB entry mapping `vpn` to `pfn` under `asid`.
fn entry(vpn: u32, asid: u8, pfn: u32, valid: bool, dirty: bool) -> TlbEntry {
    TlbEntry {
        vpn,
        asid,
        pfn,
        valid,
        dirty,
        global: false,
        user_modifiable: false,
    }
}

/// The machine a case starts from: page A on frame 1, B and C on frames
/// 2 and 3 unless their backing says otherwise.
fn machine(case: &Case) -> Machine {
    let mut m = Machine::new(PHYS);
    m.set_asid(ASID);
    for frame in 0..12u32 {
        if case.filled & (1 << frame) != 0 {
            let bytes: Vec<u8> = (0..PAGE_SIZE).map(|i| (frame * 31 + i) as u8).collect();
            m.mem_mut().write_bytes(frame * PAGE_SIZE, &bytes).unwrap();
        }
    }
    m.tlb_mut().write(1, entry(case.vpn, ASID, 1, true, true));
    for (k, page) in case.next.iter().enumerate() {
        let vpn = case.vpn + 1 + k as u32;
        let frame = 2 + k as u32;
        let e = match page {
            Page::Mapped => entry(vpn, ASID, frame, true, true),
            Page::Unmapped => continue,
            Page::Invalid => entry(vpn, ASID, frame, false, true),
            Page::Clean => entry(vpn, ASID, frame, true, false),
            Page::OtherAsid => entry(vpn, ASID + 1, frame, true, true),
            Page::PartlyPastMemory => entry(vpn, ASID, 12, true, true),
            Page::PastMemory => entry(vpn, ASID, 13 + k as u32, true, true),
        };
        m.tlb_mut().write(2 + k, e);
    }
    m
}

/// The words a store case writes.
fn words(case: &Case) -> Vec<u32> {
    let mut x = case.seed | 1;
    (0..case.len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        })
        .collect()
}

/// What a run returned: the words read (empty for a store), or the fault.
type Outcome = Result<Vec<u32>, Exception>;

/// The state a copy may change.
fn state(m: &Machine) -> (Vec<u8>, Vec<u32>, u64, u64) {
    let mut bytes = vec![0; PHYS];
    m.mem().read_into(0, &mut bytes).unwrap();
    (
        bytes,
        m.mem().written_pages().collect(),
        m.tlb().generation(),
        m.step_digest(),
    )
}

/// The page-run copy.
fn by_page(m: &mut Machine, case: &Case, va: u32) -> Outcome {
    if case.store {
        m.poke_words(va, &words(case), case.user)
            .map(|()| Vec::new())
    } else {
        let mut out = vec![0; case.len];
        m.peek_words(va, &mut out, case.user).map(|()| out)
    }
}

/// The word loop it replaces.
fn by_word(m: &mut Machine, case: &Case, va: u32) -> Outcome {
    let at = |i: usize| va.wrapping_add(4 * i as u32);
    if case.store {
        for (i, w) in words(case).into_iter().enumerate() {
            m.poke_u32(at(i), w, case.user)?;
        }
        Ok(Vec::new())
    } else {
        (0..case.len)
            .map(|i| m.peek_u32(at(i), case.user))
            .collect()
    }
}

proptest! {
    #[test]
    fn page_runs_match_the_word_loop(case in arb_case()) {
        let va = case.vpn * PAGE_SIZE + case.offset;
        let mut runs = machine(&case);
        let mut words = runs.clone();
        let got = by_page(&mut runs, &case, va);
        let want = by_word(&mut words, &case, va);
        prop_assert_eq!(&got, &want, "{:?}", case);
        prop_assert!(state(&runs) == state(&words), "state differs: {:?}", case);
    }
}

/// The fixed cases the random ones must include: a run that straddles
/// into each backing of page B, for loads and stores, both rights.
#[test]
fn straddling_runs_into_every_backing_match() {
    for page in PAGES {
        for (store, user) in [(false, false), (false, true), (true, false), (true, true)] {
            let case = Case {
                vpn: 0x400,
                next: [page, Page::Mapped],
                offset: PAGE_SIZE - 8,
                len: 600,
                store,
                user,
                filled: 0b1010,
                seed: 7,
            };
            let va = case.vpn * PAGE_SIZE + case.offset;
            let mut runs = machine(&case);
            let mut words = runs.clone();
            assert_eq!(
                by_page(&mut runs, &case, va),
                by_word(&mut words, &case, va),
                "{case:?}"
            );
            assert!(state(&runs) == state(&words), "{case:?}");
        }
    }
}

/// A run that fails past its first page leaves page A written and reports
/// the first word of the failing page.
#[test]
fn a_fault_on_a_later_page_reports_its_first_word() {
    let case = Case {
        vpn: 0x400,
        next: [Page::Clean, Page::Mapped],
        offset: PAGE_SIZE - 8,
        len: 4,
        store: true,
        user: true,
        filled: 0,
        seed: 3,
    };
    let mut m = machine(&case);
    let va = case.vpn * PAGE_SIZE + case.offset;
    let err = m.poke_words(va, &words(&case), true).unwrap_err();
    assert_eq!(err.code, efex_mips::exception::ExcCode::TlbMod);
    assert_eq!(err.bad_vaddr, Some(va + 8));
    assert_eq!(m.peek_u32(va + 4, true).unwrap(), words(&case)[1]);
    assert_eq!(
        m.mem().read_u32(2 * PAGE_SIZE).unwrap(),
        0,
        "page B untouched"
    );
}
