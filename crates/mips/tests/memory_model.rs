//! `Memory` against a flat reference model.
//!
//! `Memory` backs only the prefix of physical memory up to its highest
//! written page and reads everything past it as zero. This property runs
//! random reads, writes, word runs, zero-fills and clones against a model
//! that holds all `size` bytes, and requires every value, bus error, page
//! version and written-page list to match. Sizes include ones that end in
//! a partial page, and addresses cluster at page boundaries and at the end
//! of memory, so accesses that straddle the backed end or `size` are
//! common.

use efex_mips::mem::{BusError, Memory};
use efex_mips::tlb::PAGE_SIZE;
use proptest::prelude::*;

const PAGE: usize = PAGE_SIZE as usize;

/// Architectural sizes: whole pages, a partial last page, less than a page.
const SIZES: &[usize] = &[3 * PAGE, 3 * PAGE + 6, PAGE + 1, 100];

/// `size` zeroed bytes, each page with a write version.
#[derive(Clone)]
struct Model {
    bytes: Vec<u8>,
    versions: Vec<u32>,
}

impl Model {
    fn new(size: usize) -> Model {
        Model {
            bytes: vec![0; size],
            versions: vec![0; size.div_ceil(PAGE)],
        }
    }

    fn span(&self, paddr: u32, len: usize) -> Result<std::ops::Range<usize>, BusError> {
        let start = paddr as usize;
        if start + len > self.bytes.len() {
            return Err(BusError { paddr });
        }
        Ok(start..start + len)
    }

    fn read(&self, paddr: u32, len: usize) -> Result<Vec<u8>, BusError> {
        self.span(paddr, len).map(|r| self.bytes[r].to_vec())
    }

    /// Writes `data`, bumping every page it touches.
    fn write(&mut self, paddr: u32, data: &[u8]) -> Result<(), BusError> {
        let r = self.span(paddr, data.len())?;
        self.bytes[r.clone()].copy_from_slice(data);
        if r.is_empty() {
            return Ok(());
        }
        for v in &mut self.versions[r.start / PAGE..=(r.end - 1) / PAGE] {
            *v += 1;
        }
        Ok(())
    }

    fn page_version(&self, paddr: u32) -> u32 {
        self.versions
            .get(paddr as usize / PAGE)
            .copied()
            .unwrap_or(0)
    }

    fn written_pages(&self) -> Vec<u32> {
        (0..self.versions.len() as u32)
            .filter(|&p| self.versions[p as usize] != 0)
            .collect()
    }
}

/// An address, placed relative to the memory under test once its size is
/// known: anywhere (up to a few bytes past the end), around a page
/// boundary, or around the end of memory (`End(3)` is `size - 1`, `End(4)`
/// is exactly `size`).
#[derive(Clone, Copy, Debug)]
enum Addr {
    Anywhere(u32),
    PageEdge(u32, u32),
    End(u32),
}

impl Addr {
    fn resolve(self, size: usize) -> u32 {
        let size = size as u32;
        match self {
            Addr::Anywhere(x) => x % (size + 8),
            Addr::PageEdge(page, d) => {
                let page = page % (size.div_ceil(PAGE_SIZE) + 1);
                (page * PAGE_SIZE).saturating_sub(4) + d
            }
            Addr::End(d) => size - 4 + d,
        }
    }
}

fn arb_addr() -> impl Strategy<Value = Addr> {
    prop_oneof![
        any::<u32>().prop_map(Addr::Anywhere),
        (0..8u32, 0..8u32).prop_map(|(p, d)| Addr::PageEdge(p, d)),
        (0..8u32).prop_map(Addr::End),
    ]
}

#[derive(Clone, Debug)]
enum Op {
    /// Address and width (1, 2 or 4).
    Read(Addr, usize),
    Write8(Addr, u8),
    Write16(Addr, u16),
    Write32(Addr, u32),
    /// Address, length and a fill seed.
    WriteBytes(Addr, usize, u8),
    Zero(Addr, usize),
    /// Address and word count: `read_words`.
    ReadWords(Addr, usize),
    /// Address, word count and a fill seed: `write_words`.
    WriteWords(Addr, usize, u32),
    Clone,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_addr(), 0..3u32).prop_map(|(a, w)| Op::Read(a, 1 << w)),
        (arb_addr(), 0..3u32).prop_map(|(a, w)| Op::Read(a, 1 << w)),
        (arb_addr(), any::<u8>()).prop_map(|(a, v)| Op::Write8(a, v)),
        (arb_addr(), any::<u16>()).prop_map(|(a, v)| Op::Write16(a, v)),
        (arb_addr(), any::<u32>()).prop_map(|(a, v)| Op::Write32(a, v)),
        (arb_addr(), 0..2 * PAGE, any::<u8>()).prop_map(|(a, n, s)| Op::WriteBytes(a, n, s)),
        (arb_addr(), 0..2 * PAGE).prop_map(|(a, n)| Op::Zero(a, n)),
        (arb_addr(), 0..PAGE / 2).prop_map(|(a, n)| Op::ReadWords(a, n)),
        (arb_addr(), 0..PAGE / 2, any::<u32>()).prop_map(|(a, n, s)| Op::WriteWords(a, n, s)),
        Just(Op::Clone),
    ]
}

/// Every byte of `mem`, read in one span.
fn contents(mem: &Memory) -> Vec<u8> {
    let mut out = vec![0xa5; mem.size()];
    mem.read_into(0, &mut out).unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn memory_matches_a_flat_model(
        size_idx in 0..SIZES.len(),
        ops in prop::collection::vec(arb_op(), 0..48),
    ) {
        let size = SIZES[size_idx];
        let mut mem = Memory::new(size);
        let mut model = Model::new(size);
        for op in &ops {
            let at = |a: Addr| a.resolve(size);
            match *op {
                Op::Read(a, n) => {
                    let a = at(a);
                    let got = match n {
                        1 => mem.read_u8(a).map(|v| vec![v]),
                        2 => mem.read_u16(a).map(|v| v.to_le_bytes().to_vec()),
                        _ => mem.read_u32(a).map(|v| v.to_le_bytes().to_vec()),
                    };
                    prop_assert_eq!(&got, &model.read(a, n), "read {} at {:#x}", n, a);
                    let mut out = vec![0xa5; n];
                    let copied = mem.read_into(a, &mut out).map(|()| out);
                    prop_assert_eq!(copied, got, "read_into {} at {:#x}", n, a);
                }
                Op::Write8(a, v) => {
                    let a = at(a);
                    prop_assert_eq!(mem.write_u8(a, v), model.write(a, &[v]));
                }
                Op::Write16(a, v) => {
                    let a = at(a);
                    prop_assert_eq!(mem.write_u16(a, v), model.write(a, &v.to_le_bytes()));
                }
                Op::Write32(a, v) => {
                    let a = at(a);
                    prop_assert_eq!(mem.write_u32(a, v), model.write(a, &v.to_le_bytes()));
                }
                Op::WriteBytes(a, n, seed) => {
                    let a = at(a);
                    let data: Vec<u8> = (0..n).map(|i| seed.wrapping_add(i as u8)).collect();
                    prop_assert_eq!(mem.write_bytes(a, &data), model.write(a, &data));
                }
                Op::Zero(a, n) => {
                    let a = at(a);
                    prop_assert_eq!(mem.zero(a, n), model.write(a, &vec![0; n]));
                }
                Op::ReadWords(a, n) => {
                    let a = at(a);
                    let mut out = vec![0xa5a5_a5a5; n];
                    let got = mem.read_words(a, &mut out).map(|()| out);
                    let want = (0..n)
                        .map(|i| {
                            let w = model.read(a + 4 * i as u32, 4)?;
                            Ok(u32::from_le_bytes(w.try_into().unwrap()))
                        })
                        .collect::<Result<Vec<_>, _>>();
                    prop_assert_eq!(got, want, "read_words {} at {:#x}", n, a);
                }
                Op::WriteWords(a, n, seed) => {
                    let a = at(a);
                    let words: Vec<u32> = (0..n as u32).map(|i| seed.wrapping_add(i)).collect();
                    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                    // A run that fits is one write: one bump per page. One
                    // that does not is written word by word up to the end.
                    let want = if model.span(a, bytes.len()).is_ok() {
                        model.write(a, &bytes)
                    } else {
                        words.iter().enumerate().try_for_each(|(i, w)| {
                            model.write(a + 4 * i as u32, &w.to_le_bytes())
                        })
                    };
                    prop_assert_eq!(mem.write_words(a, &words), want, "write_words {} at {:#x}", n, a);
                }
                Op::Clone => mem = mem.clone(),
            }
            prop_assert_eq!(mem.size(), size);
            prop_assert!(mem.backed_bytes() <= size);
            prop_assert_eq!(mem.written_pages().collect::<Vec<_>>(), model.written_pages());
            for page in 0..=size.div_ceil(PAGE) {
                let paddr = (page * PAGE) as u32;
                prop_assert_eq!(mem.page_version(paddr), model.page_version(paddr));
            }
        }
        prop_assert!(contents(&mem) == model.bytes, "contents differ from the model");
        // Nothing non-zero lies past the backed end.
        prop_assert!(model.bytes[mem.backed_bytes()..].iter().all(|&b| b == 0));
    }
}
