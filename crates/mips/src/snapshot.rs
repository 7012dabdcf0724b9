//! Machine-level checkpoint state and its wire encoding.
//!
//! [`MachineState`] is the plain-data image of everything
//! architecturally visible in a [`crate::machine::Machine`]: the register
//! file, CP0, the TLB with empty-slot identity preserved, the pending
//! delay-slot flag, the cycle/instret/exception counters, and the non-zero
//! pages of physical memory. [`Machine::snapshot`]/[`Machine::restore`]
//! convert between a live machine and this struct; the functions here
//! convert between the struct and the `efex-snap` wire format
//! ([`efex_snap::Flavor::Machine`] artifacts).
//!
//! [`Machine::snapshot`]: crate::machine::Machine::snapshot
//! [`Machine::restore`]: crate::machine::Machine::restore

use efex_snap::{Flavor, Reader, SnapError, Writer};

use crate::cp0::Cp0;
use crate::tlb::{TlbEntry, TLB_ENTRIES};

/// Snapshot memory granule: one [`crate::tlb::PAGE_SIZE`] physical page.
pub const SNAP_PAGE: usize = crate::tlb::PAGE_SIZE as usize;

/// The complete architectural state of one machine. Plain data — every
/// field public — so higher layers (the simulated kernel, the fleet) can
/// embed it in their own snapshot payloads.
#[derive(Clone, Debug)]
pub struct MachineState {
    /// All 32 general-purpose registers.
    pub regs: [u32; 32],
    /// Multiply/divide HI register.
    pub hi: u32,
    /// Multiply/divide LO register.
    pub lo: u32,
    /// PC of the next instruction to execute.
    pub pc: u32,
    /// PC after that (differs from `pc + 4` inside a delay slot).
    pub next_pc: u32,
    /// The previous instruction was a branch: the next one is its delay
    /// slot (drives `Cause.BD` / EPC-at-the-branch on a fault there).
    pub prev_was_branch: bool,
    /// The system coprocessor, all twelve registers.
    pub cp0: Cp0,
    /// Every TLB slot, empty slots included (an empty slot and an all-zero
    /// entry translate differently — see [`crate::tlb::Tlb::slots`]).
    pub tlb_slots: [Option<TlbEntry>; TLB_ENTRIES],
    /// The TLB mutation counter at snapshot time.
    pub tlb_generation: u64,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Instructions retired.
    pub instret: u64,
    /// Exceptions taken.
    pub exceptions_taken: u64,
    /// Physical memory size in bytes.
    pub mem_size: u32,
    /// Non-zero physical pages: `(paddr / SNAP_PAGE, SNAP_PAGE bytes)`,
    /// ascending. A final partial page (physical memory size not a multiple
    /// of [`SNAP_PAGE`]) is zero-padded to a whole page.
    pub pages: Vec<(u32, Vec<u8>)>,
}

impl MachineState {
    /// Appends this state to an in-progress snapshot payload.
    pub fn encode(&self, w: &mut Writer) {
        for r in self.regs {
            w.u32(r);
        }
        w.u32(self.hi);
        w.u32(self.lo);
        w.u32(self.pc);
        w.u32(self.next_pc);
        w.bool(self.prev_was_branch);
        for v in [
            self.cp0.index,
            self.cp0.random,
            self.cp0.entry_lo,
            self.cp0.context,
            self.cp0.bad_vaddr,
            self.cp0.entry_hi,
            self.cp0.status,
            self.cp0.cause,
            self.cp0.epc,
            self.cp0.uxt,
            self.cp0.uxc,
            self.cp0.uxm,
        ] {
            w.u32(v);
        }
        w.u64(self.tlb_generation);
        for slot in &self.tlb_slots {
            match slot {
                None => w.bool(false),
                Some(e) => {
                    w.bool(true);
                    w.u32(e.vpn);
                    w.u8(e.asid);
                    w.u32(e.pfn);
                    w.bool(e.valid);
                    w.bool(e.dirty);
                    w.bool(e.global);
                    w.bool(e.user_modifiable);
                }
            }
        }
        w.u64(self.cycles);
        w.u64(self.instret);
        w.u64(self.exceptions_taken);
        w.u32(self.mem_size);
        w.u32(self.pages.len() as u32);
        for (page_idx, bytes) in &self.pages {
            w.u32(*page_idx);
            w.bytes(bytes);
        }
    }

    /// Decodes a state from an in-progress snapshot payload.
    ///
    /// # Errors
    ///
    /// Typed [`SnapError`] on truncation or forbidden field values.
    pub fn decode(r: &mut Reader<'_>) -> Result<MachineState, SnapError> {
        let mut regs = [0u32; 32];
        for reg in &mut regs {
            *reg = r.u32()?;
        }
        let hi = r.u32()?;
        let lo = r.u32()?;
        let pc = r.u32()?;
        let next_pc = r.u32()?;
        let prev_was_branch = r.bool()?;
        let mut cp0 = Cp0::new();
        cp0.index = r.u32()?;
        cp0.random = r.u32()?;
        cp0.entry_lo = r.u32()?;
        cp0.context = r.u32()?;
        cp0.bad_vaddr = r.u32()?;
        cp0.entry_hi = r.u32()?;
        cp0.status = r.u32()?;
        cp0.cause = r.u32()?;
        cp0.epc = r.u32()?;
        cp0.uxt = r.u32()?;
        cp0.uxc = r.u32()?;
        cp0.uxm = r.u32()?;
        let tlb_generation = r.u64()?;
        let mut tlb_slots = [None; TLB_ENTRIES];
        for slot in &mut tlb_slots {
            if r.bool()? {
                *slot = Some(TlbEntry {
                    vpn: r.u32()?,
                    asid: r.u8()?,
                    pfn: r.u32()?,
                    valid: r.bool()?,
                    dirty: r.bool()?,
                    global: r.bool()?,
                    user_modifiable: r.bool()?,
                });
            }
        }
        let cycles = r.u64()?;
        let instret = r.u64()?;
        let exceptions_taken = r.u64()?;
        let mem_size = r.u32()?;
        let n_pages = r.count(4 + 4 + SNAP_PAGE)?;
        let mut pages = Vec::with_capacity(n_pages);
        let mut prev_idx: Option<u32> = None;
        for _ in 0..n_pages {
            let page_idx = r.u32()?;
            if prev_idx.is_some_and(|p| page_idx <= p) {
                return Err(SnapError::Corrupt(format!(
                    "memory pages out of order at page {page_idx:#x}"
                )));
            }
            prev_idx = Some(page_idx);
            let bytes = r.bytes()?;
            if bytes.len() != SNAP_PAGE {
                return Err(SnapError::Corrupt(format!(
                    "memory page {page_idx:#x} is {} bytes, expected {SNAP_PAGE}",
                    bytes.len()
                )));
            }
            pages.push((page_idx, bytes.to_vec()));
        }
        Ok(MachineState {
            regs,
            hi,
            lo,
            pc,
            next_pc,
            prev_was_branch,
            cp0,
            tlb_slots,
            tlb_generation,
            cycles,
            instret,
            exceptions_taken,
            mem_size,
            pages,
        })
    }

    /// Serializes this state as a standalone [`Flavor::Machine`] artifact.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(Flavor::Machine);
        self.encode(&mut w);
        w.finish()
    }

    /// Deserializes a standalone [`Flavor::Machine`] artifact.
    ///
    /// # Errors
    ///
    /// Typed [`SnapError`] on any malformation; never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<MachineState, SnapError> {
        let mut r = Reader::open(bytes, Flavor::Machine)?;
        let s = MachineState::decode(&mut r)?;
        r.done()?;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    #[test]
    fn wire_round_trip_preserves_everything() {
        let mut m = Machine::new(1 << 16);
        m.mem_mut().write_u32(0x2000, 0xdead_beef).unwrap();
        m.mem_mut().write_u32(0xf000, 0x1234_5678).unwrap();
        m.tlb_mut().write(
            3,
            TlbEntry {
                vpn: 0x400,
                asid: 5,
                pfn: 2,
                valid: true,
                dirty: false,
                global: false,
                user_modifiable: true,
            },
        );
        // An all-zero *entry* in slot 7, distinct from the empty slots.
        m.tlb_mut().write(7, TlbEntry::default());
        m.cpu_mut().set_reg(crate::isa::Reg::from_field(8), 42);
        m.cpu_mut().set_hi(0x11);
        m.cpu_mut().set_lo(0x22);
        m.set_pc(0x8000_2000);
        m.cp0_mut().epc = 0x1234;

        let state = m.snapshot();
        let bytes = state.to_bytes();
        let back = MachineState::from_bytes(&bytes).unwrap();

        assert_eq!(back.regs, state.regs);
        assert_eq!(back.hi, 0x11);
        assert_eq!(back.lo, 0x22);
        assert_eq!(back.pc, 0x8000_2000);
        assert_eq!(back.cp0.epc, 0x1234);
        assert_eq!(back.tlb_slots[3], state.tlb_slots[3]);
        assert_eq!(back.tlb_slots[7], Some(TlbEntry::default()));
        assert_eq!(back.tlb_slots[0], None);
        assert_eq!(back.tlb_generation, state.tlb_generation);
        assert_eq!(back.pages.len(), state.pages.len());
        assert_eq!(back.mem_size, 1 << 16);

        let mut m2 = Machine::new(1 << 16);
        m2.restore(&back).unwrap();
        assert_eq!(m2.step_digest(), m.step_digest());
        assert_eq!(m2.mem().read_u32(0x2000).unwrap(), 0xdead_beef);
        assert_eq!(m2.mem().read_u32(0xf000).unwrap(), 0x1234_5678);
    }

    #[test]
    fn restore_rejects_wrong_memory_size() {
        let m = Machine::new(1 << 16);
        let state = m.snapshot();
        let mut other = Machine::new(1 << 17);
        assert!(matches!(other.restore(&state), Err(SnapError::Invalid(_))));
    }

    #[test]
    fn partial_last_page_round_trips() {
        let size = 0x1800;
        let mut m = Machine::new(size);
        m.mem_mut().write_u8(0x1000, 7).unwrap();
        m.mem_mut().write_u32(0x17fc, 0xfeed_f00d).unwrap();
        let state = MachineState::from_bytes(&m.snapshot().to_bytes()).unwrap();
        assert_eq!(state.pages.len(), 1);
        let (page_idx, bytes) = &state.pages[0];
        assert_eq!(*page_idx, 1);
        assert_eq!(bytes.len(), SNAP_PAGE, "zero-padded to a whole page");
        assert!(bytes[size % SNAP_PAGE..].iter().all(|&b| b == 0));

        let mut m2 = Machine::new(size);
        m2.mem_mut().write_u32(0x0100, 1).unwrap();
        m2.mem_mut().write_u32(0x17f0, 2).unwrap();
        m2.restore(&state).unwrap();
        let all = |m: &Machine| {
            let mut out = vec![0; size];
            m.mem().read_into(0, &mut out).unwrap();
            out
        };
        assert_eq!(all(&m2), all(&m));

        // A page past the partial one is still out of range.
        let mut past_end = state.clone();
        past_end.pages[0].0 = 2;
        assert!(matches!(m2.restore(&past_end), Err(SnapError::Invalid(_))));
    }
}
