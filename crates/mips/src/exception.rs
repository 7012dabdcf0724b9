//! Exception causes, matching the R3000 `Cause.ExcCode` field.

use std::fmt;

/// Hardware exception codes, as stored in `Cause.ExcCode`.
///
/// These follow the R3000 numbering. The paper's mechanisms deal with the
/// *program-synchronous* subset — everything except [`ExcCode::Interrupt`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum ExcCode {
    /// External interrupt (asynchronous; untouched by the paper's paths).
    Interrupt = 0,
    /// TLB modification: store hit an entry with the dirty bit clear
    /// (i.e., a write-protected page).
    TlbMod = 1,
    /// TLB miss or invalid entry on a load or instruction fetch.
    TlbLoad = 2,
    /// TLB miss or invalid entry on a store.
    TlbStore = 3,
    /// Address error on load/fetch: unaligned access or a user-mode
    /// reference to kernel space.
    AddrErrLoad = 4,
    /// Address error on store.
    AddrErrStore = 5,
    /// Bus error on instruction fetch (physical address out of range).
    BusErrFetch = 6,
    /// Bus error on data access.
    BusErrData = 7,
    /// `syscall` instruction.
    Syscall = 8,
    /// `break` instruction.
    Breakpoint = 9,
    /// Reserved (undefined) instruction.
    ReservedInstr = 10,
    /// Coprocessor unusable.
    CopUnusable = 11,
    /// Integer overflow from `add`, `addi`, or `sub`.
    Overflow = 12,
}

impl ExcCode {
    /// All defined codes.
    pub const ALL: [ExcCode; 13] = [
        ExcCode::Interrupt,
        ExcCode::TlbMod,
        ExcCode::TlbLoad,
        ExcCode::TlbStore,
        ExcCode::AddrErrLoad,
        ExcCode::AddrErrStore,
        ExcCode::BusErrFetch,
        ExcCode::BusErrData,
        ExcCode::Syscall,
        ExcCode::Breakpoint,
        ExcCode::ReservedInstr,
        ExcCode::CopUnusable,
        ExcCode::Overflow,
    ];

    /// Decodes the numeric `ExcCode` field value.
    pub fn from_code(code: u32) -> Option<ExcCode> {
        ExcCode::ALL.get(code as usize).copied()
    }

    /// The numeric value stored in `Cause.ExcCode`.
    pub fn code(self) -> u32 {
        self as u32
    }

    /// Whether the exception is program-synchronous (caused by the executing
    /// instruction), as opposed to an external interrupt.
    pub fn is_synchronous(self) -> bool {
        self != ExcCode::Interrupt
    }

    /// Whether this is one of the TLB-related exceptions that require the
    /// kernel to consult memory-management state (Section 3.2.2).
    pub fn is_tlb(self) -> bool {
        matches!(self, ExcCode::TlbMod | ExcCode::TlbLoad | ExcCode::TlbStore)
    }

    /// Whether the exception carries a bad virtual address, which exception
    /// entry latches into `BadVAddr`: the TLB faults, the address errors
    /// and the bus errors.
    pub fn has_bad_vaddr(self) -> bool {
        use ExcCode::*;
        self.is_tlb() || matches!(self, AddrErrLoad | AddrErrStore | BusErrFetch | BusErrData)
    }
}

impl fmt::Display for ExcCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExcCode::Interrupt => "interrupt",
            ExcCode::TlbMod => "TLB modification",
            ExcCode::TlbLoad => "TLB load miss",
            ExcCode::TlbStore => "TLB store miss",
            ExcCode::AddrErrLoad => "address error (load)",
            ExcCode::AddrErrStore => "address error (store)",
            ExcCode::BusErrFetch => "bus error (fetch)",
            ExcCode::BusErrData => "bus error (data)",
            ExcCode::Syscall => "syscall",
            ExcCode::Breakpoint => "breakpoint",
            ExcCode::ReservedInstr => "reserved instruction",
            ExcCode::CopUnusable => "coprocessor unusable",
            ExcCode::Overflow => "arithmetic overflow",
        };
        f.write_str(s)
    }
}

/// A raised exception, before vectoring: the cause plus the faulting
/// context the hardware latches into CP0.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Exception {
    /// Why the exception was raised.
    pub code: ExcCode,
    /// The bad virtual address: `Some` exactly when
    /// [`ExcCode::has_bad_vaddr`] holds.
    pub bad_vaddr: Option<u32>,
    /// Whether the faulting instruction sits in a branch delay slot.
    pub in_delay_slot: bool,
    /// Address of the faulting instruction (EPC names the branch instead
    /// when it sits in a delay slot: [`crate::sem::exception_entry`]).
    pub pc: u32,
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at pc {:#010x}", self.code, self.pc)?;
        if let Some(v) = self.bad_vaddr {
            write!(f, " (vaddr {v:#010x})")?;
        }
        if self.in_delay_slot {
            write!(f, " [delay slot]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for c in ExcCode::ALL {
            assert_eq!(ExcCode::from_code(c.code()), Some(c));
        }
        assert_eq!(ExcCode::from_code(13), None);
    }

    #[test]
    fn classification() {
        assert!(!ExcCode::Interrupt.is_synchronous());
        assert!(ExcCode::Breakpoint.is_synchronous());
        assert!(ExcCode::TlbMod.is_tlb());
        assert!(!ExcCode::Overflow.is_tlb());
        assert!(ExcCode::TlbMod.has_bad_vaddr());
        assert!(ExcCode::AddrErrStore.has_bad_vaddr());
        assert!(ExcCode::BusErrData.has_bad_vaddr());
        assert!(!ExcCode::Breakpoint.has_bad_vaddr());
        assert!(!ExcCode::Overflow.has_bad_vaddr());
    }

    #[test]
    fn display_includes_context() {
        let e = Exception {
            code: ExcCode::AddrErrLoad,
            bad_vaddr: Some(0x1002),
            in_delay_slot: true,
            pc: 0x400000,
        };
        let s = e.to_string();
        assert!(s.contains("address error"));
        assert!(s.contains("0x00001002"));
        assert!(s.contains("delay slot"));
    }
}
