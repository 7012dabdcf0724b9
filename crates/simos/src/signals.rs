//! The conventional Unix-style signal engine — the paper's baseline.
//!
//! Section 3.1 of the paper walks through Ultrix's handling of a simple
//! synchronous exception: the kernel saves all user state, **posts** a
//! signal (translating the hardware cause into a Unix signal number),
//! **recognizes** it, and **delivers** it by copying a sigcontext onto the
//! user stack and redirecting the exception return into trampoline code,
//! which calls the user handler and finally issues a `sigreturn` system
//! call to restore state. This module implements that structure
//! functionally; its host-charged phase costs are the `ULTRIX_*` constants
//! in [`crate::costs`], calibrated so a null-handler round trip lands at
//! the paper's ~80 µs.

use std::fmt;

use efex_mips::exception::ExcCode;
use efex_mips::machine::Machine;

/// Unix signal numbers (the subset synchronous exceptions map to).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum Signal {
    /// Illegal instruction.
    Ill = 4,
    /// Breakpoint / trace trap.
    Trap = 5,
    /// Arithmetic exception.
    Fpe = 8,
    /// Bus error (unaligned access maps here on Ultrix).
    Bus = 10,
    /// Segmentation violation.
    Segv = 11,
    /// Bad system call.
    Sys = 12,
}

impl Signal {
    /// The posting-phase translation from hardware exception to Unix
    /// signal, as the Ultrix C routine performs it.
    pub fn from_exc(code: ExcCode) -> Option<Signal> {
        Some(match code {
            ExcCode::TlbMod | ExcCode::TlbLoad | ExcCode::TlbStore => Signal::Segv,
            ExcCode::AddrErrLoad | ExcCode::AddrErrStore => Signal::Bus,
            ExcCode::BusErrFetch | ExcCode::BusErrData => Signal::Bus,
            ExcCode::Breakpoint => Signal::Trap,
            ExcCode::Overflow => Signal::Fpe,
            ExcCode::ReservedInstr | ExcCode::CopUnusable => Signal::Ill,
            ExcCode::Syscall => Signal::Sys,
            ExcCode::Interrupt => return None,
        })
    }

    /// Decodes a Unix signal number (the `sigaction` argument).
    pub fn from_number(n: u32) -> Option<Signal> {
        Signal::ALL.iter().copied().find(|s| *s as u32 == n)
    }

    /// All signals this engine can deliver.
    pub const ALL: [Signal; 6] = [
        Signal::Ill,
        Signal::Trap,
        Signal::Fpe,
        Signal::Bus,
        Signal::Segv,
        Signal::Sys,
    ];

    fn index(self) -> usize {
        Signal::ALL.iter().position(|s| *s == self).expect("in ALL")
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Signal::Ill => "SIGILL",
            Signal::Trap => "SIGTRAP",
            Signal::Fpe => "SIGFPE",
            Signal::Bus => "SIGBUS",
            Signal::Segv => "SIGSEGV",
            Signal::Sys => "SIGSYS",
        })
    }
}

/// What happens when a signal is recognized (the `sigaction` disposition).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Disposition {
    /// Terminate the process (SIG_DFL for these signals).
    #[default]
    Default,
    /// Discard the signal (SIG_IGN). For program-synchronous faults this
    /// resumes at the faulting instruction — which will fault again, the
    /// looping behaviour the paper notes Unix systems permit.
    Ignore,
    /// Deliver to a user handler at this address.
    Handler(u32),
}

/// Per-process signal state: dispositions and pending set.
#[derive(Clone, Debug, Default)]
pub struct SignalState {
    handlers: [Disposition; 6],
    pending: u8,
}

impl SignalState {
    /// Empty state: default disposition (terminate) for every signal.
    pub fn new() -> SignalState {
        SignalState::default()
    }

    /// Sets a signal's disposition, returning the previous one — the
    /// `sigaction` kernel half.
    pub fn set_disposition(&mut self, sig: Signal, d: Disposition) -> Disposition {
        std::mem::replace(&mut self.handlers[sig.index()], d)
    }

    /// Installs (or clears) a user handler, returning the previous handler
    /// address if one was installed.
    pub fn set_handler(&mut self, sig: Signal, handler: Option<u32>) -> Option<u32> {
        let d = match handler {
            Some(h) => Disposition::Handler(h),
            None => Disposition::Default,
        };
        match self.set_disposition(sig, d) {
            Disposition::Handler(h) => Some(h),
            _ => None,
        }
    }

    /// The signal's disposition.
    pub fn disposition(&self, sig: Signal) -> Disposition {
        self.handlers[sig.index()]
    }

    /// The raw per-signal dispositions, indexed like [`Signal::ALL`]
    /// (checkpointing).
    pub fn dispositions(&self) -> [Disposition; 6] {
        self.handlers
    }

    /// The raw pending bitmask, one bit per [`Signal::ALL`] index
    /// (checkpointing).
    pub fn pending_raw(&self) -> u8 {
        self.pending
    }

    /// Replaces dispositions and pending set with checkpointed state.
    pub fn restore_raw(&mut self, handlers: [Disposition; 6], pending: u8) {
        self.handlers = handlers;
        self.pending = pending;
    }

    /// The installed handler for a signal, if any.
    pub fn handler(&self, sig: Signal) -> Option<u32> {
        match self.handlers[sig.index()] {
            Disposition::Handler(h) => Some(h),
            _ => None,
        }
    }

    /// Posting phase: marks the signal pending.
    pub fn post(&mut self, sig: Signal) {
        self.pending |= 1 << sig.index();
    }

    /// Recognition phase: takes the lowest pending signal, clearing it.
    pub fn recognize(&mut self) -> Option<Signal> {
        for sig in Signal::ALL {
            if self.pending & (1 << sig.index()) != 0 {
                self.pending &= !(1 << sig.index());
                return Some(sig);
            }
        }
        None
    }

    /// Whether any signal is pending.
    pub fn any_pending(&self) -> bool {
        self.pending != 0
    }
}

/// The sigcontext the delivery phase copies onto the user stack:
/// 32 GPRs, HI, LO, PC, cause, badvaddr — 37 words.
pub const SIGCONTEXT_WORDS: u32 = 37;

/// Byte size of a sigcontext.
pub const SIGCONTEXT_BYTES: u32 = SIGCONTEXT_WORDS * 4;

/// Offsets of the non-GPR words within the sigcontext.
pub mod sigcontext {
    /// `$0..$31` at words 0..32.
    pub const REGS: u32 = 0;
    /// Multiply/divide HI register.
    pub const HI: u32 = 32 * 4;
    /// Multiply/divide LO register.
    pub const LO: u32 = 33 * 4;
    /// Continuation program counter.
    pub const PC: u32 = 34 * 4;
    /// CP0 cause register at the fault.
    pub const CAUSE: u32 = 35 * 4;
    /// CP0 bad-virtual-address register at the fault.
    pub const BADVADDR: u32 = 36 * 4;
}

/// Writes the faulting context into guest memory at `sc` (user virtual
/// address, already mapped and resident): the 37 words, in frame order,
/// as one [`Machine::poke_words`] run. `pc` is the continuation PC (the
/// faulting instruction, or the branch when `BD` was set).
///
/// # Errors
///
/// Returns the guest exception of the first word that cannot be written
/// — the classic "signal stack overflow" double fault, which callers turn
/// into process termination. The words before it are written.
pub fn write_sigcontext(
    m: &mut Machine,
    sc: u32,
    pc: u32,
    cause: u32,
    badvaddr: u32,
) -> Result<(), efex_mips::exception::Exception> {
    let cpu = m.cpu();
    let mut frame = [0u32; SIGCONTEXT_WORDS as usize];
    frame[..32].copy_from_slice(&cpu.regs());
    frame[32..].copy_from_slice(&[cpu.hi(), cpu.lo(), pc, cause, badvaddr]);
    m.poke_words(sc, &frame, false)
}

/// Restores machine state from a sigcontext (the `sigreturn` kernel half):
/// the GPRs, HI, LO and PC are read as one [`Machine::peek_words`] run and
/// all restored. Returns the continuation PC.
///
/// # Errors
///
/// Returns the guest exception of the first unreadable word of that run;
/// no register changes then.
pub fn read_sigcontext(m: &mut Machine, sc: u32) -> Result<u32, efex_mips::exception::Exception> {
    // Words 0..=34: the GPRs, HI, LO and PC.
    let mut frame = [0u32; (sigcontext::PC / 4 + 1) as usize];
    m.peek_words(sc, &mut frame, false)?;
    let word = |offset: u32| frame[(offset / 4) as usize];
    let cpu = m.cpu_mut();
    cpu.set_regs(frame[..32].try_into().expect("32 GPRs"));
    cpu.set_hi(word(sigcontext::HI));
    cpu.set_lo(word(sigcontext::LO));
    Ok(word(sigcontext::PC))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exc_to_signal_translation() {
        assert_eq!(Signal::from_exc(ExcCode::TlbMod), Some(Signal::Segv));
        assert_eq!(Signal::from_exc(ExcCode::AddrErrLoad), Some(Signal::Bus));
        assert_eq!(Signal::from_exc(ExcCode::Breakpoint), Some(Signal::Trap));
        assert_eq!(Signal::from_exc(ExcCode::Overflow), Some(Signal::Fpe));
        assert_eq!(Signal::from_exc(ExcCode::Interrupt), None);
    }

    #[test]
    fn post_and_recognize_fifo_by_number() {
        let mut s = SignalState::new();
        assert_eq!(s.recognize(), None);
        s.post(Signal::Segv);
        s.post(Signal::Trap);
        assert!(s.any_pending());
        assert_eq!(s.recognize(), Some(Signal::Trap), "lowest number first");
        assert_eq!(s.recognize(), Some(Signal::Segv));
        assert_eq!(s.recognize(), None);
    }

    #[test]
    fn duplicate_posts_collapse() {
        let mut s = SignalState::new();
        s.post(Signal::Bus);
        s.post(Signal::Bus);
        assert_eq!(s.recognize(), Some(Signal::Bus));
        assert_eq!(s.recognize(), None);
    }

    #[test]
    fn handlers_install_and_replace() {
        let mut s = SignalState::new();
        assert_eq!(s.set_handler(Signal::Segv, Some(0x1000)), None);
        assert_eq!(s.set_handler(Signal::Segv, Some(0x2000)), Some(0x1000));
        assert_eq!(s.handler(Signal::Segv), Some(0x2000));
        assert_eq!(s.handler(Signal::Bus), None);
    }
}
