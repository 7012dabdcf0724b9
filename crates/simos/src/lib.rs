//! # efex-simos — a simulated operating system kernel
//!
//! The software substrate for the efex reproduction of Thekkath & Levy
//! (ASPLOS 1994). This crate implements, over the [`efex_mips`] machine:
//!
//! - a **conventional Unix-style signal path** ([`signals`]) with the three
//!   kernel phases the paper describes — post, recognize, deliver — a
//!   sigcontext copied to the user stack, trampoline code, and a `sigreturn`
//!   system call. Its costs are calibrated to the paper's Ultrix
//!   measurements (Section 3.1, Table 1).
//! - the paper's **fast user-level exception path** ([`fastexc`]): a guest
//!   assembly first-level kernel handler that decodes the exception, checks
//!   per-process enablement, saves minimal state into a pinned user
//!   communication page, and returns from the exception directly into the
//!   user's handler. The handler's phases are labeled so its instruction
//!   counts regenerate Table 3.
//! - **virtual memory** ([`vm`]): per-process page tables, a physical frame
//!   allocator ([`frames`]), demand paging with a simulated disk, `mprotect`
//!   with TLB shootdown, page pinning, and the user-modifiable TLB bit.
//! - **eager amplification** and **subpage protection emulation**
//!   ([`subpage`]) as described in Sections 3.2.3–3.2.4, including
//!   branch-delay-slot instruction emulation.
//! - a **system call layer** ([`syscall`]) and the [`kernel::Kernel`] that
//!   ties the machine, the current process, and both delivery paths
//!   together.
//! - **static verification** ([`verify`]): the [`efex_verify`] analyzer
//!   instantiated with this kernel's layout contracts; debug builds check
//!   both embedded images at boot.

#![warn(missing_docs)]
#![deny(clippy::let_underscore_must_use)]

pub mod compose;
pub mod costs;
pub mod fastexc;
pub mod frames;
pub mod kernel;
pub mod layout;
pub mod process;
pub mod signals;
pub mod snapshot;
pub mod subpage;
pub mod syscall;
pub mod verify;
pub mod vm;

pub use kernel::{EfexError, InjectAction, Kernel, KernelError, RunOutcome};
pub use process::Process;
pub use vm::Prot;
