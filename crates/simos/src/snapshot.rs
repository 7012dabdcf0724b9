//! Kernel-level checkpoint state and its wire encoding.
//!
//! [`KernelState`] extends the machine image
//! ([`efex_mips::snapshot::MachineState`]) with everything the simulated
//! kernel adds on top: the process (page table, signal state, fast-path
//! registration, subpage masks, stats, brk, exit status), the frame
//! allocator (free-list order included — frees are reused LIFO), console
//! output, kernel configuration knobs, and the in-flight Unix-signal
//! delivery stack. [`Kernel::snapshot`]/[`Kernel::restore`] convert
//! between a live kernel and this struct; the functions here convert
//! between the struct and [`efex_snap::Flavor::Kernel`] artifacts.
//!
//! Host-side observability — trace sinks, metrics, pending fault
//! injections, the last degrade diagnostic — is *not* part of a snapshot:
//! it belongs to the observer, not the observed guest, and a restored
//! kernel keeps the receiver's.
//!
//! [`Kernel::snapshot`]: crate::kernel::Kernel::snapshot
//! [`Kernel::restore`]: crate::kernel::Kernel::restore

use efex_mips::exception::ExcCode;
use efex_mips::snapshot::MachineState;
use efex_snap::{Flavor, Reader, SnapError, Writer};
use efex_trace::FaultClass;

use crate::fastexc::FastExcState;
use crate::process::ProcStats;
use crate::signals::Disposition;
use crate::vm::{Prot, Pte};

/// One checkpointed page-table entry: `(virtual page number, PTE image)`.
#[derive(Clone, Copy, Debug)]
pub struct PteState {
    /// Virtual page number (`vaddr >> 12`).
    pub vpn: u32,
    /// Backing physical frame, if resident.
    pub pfn: Option<u32>,
    /// Page protection.
    pub prot: Prot,
    /// User code may adjust this page's protection via `utlbp`.
    pub user_modifiable: bool,
    /// Pinned (the communication page).
    pub pinned: bool,
    /// Written since mapping.
    pub dirty: bool,
}

/// The complete state of one simulated kernel and its process.
#[derive(Clone, Debug)]
pub struct KernelState {
    /// The underlying machine (registers, CP0, TLB, memory).
    pub machine: MachineState,
    /// [`Machine::step_digest`] at capture time — restore recomputes it
    /// and refuses to hand back a kernel whose registers diverged.
    ///
    /// [`Machine::step_digest`]: efex_mips::machine::Machine::step_digest
    pub machine_digest: u64,
    /// Process id.
    pub pid: u32,
    /// Address-space identifier.
    pub asid: u8,
    /// Every mapped page, ascending by vpn.
    pub pages: Vec<PteState>,
    /// Per-signal dispositions, indexed like [`crate::signals::Signal::ALL`].
    pub signal_dispositions: [Disposition; 6],
    /// Pending-signal bitmask.
    pub signals_pending: u8,
    /// Fast-path registration (mask, handler, comm page).
    pub fast: FastExcState,
    /// Subpage protection masks as `(vpn, mask)`, ascending.
    pub subpage: Vec<(u32, u8)>,
    /// Per-process delivery counters.
    pub stats: ProcStats,
    /// Program break.
    pub brk: u32,
    /// Exit status, if the process already exited.
    pub exited: Option<i32>,
    /// Frame allocator: next never-allocated frame.
    pub frames_next: u32,
    /// Frame allocator: first frame past the allocatable range.
    pub frames_limit: u32,
    /// Frame allocator free list, in LIFO order.
    pub frames_free: Vec<u32>,
    /// Total frames ever handed out.
    pub frames_allocated: u64,
    /// Bytes the guest wrote to the console so far.
    pub console: Vec<u8>,
    /// Ultrix-style unaligned-access fixup enabled.
    pub fixup_unaligned: bool,
    /// Round-robin cursor of the kernel TLB-refill path.
    pub refill_rr: u64,
    /// Unix-signal deliveries in flight, innermost last:
    /// `(class, code, handler-entry cycles)`.
    pub unix_pending: Vec<(FaultClass, ExcCode, u64)>,
}

fn prot_tag(p: Prot) -> u8 {
    match p {
        Prot::None => 0,
        Prot::Read => 1,
        Prot::ReadWrite => 2,
    }
}

fn prot_from_tag(tag: u8) -> Result<Prot, SnapError> {
    match tag {
        0 => Ok(Prot::None),
        1 => Ok(Prot::Read),
        2 => Ok(Prot::ReadWrite),
        t => Err(SnapError::Corrupt(format!("protection tag {t}"))),
    }
}

fn disposition_encode(w: &mut Writer, d: Disposition) {
    match d {
        Disposition::Default => w.u8(0),
        Disposition::Ignore => w.u8(1),
        Disposition::Handler(addr) => {
            w.u8(2);
            w.u32(addr);
        }
    }
}

fn disposition_decode(r: &mut Reader<'_>) -> Result<Disposition, SnapError> {
    match r.u8()? {
        0 => Ok(Disposition::Default),
        1 => Ok(Disposition::Ignore),
        2 => Ok(Disposition::Handler(r.u32()?)),
        t => Err(SnapError::Corrupt(format!("disposition tag {t}"))),
    }
}

impl KernelState {
    /// Appends this state to an in-progress snapshot payload.
    pub fn encode(&self, w: &mut Writer) {
        self.machine.encode(w);
        w.u64(self.machine_digest);
        w.u32(self.pid);
        w.u8(self.asid);
        w.u32(self.pages.len() as u32);
        for p in &self.pages {
            w.u32(p.vpn);
            match p.pfn {
                None => w.bool(false),
                Some(pfn) => {
                    w.bool(true);
                    w.u32(pfn);
                }
            }
            w.u8(prot_tag(p.prot));
            w.bool(p.user_modifiable);
            w.bool(p.pinned);
            w.bool(p.dirty);
        }
        for d in self.signal_dispositions {
            disposition_encode(w, d);
        }
        w.u8(self.signals_pending);
        w.u32(self.fast.enabled_mask);
        w.u32(self.fast.handler);
        w.u32(self.fast.comm_vaddr);
        w.u32(self.fast.comm_kseg0);
        w.bool(self.fast.eager_amplification);
        w.u32(self.subpage.len() as u32);
        for (vpn, mask) in &self.subpage {
            w.u32(*vpn);
            w.u8(*mask);
        }
        for c in [
            self.stats.signals_delivered,
            self.stats.fast_delivered,
            self.stats.page_faults,
            self.stats.tlb_refills,
            self.stats.syscalls,
            self.stats.subpage_emulations,
            self.stats.eager_amplifications,
            self.stats.degraded_deliveries,
            self.stats.utlb_repairs,
            self.stats.comm_page_repairs,
        ] {
            w.u64(c);
        }
        w.u32(self.brk);
        match self.exited {
            None => w.bool(false),
            Some(code) => {
                w.bool(true);
                w.i32(code);
            }
        }
        w.u32(self.frames_next);
        w.u32(self.frames_limit);
        w.u32(self.frames_free.len() as u32);
        for pfn in &self.frames_free {
            w.u32(*pfn);
        }
        w.u64(self.frames_allocated);
        w.bytes(&self.console);
        w.bool(self.fixup_unaligned);
        w.u64(self.refill_rr);
        w.u32(self.unix_pending.len() as u32);
        for (class, code, cycles) in &self.unix_pending {
            w.u8(*class as u8);
            w.u8(code.code() as u8);
            w.u64(*cycles);
        }
    }

    /// Decodes a state from an in-progress snapshot payload.
    ///
    /// # Errors
    ///
    /// Typed [`SnapError`] on truncation or forbidden field values.
    pub fn decode(r: &mut Reader<'_>) -> Result<KernelState, SnapError> {
        let machine = MachineState::decode(r)?;
        let machine_digest = r.u64()?;
        let pid = r.u32()?;
        let asid = r.u8()?;
        let n_pages = r.count(4 + 1 + 1 + 3)?;
        let mut pages = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            let vpn = r.u32()?;
            let pfn = if r.bool()? { Some(r.u32()?) } else { None };
            let prot = prot_from_tag(r.u8()?)?;
            pages.push(PteState {
                vpn,
                pfn,
                prot,
                user_modifiable: r.bool()?,
                pinned: r.bool()?,
                dirty: r.bool()?,
            });
        }
        let mut signal_dispositions = [Disposition::Default; 6];
        for d in &mut signal_dispositions {
            *d = disposition_decode(r)?;
        }
        let signals_pending = r.u8()?;
        let fast = FastExcState {
            enabled_mask: r.u32()?,
            handler: r.u32()?,
            comm_vaddr: r.u32()?,
            comm_kseg0: r.u32()?,
            eager_amplification: r.bool()?,
        };
        let n_subpage = r.count(5)?;
        let mut subpage = Vec::with_capacity(n_subpage);
        for _ in 0..n_subpage {
            subpage.push((r.u32()?, r.u8()?));
        }
        let stats = ProcStats {
            signals_delivered: r.u64()?,
            fast_delivered: r.u64()?,
            page_faults: r.u64()?,
            tlb_refills: r.u64()?,
            syscalls: r.u64()?,
            subpage_emulations: r.u64()?,
            eager_amplifications: r.u64()?,
            degraded_deliveries: r.u64()?,
            utlb_repairs: r.u64()?,
            comm_page_repairs: r.u64()?,
        };
        let brk = r.u32()?;
        let exited = if r.bool()? { Some(r.i32()?) } else { None };
        let frames_next = r.u32()?;
        let frames_limit = r.u32()?;
        let n_free = r.count(4)?;
        let mut frames_free = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            frames_free.push(r.u32()?);
        }
        let frames_allocated = r.u64()?;
        let console = r.bytes()?.to_vec();
        let fixup_unaligned = r.bool()?;
        let refill_rr = r.u64()?;
        let n_pending = r.count(1 + 1 + 8)?;
        let mut unix_pending = Vec::with_capacity(n_pending);
        for _ in 0..n_pending {
            let class_tag = r.u8()?;
            let class = *FaultClass::ALL
                .get(class_tag as usize)
                .ok_or_else(|| SnapError::Corrupt(format!("fault-class tag {class_tag}")))?;
            let code_tag = r.u8()?;
            let code = ExcCode::from_code(u32::from(code_tag))
                .ok_or_else(|| SnapError::Corrupt(format!("exception code {code_tag}")))?;
            unix_pending.push((class, code, r.u64()?));
        }
        Ok(KernelState {
            machine,
            machine_digest,
            pid,
            asid,
            pages,
            signal_dispositions,
            signals_pending,
            fast,
            subpage,
            stats,
            brk,
            exited,
            frames_next,
            frames_limit,
            frames_free,
            frames_allocated,
            console,
            fixup_unaligned,
            refill_rr,
            unix_pending,
        })
    }

    /// Serializes this state as a standalone [`Flavor::Kernel`] artifact.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(Flavor::Kernel);
        self.encode(&mut w);
        w.finish()
    }

    /// Deserializes a standalone [`Flavor::Kernel`] artifact.
    ///
    /// # Errors
    ///
    /// Typed [`SnapError`] on any malformation; never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<KernelState, SnapError> {
        let mut r = Reader::open(bytes, Flavor::Kernel)?;
        let s = KernelState::decode(&mut r)?;
        r.done()?;
        Ok(s)
    }

    /// Rebuilds the checkpointed PTE image as a live [`Pte`].
    pub fn pte_of(p: &PteState) -> Pte {
        Pte {
            pfn: p.pfn,
            prot: p.prot,
            user_modifiable: p.user_modifiable,
            pinned: p.pinned,
            dirty: p.dirty,
        }
    }
}
