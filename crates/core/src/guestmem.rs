//! The unified guest-memory API: one trait over every entry point that can
//! read, write, and protect simulated memory.
//!
//! [`System`] (guest-level) and [`HostProcess`] (host-level) historically
//! grew separate, duplicated accessor sets. [`GuestMem`] unifies them so
//! fleet aggregation, fault-injection scenarios, and test helpers can be
//! written once, generic over both; [`Protection`] replaces the bare
//! `(vaddr, len, prot)`/`(vaddr, len, on)` argument triples with one typed,
//! builder-style request (matching the workspace's `builder()` conventions).
//!
//! [`GuestConfig`] rounds the module out for the fleet engine: a `Send +
//! Clone` construction recipe. The builders themselves are not `Send` (they
//! may hold an `Rc` trace sink, and handlers are single-threaded closures),
//! so multi-tenant workers ship a `GuestConfig` across the thread boundary
//! and build the tenant — sink, handlers and all — inside the worker.

use efex_mips::machine::MachineConfig;
use efex_simos::Prot;

use crate::delivery::DeliveryPath;
use crate::error::CoreError;
use crate::host::{DegradePolicy, HostBuilder, HostProcess};
use crate::system::{System, SystemBuilder};

/// A typed protection request: *which region*, *what protection*.
///
/// Built fluently; the default protection is full access:
///
/// ```
/// use efex_core::Protection;
/// use efex_simos::Prot;
///
/// let p = Protection::region(0x1000, 0x2000).read_only();
/// assert_eq!(p.base(), 0x1000);
/// assert_eq!(p.len(), 0x2000);
/// assert_eq!(p.prot(), Prot::Read);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Protection {
    base: u32,
    len: u32,
    prot: Prot,
}

impl Protection {
    /// A request covering `[base, base + len)`, defaulting to full access.
    pub fn region(base: u32, len: u32) -> Protection {
        Protection {
            base,
            len,
            prot: Prot::ReadWrite,
        }
    }

    /// Sets an explicit protection.
    pub fn with_prot(mut self, prot: Prot) -> Protection {
        self.prot = prot;
        self
    }

    /// Write-protects the region (the write-barrier mode).
    pub fn read_only(self) -> Protection {
        self.with_prot(Prot::Read)
    }

    /// Grants full access.
    pub fn read_write(self) -> Protection {
        self.with_prot(Prot::ReadWrite)
    }

    /// Revokes all access (the access-detection mode).
    pub fn no_access(self) -> Protection {
        self.with_prot(Prot::None)
    }

    /// The region base address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// The region length in bytes.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The requested protection.
    pub fn prot(&self) -> Prot {
        self.prot
    }

    /// Whether the request restricts writes — for
    /// [`GuestMem::subpage_protect`], where protection is a write-protect
    /// toggle: `read_only()`/`no_access()` arm it, `read_write()` releases.
    pub fn restricts_writes(&self) -> bool {
        !matches!(self.prot, Prot::ReadWrite)
    }
}

/// Uniform access to simulated guest memory.
///
/// Implemented by [`HostProcess`] (accesses go through the simulated page
/// tables with full fault delivery) and [`System`] (accesses use the
/// kernel's host interface against the instruction-level machine). Code
/// that only needs "a guest to poke at" — fleet tenants, injection
/// scenarios, generic test helpers — takes `&mut impl GuestMem`.
pub trait GuestMem {
    /// Loads a word with full fault semantics.
    ///
    /// # Errors
    ///
    /// Implementation-specific delivery errors ([`CoreError::Unhandled`],
    /// [`CoreError::Aborted`], [`CoreError::RecursiveFault`], …).
    fn load_u32(&mut self, vaddr: u32) -> Result<u32, CoreError>;

    /// Stores a word with full fault semantics.
    ///
    /// # Errors
    ///
    /// As for [`GuestMem::load_u32`].
    fn store_u32(&mut self, vaddr: u32, value: u32) -> Result<(), CoreError>;

    /// Reads a word with kernel rights (no faults, no delivery).
    ///
    /// # Errors
    ///
    /// Fails if the page is unmapped.
    fn read_raw(&mut self, vaddr: u32) -> Result<u32, CoreError>;

    /// Writes a word with kernel rights (no faults, no delivery).
    ///
    /// # Errors
    ///
    /// Fails if the page is unmapped.
    fn write_raw(&mut self, vaddr: u32, value: u32) -> Result<(), CoreError>;

    /// Changes protection on a page-aligned region, charging the configured
    /// path's protection-call cost.
    ///
    /// # Errors
    ///
    /// Fails on unmapped pages or misalignment.
    fn protect(&mut self, region: Protection) -> Result<(), CoreError>;

    /// Toggles subpage write protection on a 1 KB-aligned range
    /// (Section 3.2.4): protection is armed when
    /// [`Protection::restricts_writes`], released otherwise.
    ///
    /// # Errors
    ///
    /// Fails on misalignment or unmapped pages.
    fn subpage_protect(&mut self, region: Protection) -> Result<(), CoreError>;
}

/// A `Send + Clone` recipe for constructing a guest inside a worker thread.
///
/// Carries every builder knob that is plain data; anything thread-bound
/// (trace sinks, fault handlers) is attached by the worker after
/// [`GuestConfig::host_builder`]/[`GuestConfig::system_builder`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct GuestConfig {
    /// Delivery path to model.
    pub path: DeliveryPath,
    /// Physical memory for the underlying machine.
    pub phys_bytes: usize,
    /// Eager amplification (fast/hardware paths only).
    pub eager_amplification: bool,
    /// Cycles charged per host-level application access.
    pub access_cost: u64,
    /// Degradation policy for deliveries that cannot take the path.
    pub degrade_policy: DegradePolicy,
    /// Machine configuration (execution engine). `None`
    /// inherits the building thread's scoped default — see
    /// [`efex_mips::machine::with_machine_config`].
    pub machine: Option<MachineConfig>,
}

impl Default for GuestConfig {
    fn default() -> GuestConfig {
        GuestConfig::new(DeliveryPath::FastUser)
    }
}

impl GuestConfig {
    /// A config for `path` with the builders' default knobs.
    pub fn new(path: DeliveryPath) -> GuestConfig {
        GuestConfig {
            path,
            phys_bytes: efex_simos::layout::DEFAULT_PHYS_BYTES,
            eager_amplification: false,
            access_cost: 2,
            degrade_policy: DegradePolicy::default(),
            machine: None,
        }
    }

    /// A [`HostBuilder`] primed with this config.
    pub fn host_builder(&self) -> HostBuilder {
        let mut b = HostProcess::builder()
            .delivery(self.path)
            .phys_bytes(self.phys_bytes)
            .eager_amplification(self.eager_amplification)
            .access_cost(self.access_cost)
            .degrade_policy(self.degrade_policy);
        if let Some(m) = self.machine {
            b = b.machine_config(m);
        }
        b
    }

    /// A [`SystemBuilder`] primed with this config.
    pub fn system_builder(&self) -> SystemBuilder {
        let mut b = System::builder()
            .delivery(self.path)
            .phys_bytes(self.phys_bytes);
        if let Some(m) = self.machine {
            b = b.machine_config(m);
        }
        b
    }
}

// The whole point of `GuestConfig`: it must stay shippable to workers.
const _: () = {
    const fn assert_send<T: Send + 'static>() {}
    assert_send::<GuestConfig>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protection_builder_round_trips() {
        let p = Protection::region(0x4000, 0x1000);
        assert_eq!(p.prot(), Prot::ReadWrite, "default is full access");
        assert!(!p.restricts_writes());
        assert!(p.read_only().restricts_writes());
        assert!(p.no_access().restricts_writes());
        assert_eq!(p.read_only().read_write().prot(), Prot::ReadWrite);
        assert!(!p.is_empty());
        assert!(Protection::region(0, 0).is_empty());
    }

    #[test]
    fn guest_config_builders_carry_knobs() {
        let cfg = GuestConfig {
            eager_amplification: true,
            access_cost: 5,
            ..GuestConfig::new(DeliveryPath::HardwareVectored)
        };
        let host = cfg.host_builder().build().unwrap();
        assert_eq!(host.path(), DeliveryPath::HardwareVectored);
        assert!(host.eager_amplification());
        let sys = cfg.system_builder().build().unwrap();
        assert_eq!(sys.path(), DeliveryPath::HardwareVectored);
    }
}
