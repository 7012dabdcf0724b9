//! System- and host-level checkpoint state and its wire encoding.
//!
//! Both structs wrap a kernel image ([`efex_simos::snapshot::KernelState`])
//! and add the layer's own identity and host-modeled state:
//!
//! - [`SystemSnapshot`] records the configured delivery path, so a
//!   fast-user checkpoint cannot be restored into a Unix-signals system
//!   and silently measure the wrong thing;
//! - [`HostSnapshot`] additionally carries the [`HostProcess`] accounting
//!   (stats, allocation cursor and any injected degradations still
//!   pending).
//!
//! What is deliberately *not* here: the registered fault handler. A
//! handler is an arbitrary host-side Rust closure — it cannot be
//! serialized, and pretending otherwise would be a lie in the format.
//! Restore keeps whatever handler the receiving process has registered;
//! [`HostProcess::snapshot`] refuses to run while a handler invocation is
//! on the host stack (`in_handler`), which is the one moment the closure's
//! own state would be load-bearing.
//!
//! [`HostProcess`]: crate::HostProcess
//! [`HostProcess::snapshot`]: crate::HostProcess::snapshot

use efex_simos::snapshot::KernelState;
use efex_snap::{Flavor, Reader, SnapError, Writer};

use crate::delivery::DeliveryPath;
use crate::host::HostStats;

fn path_tag(p: DeliveryPath) -> u8 {
    match p {
        DeliveryPath::UnixSignals => 0,
        DeliveryPath::FastUser => 1,
        DeliveryPath::HardwareVectored => 2,
    }
}

fn path_from_tag(tag: u8) -> Result<DeliveryPath, SnapError> {
    match tag {
        0 => Ok(DeliveryPath::UnixSignals),
        1 => Ok(DeliveryPath::FastUser),
        2 => Ok(DeliveryPath::HardwareVectored),
        t => Err(SnapError::Corrupt(format!("delivery-path tag {t}"))),
    }
}

/// A checkpoint of a [`crate::System`]: delivery-path identity plus the
/// full kernel state.
#[derive(Clone, Debug)]
pub struct SystemSnapshot {
    /// The delivery path the system was built with. Restore requires the
    /// receiver to match.
    pub path: DeliveryPath,
    /// The complete kernel (and machine) state.
    pub kernel: KernelState,
}

impl SystemSnapshot {
    /// Serializes as a standalone [`Flavor::System`] artifact.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(Flavor::System);
        w.u8(path_tag(self.path));
        self.kernel.encode(&mut w);
        w.finish()
    }

    /// Deserializes a standalone [`Flavor::System`] artifact.
    ///
    /// # Errors
    ///
    /// Typed [`SnapError`] on any malformation; never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<SystemSnapshot, SnapError> {
        let mut r = Reader::open(bytes, Flavor::System)?;
        let path = path_from_tag(r.u8()?)?;
        let kernel = KernelState::decode(&mut r)?;
        r.done()?;
        Ok(SystemSnapshot { path, kernel })
    }
}

/// A checkpoint of a [`crate::HostProcess`]: delivery-path identity, the
/// full kernel state, and the host-side delivery accounting. The
/// registered handler closure is *not* part of the snapshot (see the
/// module docs); neither is the metrics/trace plane, which belongs to the
/// observer.
#[derive(Clone, Debug)]
pub struct HostSnapshot {
    /// The delivery path the process was built with.
    pub path: DeliveryPath,
    /// The complete kernel (and machine) state.
    pub kernel: KernelState,
    /// Host-side delivery counters.
    pub stats: HostStats,
    /// Bump-allocator cursor for [`crate::HostProcess::alloc_region`].
    pub next_alloc: u32,
    /// Injected degradations still pending consumption.
    pub degrade_next: u64,
}

impl HostSnapshot {
    /// Serializes as a standalone [`Flavor::Host`] artifact.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(Flavor::Host);
        w.u8(path_tag(self.path));
        self.kernel.encode(&mut w);
        w.u64(self.stats.faults_delivered);
        w.u64(self.stats.accesses);
        w.u64(self.stats.protect_calls);
        w.u64(self.stats.eager_amplified);
        w.u64(self.stats.subpage_emulated);
        w.u64(self.stats.degraded_deliveries);
        w.u32(self.next_alloc);
        w.u64(self.degrade_next);
        w.finish()
    }

    /// Deserializes a standalone [`Flavor::Host`] artifact.
    ///
    /// # Errors
    ///
    /// Typed [`SnapError`] on any malformation; never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<HostSnapshot, SnapError> {
        let mut r = Reader::open(bytes, Flavor::Host)?;
        let path = path_from_tag(r.u8()?)?;
        let kernel = KernelState::decode(&mut r)?;
        let stats = HostStats {
            faults_delivered: r.u64()?,
            accesses: r.u64()?,
            protect_calls: r.u64()?,
            eager_amplified: r.u64()?,
            subpage_emulated: r.u64()?,
            degraded_deliveries: r.u64()?,
        };
        let next_alloc = r.u32()?;
        let degrade_next = r.u64()?;
        r.done()?;
        Ok(HostSnapshot {
            path,
            kernel,
            stats,
            next_alloc,
            degrade_next,
        })
    }
}
