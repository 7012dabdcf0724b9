//! The write-invalidate DSM engine.

use std::error::Error;
use std::fmt;

use efex_core::{CoreError, DeliveryCosts, DeliveryPath, GuestMem, HostProcess, Prot, Protection};
use efex_simos::layout::PAGE_SIZE;
use efex_simos::vm::FaultKind;
use efex_trace::{Snapshot, StatsSnapshot};

/// A node index.
pub type NodeId = usize;

/// DSM configuration.
#[derive(Clone, Copy, Debug)]
pub struct DsmConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Shared region size in pages.
    pub pages: u32,
    /// Exception delivery path on every node.
    pub path: DeliveryPath,
    /// Cycles for one network round trip (request + reply).
    pub network_cycles: u64,
    /// Cycles to transfer one page over the network.
    pub page_transfer_cycles: u64,
}

impl Default for DsmConfig {
    fn default() -> DsmConfig {
        DsmConfig {
            nodes: 2,
            pages: 8,
            path: DeliveryPath::FastUser,
            // ~400 us and ~1.2 ms at 25 MHz: 1994-era LAN numbers.
            network_cycles: 10_000,
            page_transfer_cycles: 30_000,
        }
    }
}

/// Per-page coherence state in the directory.
#[derive(Clone, Debug)]
struct PageDir {
    /// The node with the authoritative copy.
    owner: NodeId,
    /// Nodes holding read copies (includes the owner).
    copyset: Vec<NodeId>,
    /// Whether the owner holds it exclusively (writable).
    exclusive: bool,
}

/// DSM statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DsmStats {
    /// Protection faults taken (coherence misses).
    pub faults: u64,
    /// Pages shipped between nodes.
    pub page_transfers: u64,
    /// Invalidation messages sent.
    pub invalidations: u64,
    /// Reads and writes performed.
    pub accesses: u64,
}

impl Snapshot for DsmStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::new("dsm")
            .counter("faults", self.faults)
            .counter("page_transfers", self.page_transfers)
            .counter("invalidations", self.invalidations)
            .counter("accesses", self.accesses)
    }
}

/// DSM errors.
#[derive(Debug)]
pub enum DsmError {
    /// Underlying simulation error.
    Core(CoreError),
    /// Address outside the shared region.
    OutOfRange(u32),
    /// Bad node id.
    BadNode(NodeId),
}

impl fmt::Display for DsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DsmError::Core(e) => write!(f, "simulation error: {e}"),
            DsmError::OutOfRange(a) => write!(f, "address {a:#x} outside the shared region"),
            DsmError::BadNode(n) => write!(f, "no such node {n}"),
        }
    }
}

impl Error for DsmError {}

impl From<CoreError> for DsmError {
    fn from(e: CoreError) -> DsmError {
        DsmError::Core(e)
    }
}

/// The distributed shared memory system.
pub struct Dsm {
    nodes: Vec<HostProcess>,
    dir: Vec<PageDir>,
    base: u32,
    cfg: DsmConfig,
    costs: DeliveryCosts,
    stats: DsmStats,
}

impl fmt::Debug for Dsm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dsm")
            .field("nodes", &self.nodes.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Dsm {
    /// Builds the system: every node maps the shared region; node 0 starts
    /// as the exclusive owner of every page.
    ///
    /// # Errors
    ///
    /// Fails if a node's simulated system cannot boot.
    pub fn new(cfg: DsmConfig) -> Result<Dsm, DsmError> {
        assert!(cfg.nodes >= 1);
        let len = cfg.pages * PAGE_SIZE;
        let mut nodes = Vec::with_capacity(cfg.nodes);
        let mut base = 0;
        for i in 0..cfg.nodes {
            let mut host = HostProcess::builder().delivery(cfg.path).build()?;
            let prot = if i == 0 { Prot::ReadWrite } else { Prot::None };
            let b = host.alloc_region(len, prot)?;
            if i == 0 {
                base = b;
            } else {
                assert_eq!(b, base, "nodes must agree on the region address");
            }
            nodes.push(host);
        }
        let dir = (0..cfg.pages)
            .map(|_| PageDir {
                owner: 0,
                copyset: vec![0],
                exclusive: true,
            })
            .collect();
        Ok(Dsm {
            nodes,
            dir,
            base,
            costs: DeliveryCosts::for_path(cfg.path),
            cfg,
            stats: DsmStats::default(),
        })
    }

    /// Base address of the shared region (same on every node).
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Size of the shared region in bytes.
    pub fn len(&self) -> u32 {
        self.cfg.pages * PAGE_SIZE
    }

    /// Whether the region is empty (never; kept for API convention).
    pub fn is_empty(&self) -> bool {
        self.cfg.pages == 0
    }

    /// Statistics so far.
    pub fn stats(&self) -> &DsmStats {
        &self.stats
    }

    /// Per-(path, class) exception metrics merged across every node.
    pub fn trace_metrics(&self) -> efex_trace::Metrics {
        let mut merged = efex_trace::Metrics::new();
        for node in &self.nodes {
            merged.merge(node.trace_metrics());
        }
        merged
    }

    /// Health-plane snapshot merged across every node's host kernel
    /// (counters summed by name). Pure read.
    pub fn health_snapshot(&self) -> efex_trace::StatsSnapshot {
        efex_trace::StatsSnapshot::aggregate(
            "host-health",
            self.nodes.iter().map(|n| n.health_snapshot()),
        )
    }

    /// Total simulated cycles across all nodes.
    pub fn total_cycles(&self) -> u64 {
        self.nodes.iter().map(|n| n.cycles()).sum()
    }

    /// Total simulated microseconds across all nodes.
    pub fn total_micros(&self) -> f64 {
        self.nodes.iter().map(|n| n.micros()).sum()
    }

    /// Fault injection: the next `n` deliveries on `node` fall back to
    /// Unix-signal costs. Coherence must be unaffected — only dearer.
    pub fn inject_degrade_next_deliveries(&mut self, node: usize, n: u64) {
        if let Some(host) = self.nodes.get_mut(node) {
            host.inject_degrade_next_deliveries(n);
        }
    }

    /// Deliveries on `node` that fell back to the degraded path.
    pub fn degraded_deliveries(&self, node: usize) -> u64 {
        self.nodes
            .get(node)
            .map_or(0, |h| h.stats().degraded_deliveries)
    }

    fn page_index(&self, addr: u32) -> Result<usize, DsmError> {
        if addr < self.base || addr >= self.base + self.len() {
            return Err(DsmError::OutOfRange(addr));
        }
        Ok(((addr - self.base) / PAGE_SIZE) as usize)
    }

    /// Reads a shared word from `node`'s perspective.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range addresses or simulation errors.
    pub fn read(&mut self, node: NodeId, addr: u32) -> Result<u32, DsmError> {
        self.check_node(node)?;
        self.stats.accesses += 1;
        let page = self.page_index(addr)?;
        match self.nodes[node].kernel_mut().host_load_u32(addr) {
            Ok(v) => Ok(v),
            Err(f) if f.kind == FaultKind::Protection => {
                self.coherence_read_miss(node, page)?;
                self.nodes[node]
                    .kernel_mut()
                    .host_load_u32(addr)
                    .map_err(|f| {
                        DsmError::Core(CoreError::Measurement(format!(
                            "read still faulting after protocol: {f}"
                        )))
                    })
            }
            Err(f) => Err(DsmError::Core(CoreError::Measurement(format!(
                "unexpected fault {f}"
            )))),
        }
    }

    /// Writes a shared word from `node`'s perspective.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range addresses or simulation errors.
    pub fn write(&mut self, node: NodeId, addr: u32, value: u32) -> Result<(), DsmError> {
        self.check_node(node)?;
        self.stats.accesses += 1;
        let page = self.page_index(addr)?;
        match self.nodes[node].kernel_mut().host_store_u32(addr, value) {
            Ok(()) => Ok(()),
            Err(f) if f.kind == FaultKind::Protection => {
                self.coherence_write_miss(node, page)?;
                self.nodes[node]
                    .kernel_mut()
                    .host_store_u32(addr, value)
                    .map_err(|f| {
                        DsmError::Core(CoreError::Measurement(format!(
                            "write still faulting after protocol: {f}"
                        )))
                    })
            }
            Err(f) => Err(DsmError::Core(CoreError::Measurement(format!(
                "unexpected fault {f}"
            )))),
        }
    }

    fn check_node(&self, node: NodeId) -> Result<(), DsmError> {
        if node < self.nodes.len() {
            Ok(())
        } else {
            Err(DsmError::BadNode(node))
        }
    }

    /// The delivery costs this miss is charged at: the configured path,
    /// unless an injected degradation fires on the faulting node.
    fn delivery_costs_for(&mut self, node: NodeId) -> DeliveryCosts {
        if self.nodes[node].consume_injected_degradation(efex_trace::FaultClass::WriteProtect) {
            DeliveryCosts::for_path(DeliveryPath::UnixSignals)
        } else {
            self.costs
        }
    }

    /// Read miss: fetch a read copy from the owner; the owner (if
    /// exclusive) is demoted to shared.
    fn coherence_read_miss(&mut self, node: NodeId, page: usize) -> Result<(), DsmError> {
        self.stats.faults += 1;
        // The faulting node pays exception delivery + handler return (at
        // Unix-signal cost when an injected degradation fires).
        let costs = self.delivery_costs_for(node);
        self.nodes[node].charge(costs.prot_deliver + costs.simple_return);
        // Request/response over the network.
        self.nodes[node].charge(self.cfg.network_cycles);

        let owner = self.dir[page].owner;
        if self.dir[page].exclusive && owner != node {
            // Demote the owner to read-shared.
            self.protect_on(owner, page, Prot::Read)?;
            self.dir[page].exclusive = false;
        }
        self.copy_page(owner, node, page)?;
        self.protect_on(node, page, Prot::Read)?;
        if !self.dir[page].copyset.contains(&node) {
            self.dir[page].copyset.push(node);
        }
        self.dir[page].exclusive = false;
        Ok(())
    }

    /// Write miss: invalidate every other copy and take exclusive
    /// ownership.
    fn coherence_write_miss(&mut self, node: NodeId, page: usize) -> Result<(), DsmError> {
        self.stats.faults += 1;
        let costs = self.delivery_costs_for(node);
        self.nodes[node].charge(costs.prot_deliver + costs.simple_return);
        self.nodes[node].charge(self.cfg.network_cycles);

        let owner = self.dir[page].owner;
        // Fetch the page if this node has no copy at all.
        if !self.dir[page].copyset.contains(&node) {
            self.copy_page(owner, node, page)?;
        }
        // Invalidate all other holders.
        let holders: Vec<NodeId> = self.dir[page]
            .copyset
            .iter()
            .copied()
            .filter(|n| *n != node)
            .collect();
        for h in holders {
            self.stats.invalidations += 1;
            self.nodes[node].charge(self.cfg.network_cycles / 2);
            self.protect_on(h, page, Prot::None)?;
        }
        self.protect_on(node, page, Prot::ReadWrite)?;
        self.dir[page].owner = node;
        self.dir[page].copyset = vec![node];
        self.dir[page].exclusive = true;
        Ok(())
    }

    /// Ships a page's contents from one node's memory to another's.
    fn copy_page(&mut self, from: NodeId, to: NodeId, page: usize) -> Result<(), DsmError> {
        if from == to {
            return Ok(());
        }
        self.stats.page_transfers += 1;
        self.nodes[to].charge(self.cfg.page_transfer_cycles);
        let addr = self.base + page as u32 * PAGE_SIZE;
        let mut bytes = [0; PAGE_SIZE as usize];
        self.nodes[from].read_raw_into(addr, &mut bytes)?;
        self.nodes[to]
            .kernel_mut()
            .host_write_bytes(addr, &bytes)
            .map_err(CoreError::from)?;
        Ok(())
    }

    /// Changes a page's protection on one node (charging that node's
    /// protection-call cost).
    fn protect_on(&mut self, node: NodeId, page: usize, prot: Prot) -> Result<(), DsmError> {
        let addr = self.base + page as u32 * PAGE_SIZE;
        self.nodes[node].protect(Protection::region(addr, PAGE_SIZE).with_prot(prot))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dsm(nodes: usize) -> Dsm {
        Dsm::new(DsmConfig {
            nodes,
            pages: 4,
            ..DsmConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn single_node_reads_and_writes_locally() {
        let mut d = dsm(1);
        let a = d.base();
        d.write(0, a, 42).unwrap();
        assert_eq!(d.read(0, a).unwrap(), 42);
        assert_eq!(d.stats().faults, 0, "owner has exclusive access");
    }

    #[test]
    fn remote_read_fetches_the_page() {
        let mut d = dsm(2);
        let a = d.base();
        d.write(0, a, 7).unwrap();
        assert_eq!(d.read(1, a).unwrap(), 7, "node 1 sees node 0's write");
        assert_eq!(d.stats().page_transfers, 1);
        assert!(d.stats().faults >= 1);
    }

    #[test]
    fn degraded_delivery_on_one_node_keeps_coherence() {
        // Node 1's next fault delivery is injected to degrade; the page
        // fetch must still produce the coherent value, and later traffic
        // (including the degraded node writing) stays consistent.
        let mut d = dsm(2);
        let a = d.base();
        d.write(0, a, 7).unwrap();
        d.inject_degrade_next_deliveries(1, 1);
        assert_eq!(d.read(1, a).unwrap(), 7, "remote read still coherent");
        assert_eq!(d.degraded_deliveries(1), 1);
        assert_eq!(d.degraded_deliveries(0), 0);
        d.write(1, a, 9).unwrap();
        assert_eq!(d.read(0, a).unwrap(), 9);
    }

    #[test]
    fn write_invalidates_readers() {
        let mut d = dsm(3);
        let a = d.base();
        d.write(0, a, 1).unwrap();
        d.read(1, a).unwrap();
        d.read(2, a).unwrap();
        // Node 1 writes: nodes 0 and 2 must be invalidated.
        d.write(1, a, 2).unwrap();
        assert!(d.stats().invalidations >= 2);
        assert_eq!(d.read(2, a).unwrap(), 2, "node 2 refetches the new value");
        assert_eq!(d.read(0, a).unwrap(), 2);
    }

    #[test]
    fn sequential_consistency_on_interleaved_ops() {
        let mut d = dsm(2);
        let a = d.base();
        let b = d.base() + PAGE_SIZE;
        for i in 0..10u32 {
            let w = (i % 2) as usize;
            let r = 1 - w;
            d.write(w, a, i).unwrap();
            d.write(w, b, i * 10).unwrap();
            assert_eq!(d.read(r, a).unwrap(), i);
            assert_eq!(d.read(r, b).unwrap(), i * 10);
        }
    }

    #[test]
    fn read_sharing_is_free_after_first_fetch() {
        let mut d = dsm(2);
        let a = d.base();
        d.write(0, a, 5).unwrap();
        d.read(1, a).unwrap();
        let f = d.stats().faults;
        for _ in 0..10 {
            d.read(1, a).unwrap();
            d.read(0, a).unwrap();
        }
        assert_eq!(d.stats().faults, f, "shared readers take no faults");
    }

    #[test]
    fn faster_delivery_reduces_total_time() {
        let run = |path| {
            let mut d = Dsm::new(DsmConfig {
                nodes: 2,
                pages: 2,
                path,
                ..DsmConfig::default()
            })
            .unwrap();
            let a = d.base();
            for i in 0..25u32 {
                d.write((i % 2) as usize, a, i).unwrap();
                d.read(((i + 1) % 2) as usize, a).unwrap();
            }
            d.total_cycles()
        };
        let fast = run(DeliveryPath::FastUser);
        let slow = run(DeliveryPath::UnixSignals);
        assert!(slow > fast, "signals {slow} vs fast {fast}");
    }

    #[test]
    fn out_of_range_and_bad_node_are_rejected() {
        let mut d = dsm(1);
        let end = d.base() + d.len();
        assert!(matches!(d.read(0, end), Err(DsmError::OutOfRange(_))));
        assert!(matches!(d.read(5, d.base()), Err(DsmError::BadNode(5))));
    }
}
