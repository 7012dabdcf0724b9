//! Delay-slot-aware control-flow graph over the reachable instructions.
//!
//! On the MIPS the instruction after a branch executes *before* control
//! transfers, so the graph places the transfer's targets on the **delay
//! slot**, not on the branch itself: `branch → delay slot → targets`. That
//! linearization is exactly the pipeline's execution order, which lets the
//! downstream dataflow passes walk successor edges without special-casing
//! delayed transfers.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use efex_mips::asm::Program;
use efex_mips::decode::decode;
use efex_mips::isa::Instruction;
use efex_mips::sem::{branch_target, jump_target};

use crate::diag::{Finding, Lint, Report};
use crate::VerifyConfig;

/// One reachable instruction and its successor edges.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Node {
    /// The decoded instruction ([`Instruction::NOP`] when undecodable, so
    /// downstream passes need no special case).
    pub inst: Instruction,
    /// Execution-order successor addresses.
    pub succs: Vec<u32>,
    /// When this instruction sits in a delay slot, the address of the
    /// owning control transfer.
    pub delay_of: Option<u32>,
}

/// The control-flow graph: reachable instructions keyed by address.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Cfg {
    nodes: BTreeMap<u32, Node>,
}

/// Statically-known transfer targets of a control transfer, from the
/// executing delay slot's point of view.
///
/// Returns `(successors, call_roots)`: `successors` are where execution
/// continues after the delay slot (a call is abstracted as returning, so
/// its successor is the return address), `call_roots` are callee entry
/// points to analyze as separate roots. `jr`/`jalr` targets are unknown;
/// `jr` ends the walk and `jalr` continues at the return address.
fn transfer_targets(inst: Instruction, at: u32, slot: u32) -> (Vec<u32>, Vec<u32>) {
    use Instruction::*;
    let fall = slot.wrapping_add(4);
    match inst {
        // `beq r, r, t` is the unconditional-branch idiom (`b t`); the
        // not-taken edge does not exist. Symmetrically `bne r, r, t` never
        // transfers.
        Beq { rs, rt, imm } if rs == rt => (vec![branch_target(at, imm)], Vec::new()),
        Bne { rs, rt, imm } if rs == rt => {
            let _ = imm;
            (vec![fall], Vec::new())
        }
        Beq { imm, .. }
        | Bne { imm, .. }
        | Blez { imm, .. }
        | Bgtz { imm, .. }
        | Bltz { imm, .. }
        | Bgez { imm, .. } => (vec![branch_target(at, imm), fall], Vec::new()),
        Bltzal { imm, .. } | Bgezal { imm, .. } => (vec![fall], vec![branch_target(at, imm)]),
        J { target } => (vec![jump_target(at, target)], Vec::new()),
        Jal { target } => (vec![fall], vec![jump_target(at, target)]),
        Jalr { .. } => (vec![fall], Vec::new()),
        Jr { .. } => (Vec::new(), Vec::new()),
        _ => (Vec::new(), Vec::new()),
    }
}

impl Cfg {
    /// Walks `prog` from the configured entry and extra roots, decoding
    /// every reachable word. Unreachable or undecodable words become
    /// [`Lint::RunsOffImage`] / [`Lint::Undecodable`] findings.
    pub fn build(prog: &Program, config: &VerifyConfig, report: &mut Report) -> Cfg {
        let mut cfg = Cfg::default();
        let mut work: VecDeque<(u32, Option<u32>)> = VecDeque::new();
        let mut queued: BTreeSet<(u32, Option<u32>)> = BTreeSet::new();
        let mut off_image: BTreeSet<u32> = BTreeSet::new();

        let push = |work: &mut VecDeque<(u32, Option<u32>)>,
                    queued: &mut BTreeSet<(u32, Option<u32>)>,
                    item: (u32, Option<u32>)| {
            if queued.insert(item) {
                work.push_back(item);
            }
        };

        push(&mut work, &mut queued, (config.entry, None));
        for &root in &config.extra_roots {
            push(&mut work, &mut queued, (root, None));
        }

        while let Some((addr, owner)) = work.pop_front() {
            let Some(word) = prog.word_at(addr) else {
                if off_image.insert(addr) {
                    report.findings.push(Finding::new(
                        prog,
                        Lint::RunsOffImage,
                        addr,
                        format!("execution reaches {addr:#010x}, outside the assembled image"),
                    ));
                }
                continue;
            };
            let inst = match decode(word) {
                Ok(inst) => inst,
                Err(_) => {
                    report.findings.push(Finding::new(
                        prog,
                        Lint::Undecodable,
                        addr,
                        format!("reachable word {word:#010x} does not decode"),
                    ));
                    cfg.nodes.entry(addr).or_insert(Node {
                        inst: Instruction::NOP,
                        succs: Vec::new(),
                        delay_of: owner,
                    });
                    continue;
                }
            };

            let (succs, roots) = match owner {
                Some(owner_addr) => {
                    // Delay slot: execution continues wherever the owning
                    // transfer goes, regardless of what this instruction is.
                    let owner_inst = cfg
                        .nodes
                        .get(&owner_addr)
                        .map(|n| n.inst)
                        .unwrap_or(Instruction::NOP);
                    transfer_targets(owner_inst, owner_addr, addr)
                }
                None if inst.is_control_transfer() => {
                    // The transfer itself only reaches its delay slot; the
                    // slot node carries the outgoing edges.
                    (vec![addr.wrapping_add(4)], Vec::new())
                }
                None => match inst {
                    Instruction::Syscall { .. } | Instruction::Break { .. } => {
                        if config.syscalls_return {
                            (vec![addr.wrapping_add(4)], Vec::new())
                        } else {
                            (Vec::new(), Vec::new())
                        }
                    }
                    // Terminators: control leaves the analyzed code.
                    Instruction::Hcall { .. } | Instruction::Xpcu => (Vec::new(), Vec::new()),
                    _ => (vec![addr.wrapping_add(4)], Vec::new()),
                },
            };

            let next_owner = if owner.is_none() && inst.is_control_transfer() {
                Some(addr)
            } else {
                None
            };
            for &s in &succs {
                push(&mut work, &mut queued, (s, next_owner));
            }
            for &r in &roots {
                push(&mut work, &mut queued, (r, None));
            }

            let node = cfg.nodes.entry(addr).or_insert(Node {
                inst,
                succs: Vec::new(),
                delay_of: None,
            });
            for s in succs {
                if !node.succs.contains(&s) {
                    node.succs.push(s);
                }
            }
            if owner.is_some() {
                node.delay_of = owner;
            }
        }
        cfg
    }

    /// Number of reachable instructions.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no instruction was reachable.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node at `addr`, if reachable.
    pub fn node(&self, addr: u32) -> Option<&Node> {
        self.nodes.get(&addr)
    }

    /// Iterates reachable `(address, node)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Node)> {
        self.nodes.iter().map(|(&a, n)| (a, n))
    }

    /// Whether the node at `addr` is the delay slot of a `jr` whose slot
    /// holds an `rfe` — the vector-to-user exit of a first-level handler.
    pub fn is_vector_exit(&self, addr: u32) -> bool {
        let Some(node) = self.nodes.get(&addr) else {
            return false;
        };
        if node.inst != Instruction::Rfe {
            return false;
        }
        node.delay_of
            .and_then(|o| self.nodes.get(&o))
            .is_some_and(|o| matches!(o.inst, Instruction::Jr { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efex_mips::asm::assemble;

    fn graph(src: &str, config: &VerifyConfig) -> (Cfg, Report) {
        let prog = assemble(src).expect("fixture assembles");
        let mut report = Report::new();
        let cfg = Cfg::build(&prog, config, &mut report);
        (cfg, report)
    }

    #[test]
    fn delay_slot_carries_branch_targets() {
        let src = "
.org 0x1000
start:
    beq $t0, $t1, out
    nop
    addiu $t2, $t2, 1
out:
    jr $ra
    nop
";
        let (cfg, report) = graph(src, &VerifyConfig::hazards_only(0x1000));
        assert!(report.is_clean(), "{}", report.render());
        // The branch reaches only its slot; the slot fans out.
        assert_eq!(cfg.node(0x1000).unwrap().succs, vec![0x1004]);
        let slot = cfg.node(0x1004).unwrap();
        assert_eq!(slot.delay_of, Some(0x1000));
        assert_eq!(slot.succs, vec![0x100c, 0x1008]);
        // jr's slot has no successors: the walk ends there.
        assert!(cfg.node(0x1010).unwrap().succs.is_empty());
        assert_eq!(cfg.len(), 5);
    }

    #[test]
    fn unconditional_beq_has_no_fallthrough() {
        let src = "
.org 0x1000
start:
    b over
    nop
    break 0        # dead: must not be reached
over:
    jr $ra
    nop
";
        let (cfg, report) = graph(src, &VerifyConfig::hazards_only(0x1000));
        assert!(report.is_clean());
        assert_eq!(cfg.node(0x1004).unwrap().succs, vec![0x100c]);
        assert!(cfg.node(0x1008).is_none(), "dead code must stay unwalked");
    }

    #[test]
    fn jal_returns_and_roots_callee() {
        let src = "
.org 0x1000
start:
    jal callee
    nop
    jr $ra
    nop
callee:
    jr $ra
    nop
";
        let (cfg, report) = graph(src, &VerifyConfig::hazards_only(0x1000));
        assert!(report.is_clean());
        // The call's slot falls through to the return point...
        assert_eq!(cfg.node(0x1004).unwrap().succs, vec![0x1008]);
        // ...and the callee was walked as a root.
        assert!(cfg.node(0x1010).is_some());
    }

    #[test]
    fn running_off_image_is_reported() {
        let src = "
.org 0x1000
start:
    addiu $t0, $t0, 1
";
        let (cfg, report) = graph(src, &VerifyConfig::hazards_only(0x1000));
        assert_eq!(cfg.len(), 1);
        let finds: Vec<_> = report.with_lint(Lint::RunsOffImage).collect();
        assert_eq!(finds.len(), 1);
        assert_eq!(finds[0].addr, 0x1004);
    }

    #[test]
    fn syscall_termination_is_configurable() {
        let src = "
.org 0x1000
start:
    syscall
    jr $ra
    nop
";
        let mut config = VerifyConfig::hazards_only(0x1000);
        let (cfg, report) = graph(src, &config);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(cfg.len(), 3);
        config.syscalls_return = false;
        let (cfg, report) = graph(src, &config);
        assert!(report.is_clean());
        assert_eq!(cfg.len(), 1, "noreturn syscall must end the walk");
    }

    #[test]
    fn vector_exit_is_jr_with_rfe_slot() {
        let src = "
.org 0x1000
start:
    jr $k0
    rfe
";
        let (cfg, report) = graph(src, &VerifyConfig::hazards_only(0x1000));
        assert!(report.is_clean());
        assert!(cfg.is_vector_exit(0x1004));
        assert!(!cfg.is_vector_exit(0x1000));
        assert!(!cfg.is_empty());
    }
}
