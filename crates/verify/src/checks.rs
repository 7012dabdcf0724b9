//! The analysis passes: hazard lints, memory-reference proof, save-set
//! liveness, and static path bounds.

use std::collections::{BTreeMap, BTreeSet};

use efex_mips::asm::Program;
use efex_mips::cycles::static_cost;
use efex_mips::isa::{Instruction, Reg};

use crate::absint::{effective_address, AbsVal, RegState};
use crate::cfg::Cfg;
use crate::defuse;
use crate::diag::{Finding, Lint, PathBounds, PhaseBound, Report};
use crate::VerifyConfig;

/// Delay-slot and critical-path hazard lints.
pub fn hazards(prog: &Program, config: &VerifyConfig, graph: &Cfg, report: &mut Report) {
    for (addr, node) in graph.iter() {
        if let Some(owner) = node.delay_of {
            if node.inst.is_control_transfer() {
                report.findings.push(Finding::new(
                    prog,
                    Lint::BranchInDelaySlot,
                    addr,
                    format!(
                        "control transfer in the delay slot of the transfer at {owner:#010x}: \
                         behavior is architecturally undefined"
                    ),
                ));
            }
            if let Some(dest) = defuse::load_dest(node.inst) {
                for &succ in &node.succs {
                    let Some(target) = graph.node(succ) else {
                        continue;
                    };
                    if defuse::reads(target.inst).contains(&dest) {
                        report.findings.push(Finding::new(
                            prog,
                            Lint::LoadUseInDelaySlot,
                            addr,
                            format!(
                                "load into {dest} in a delay slot; the first instruction at \
                                 {succ:#010x} reads {dest} before the load delay expires"
                            ),
                        ));
                        break;
                    }
                }
            }
        }
        if node.inst == Instruction::Rfe {
            let returning = node
                .delay_of
                .and_then(|o| graph.node(o))
                .is_some_and(|o| matches!(o.inst, Instruction::Jr { .. }));
            if !returning {
                report.findings.push(Finding::new(
                    prog,
                    Lint::MisplacedRfe,
                    addr,
                    "rfe outside the delay slot of its return jump: the status pop and the \
                     PC redirect would not commit together",
                ));
            }
        }
        if let Some(critical_until) = config.critical_until {
            let critical = addr >= config.entry && addr < critical_until;
            let trapping = matches!(
                node.inst,
                Instruction::Add { .. } | Instruction::Addi { .. } | Instruction::Sub { .. }
            );
            if critical && trapping {
                report.findings.push(Finding::new(
                    prog,
                    Lint::TrappingArithOnCriticalPath,
                    addr,
                    "overflow-trapping arithmetic before the exception state is saved: a trap \
                     here would destroy the live EPC/cause (use the unsigned form)",
                ));
            }
        }
    }
}

/// Proves every reachable load/store lands aligned inside a pinned region.
pub fn mem_refs(
    prog: &Program,
    config: &VerifyConfig,
    graph: &Cfg,
    states: &BTreeMap<u32, RegState>,
    report: &mut Report,
) {
    for (addr, node) in graph.iter() {
        let Some((base, imm)) = defuse::access_addr(node.inst) else {
            continue;
        };
        let width = defuse::access_width(node.inst).unwrap_or(4);
        let ea = states
            .get(&addr)
            .map(|s| effective_address(s.reg(base), imm))
            .unwrap_or(AbsVal::Unknown);
        let proven = match ea {
            AbsVal::Const(a) => {
                a.is_multiple_of(width)
                    && config.pinned.iter().any(|r| match r.base {
                        Some(b) => a >= b && a.wrapping_sub(b).saturating_add(width) <= r.len,
                        None => false,
                    })
            }
            AbsVal::Ptr {
                region,
                lo,
                hi,
                align,
            } => {
                let len = config.pinned[region].len;
                hi.saturating_add(width) <= len
                    && lo.is_multiple_of(width)
                    && (align == 0 || align.is_multiple_of(width))
            }
            _ => false,
        };
        if !proven {
            report.findings.push(Finding::new(
                prog,
                Lint::UnpinnedMemoryReference,
                addr,
                format!(
                    "cannot prove this {}-byte access stays aligned inside a pinned region \
                     (abstract address: {ea:?})",
                    width
                ),
            ));
        }
    }
}

/// Save-set liveness: clobbers vs. the communication-frame protocol.
pub fn save_set(
    prog: &Program,
    config: &VerifyConfig,
    graph: &Cfg,
    states: &BTreeMap<u32, RegState>,
    report: &mut Report,
) {
    // Clobbers, with the first write site of each register.
    let mut clobbered: BTreeMap<Reg, u32> = BTreeMap::new();
    for (addr, node) in graph.iter() {
        if let Some(w) = defuse::writes(node.inst) {
            clobbered.entry(w).or_insert(addr);
        }
    }

    // Saves: stores into the save region of registers that still hold
    // their handler-entry value (`sw $a0, 0($k1)` *after* `mfc0 $a0, $epc`
    // is a data store, not a save).
    let mut saved: BTreeMap<Reg, u32> = BTreeMap::new();
    if let Some(save_region) = config.save_region {
        for (addr, node) in graph.iter() {
            let Instruction::Sw { rt, base, imm } = node.inst else {
                continue;
            };
            let Some(state) = states.get(&addr) else {
                continue;
            };
            if !state.is_orig(rt) || rt == Reg::ZERO {
                continue;
            }
            let in_frame = match effective_address(state.reg(base), imm) {
                AbsVal::Ptr { region, .. } => region == save_region,
                AbsVal::Const(a) => match config.pinned[save_region].base {
                    Some(b) => a >= b && a - b < config.pinned[save_region].len,
                    None => false,
                },
                _ => false,
            };
            if in_frame {
                saved.entry(rt).or_insert(addr);
            }
        }
    }

    // Per-phase clobber sets (phase = [label, next label or `end`)).
    for (i, (label, start)) in config.phases.iter().enumerate() {
        let end = config
            .phases
            .get(i + 1)
            .map(|(_, a)| *a)
            .or(config.end)
            .unwrap_or(u32::MAX);
        let mut regs: BTreeSet<Reg> = BTreeSet::new();
        for (addr, node) in graph.iter() {
            if addr >= *start && addr < end {
                if let Some(w) = defuse::writes(node.inst) {
                    regs.insert(w);
                }
            }
        }
        report
            .phase_clobbers
            .push((label.clone(), regs.into_iter().collect()));
    }

    for (&reg, &site) in &clobbered {
        if config.reserved.contains(&reg) || saved.contains_key(&reg) {
            continue;
        }
        report.findings.push(Finding::new(
            prog,
            Lint::UnsavedClobber,
            site,
            format!(
                "{reg} is clobbered but never saved to the communication frame, and it is \
                 not kernel-reserved: user state is silently destroyed"
            ),
        ));
    }
    for (&reg, &site) in &saved {
        if clobbered.contains_key(&reg) || config.protocol_saved.contains(&reg) {
            continue;
        }
        report.findings.push(Finding::new(
            prog,
            Lint::DeadSave,
            site,
            format!(
                "{reg} is saved to the communication frame but neither clobbered by the \
                 handler nor promised to the user as scratch: dead store on every exception"
            ),
        ));
    }
    for &reg in &config.protocol_saved {
        if saved.contains_key(&reg) {
            continue;
        }
        report.findings.push(Finding::new(
            prog,
            Lint::MissingProtocolSave,
            config.entry,
            format!(
                "the protocol promises {reg} to the user handler as scratch, but no save of \
                 its original value exists"
            ),
        ));
    }
}

struct PathWalk<'a> {
    graph: &'a Cfg,
    on_path: BTreeSet<u32>,
    path: Vec<u32>,
    complete: Vec<(Vec<u32>, bool)>,
    cycles: BTreeSet<u32>,
    capped: bool,
}

/// More complete paths than any real handler has; hitting this means the
/// code under analysis is not a handler, so stop enumerating.
const MAX_PATHS: usize = 4096;

impl PathWalk<'_> {
    fn dfs(&mut self, addr: u32) {
        if self.complete.len() >= MAX_PATHS {
            self.capped = true;
            return;
        }
        if self.on_path.contains(&addr) {
            self.cycles.insert(addr);
            return;
        }
        let Some(node) = self.graph.node(addr) else {
            // Off-image edges already produced a RunsOffImage finding; the
            // partial path still bounds real work, record it as complete.
            self.complete.push((self.path.clone(), false));
            return;
        };
        self.on_path.insert(addr);
        self.path.push(addr);
        if node.succs.is_empty() {
            self.complete
                .push((self.path.clone(), self.graph.is_vector_exit(addr)));
        } else {
            for &succ in &node.succs {
                self.dfs(succ);
            }
        }
        self.path.pop();
        self.on_path.remove(&addr);
    }
}

/// Enumerates every path from the entry, asserting a static instruction
/// bound exists and the fast path fits the configured budget.
pub fn bounds(prog: &Program, config: &VerifyConfig, graph: &Cfg, report: &mut Report) {
    let mut walk = PathWalk {
        graph,
        on_path: BTreeSet::new(),
        path: Vec::new(),
        complete: Vec::new(),
        cycles: BTreeSet::new(),
        capped: false,
    };
    walk.dfs(config.entry);

    for &addr in &walk.cycles {
        report.findings.push(Finding::new(
            prog,
            Lint::UnboundedPath,
            addr,
            "a path through the handler revisits this instruction: no static instruction \
             bound exists",
        ));
    }
    if walk.capped {
        report.findings.push(Finding::new(
            prog,
            Lint::UnboundedPath,
            config.entry,
            format!("more than {MAX_PATHS} distinct paths: not statically boundable"),
        ));
    }

    // The fast path is the longest path that exits straight to user mode
    // (jr with rfe in its delay slot).
    let fast = walk
        .complete
        .iter()
        .filter(|(_, vector)| *vector)
        .max_by_key(|(path, _)| path.len());
    if let Some((path, _)) = fast {
        let mut per_phase: Vec<PhaseBound> = config
            .phases
            .iter()
            .map(|(label, _)| PhaseBound {
                label: label.clone(),
                instructions: 0,
                cycles: 0,
            })
            .collect();
        let end = config.end.unwrap_or(u32::MAX);
        let mut total_cycles = 0u64;
        for &addr in path {
            let inst = graph.node(addr).expect("path node exists").inst;
            let cost = static_cost(inst);
            total_cycles += cost;
            if addr >= end {
                continue;
            }
            let phase = config
                .phases
                .iter()
                .enumerate()
                .rev()
                .find(|(_, (_, start))| addr >= *start)
                .map(|(i, _)| i);
            if let Some(i) = phase {
                per_phase[i].instructions += 1;
                per_phase[i].cycles += cost;
            }
        }
        report.fast_path = Some(PathBounds {
            per_phase,
            total_instructions: path.len() as u64,
            total_cycles,
        });
    }

    if let Some(budget) = config.instruction_budget {
        let longest = walk
            .complete
            .iter()
            .filter(|(_, vector)| *vector)
            .map(|(path, _)| path.len() as u64)
            .max();
        if let Some(longest) = longest {
            if longest > budget {
                report.findings.push(Finding::new(
                    prog,
                    Lint::OverBudgetPath,
                    config.entry,
                    format!(
                        "the longest fast path runs {longest} instructions, over the \
                         budget of {budget}"
                    ),
                ));
            }
        }
    }
}
