//! Execution and writeback: completing uops broadcast results, verify
//! control flow, and feed the writeback-time optimization hooks
//! (memo insert, value-prediction verify, register-file compression).
//!
//! The per-uop execution helpers (`try_issue_load`, `issue_store`,
//! `issue_flush`, `try_issue_compute`) live here too; the issue stage
//! calls them once it has selected a uop and a port.

use pandora_isa::{Instr, Reg};

use crate::error::SimError;
use crate::func::sign_extend;
use crate::mem::memory::MemFault;
use crate::opt::comp_simpl::{plan_alu, plan_fp, ExecPlan, PortClass, SimplEvent};
use crate::opt::hook::{Hooks, MemoLookup};
use crate::opt::pipe_compress::{packable, AluSlots};
use crate::trace::TraceEvent;

use crate::config::OptConfig;

use super::squash::{squash_after, SquashReason};
use super::{PipelineState, Seq, UopKind};

/// Writes back every uop whose latency has elapsed, verifying control
/// flow and value predictions.
pub(crate) fn tick(st: &mut PipelineState, hooks: &mut Hooks) -> Result<(), SimError> {
    let cycle = st.cycle;
    // Nothing in flight can complete yet (the common case while a
    // long cache miss is outstanding): skip the ROB scan. The
    // issue stage lowers `exec_wakeup` for every uop it starts.
    if cycle < st.exec_wakeup {
        return Ok(());
    }
    // One forward pass. This matches the old
    // restart-`position`-from-0 loop cycle-for-cycle: writing back
    // a uop never makes an *older* uop completable (their
    // `done_cycle`s are already set), and a squash only removes
    // *younger* entries — everything at or before the current
    // index survives untouched.
    let mut next_wakeup = u64::MAX;
    let mut idx = 0;
    while idx < st.rob.len() {
        {
            let u = &st.rob[idx];
            if !u.executing || u.done {
                idx += 1;
                continue;
            }
            if u.done_cycle > cycle {
                next_wakeup = next_wakeup.min(u.done_cycle);
                idx += 1;
                continue;
            }
        }
        let seq = st.rob[idx].seq;
        // Mark complete and broadcast the result.
        {
            let uop = &mut st.rob[idx];
            uop.done = true;
            uop.executing = false;
        }
        // `Uop` is `Copy` (inline source tags), so lifting it out
        // of the ROB costs a memcpy, not a heap clone.
        let uop = st.rob[idx];
        if let Some(dst) = uop.dst {
            st.prf_vals[dst as usize] = uop.result;
            st.prf_ready[dst as usize] = true;
        }
        if let Some(ev) = uop.simpl_event {
            let s = &mut st.stats;
            *match ev {
                SimplEvent::TrivialSkip => &mut s.trivial_skips,
                SimplEvent::MulSkip => &mut s.mul_skips,
                SimplEvent::MulStrengthReduced => &mut s.mul_strength_reductions,
                SimplEvent::DivEarlyExit => &mut s.div_early_exits,
                SimplEvent::FpSubnormal => &mut s.fp_subnormal_slow,
            } += 1;
        }
        if let Some((vals, srcs)) = uop.reuse_info {
            // Insert-after-invalidate hazard, Sn only: a younger
            // in-flight instruction may already have redefined one
            // of this entry's source registers — its rename-time
            // invalidation ran before this insert, so inserting now
            // would resurrect a stale register binding. (Sv keys on
            // operand *values*, which are correct by construction.)
            let rob = &st.rob;
            hooks.memo_insert(uop.pc, vals, srcs, uop.result, |s| {
                rob.iter()
                    .any(|u| u.seq > seq && matches!(u.prev, Some((r, _)) if s.contains(&Some(r))))
            });
        }
        // Register-file compression: early tag release.
        if let Some(dst) = uop.dst {
            if !st.shared_tags.contains(&dst) && hooks.rfc_compresses(uop.result, &st.arch_regs) {
                st.shared_tags.push(dst);
                st.live_tags -= 1;
                st.stats.rfc_shares += 1;
            }
        }
        // Control-flow verification.
        match uop.kind {
            UopKind::Branch => {
                if let Instr::Branch { .. } = uop.instr {
                    st.bimodal.update(uop.pc, uop.actual_target != uop.pc + 1);
                }
                if uop.actual_target != uop.pred_target {
                    squash_after(st, seq, uop.actual_target, SquashReason::Branch);
                    continue;
                }
            }
            UopKind::Jalr => {
                st.btb.update(uop.pc, uop.actual_target);
                if uop.actual_target != uop.pred_target {
                    squash_after(st, seq, uop.actual_target, SquashReason::Branch);
                    continue;
                }
            }
            UopKind::Load if uop.fault.is_none() => {
                hooks.on_load_writeback(uop.pc, uop.result);
                if let Some(pred) = uop.vp_pred {
                    if pred == uop.result {
                        st.stats.vp_correct += 1;
                    } else {
                        squash_after(st, seq, uop.pc + 1, SquashReason::Value);
                        continue;
                    }
                }
            }
            _ => {}
        }
    }
    // Entries issued later this cycle lower this via
    // `note_exec_wakeup`; a squash can only leave it stale-low,
    // which is harmless (see the field's invariant).
    st.exec_wakeup = next_wakeup;
    Ok(())
}

/// Attempts to execute the load at ROB index `idx`. Returns whether
/// it issued (false = blocked on an older store, retry next cycle).
pub(crate) fn try_issue_load(st: &mut PipelineState, idx: usize) -> bool {
    let uop = &st.rob[idx];
    let Instr::Load {
        base: _,
        offset,
        width,
        signed,
        ..
    } = uop.instr
    else {
        unreachable!("load uop holds a load instruction");
    };
    let addr = st.val(uop.srcs[0]).wrapping_add(offset as u64);
    let seq = uop.seq;
    let n = width.bytes() as u64;

    // Scan older stores, youngest first.
    let mut forwarded: Option<u64> = None;
    for e in st.sq.iter().rev() {
        if e.seq >= seq {
            continue;
        }
        let Some(st_addr) = e.addr else {
            return false; // unknown older store address: wait
        };
        let st_n = e.width.bytes() as u64;
        let overlap = st_addr < addr + n && addr < st_addr + st_n;
        if !overlap {
            continue;
        }
        if st_addr == addr && st_n == n {
            match e.data {
                Some(d) => {
                    forwarded = Some(d & super::width_mask(width));
                    break;
                }
                None => return false, // data not ready yet
            }
        } else {
            return false; // partial overlap: wait for the store to drain
        }
    }

    let cycle = st.cycle;
    let (value, latency, fault) = if let Some(v) = forwarded {
        (v, 1, None)
    } else if !st.mem.contains(addr, width.bytes()) {
        (
            0,
            1,
            Some(MemFault {
                addr,
                len: width.bytes(),
            }),
        )
    } else {
        let latency = st.demand_access(addr);
        match st.mem.read(addr, width) {
            Ok(raw) => (raw, latency, None),
            // `contains` passed just above, so this only happens if
            // memory shrank under us; surface it as a load fault
            // (reported at commit) rather than aborting.
            Err(fault) => (0, 1, Some(fault)),
        }
    };
    let value = if signed {
        sign_extend(value, width.bytes())
    } else {
        value
    };
    let uop = &mut st.rob[idx];
    uop.executing = true;
    uop.done_cycle = cycle + latency;
    uop.result = value;
    uop.addr = Some(addr);
    uop.mem_width = Some(width);
    uop.fault = fault;
    st.note_exec_wakeup(cycle + latency);
    true
}

/// Executes the store at ROB index `idx` (address + data capture).
pub(crate) fn issue_store(st: &mut PipelineState, idx: usize) -> Seq {
    let uop = &st.rob[idx];
    let Instr::Store { offset, width, .. } = uop.instr else {
        unreachable!("store uop holds a store instruction");
    };
    let addr = st.val(uop.srcs[0]).wrapping_add(offset as u64);
    let data = st.val(uop.srcs[1]);
    let seq = uop.seq;
    let cycle = st.cycle;
    let fault = (!st.mem.contains(addr, width.bytes())).then_some(MemFault {
        addr,
        len: width.bytes(),
    });
    if let Some(e) = st.sq.iter_mut().find(|e| e.seq == seq) {
        e.addr = Some(addr);
        e.data = Some(data);
    }
    let uop = &mut st.rob[idx];
    uop.executing = true;
    uop.done_cycle = cycle + 1;
    uop.addr = Some(addr);
    uop.fault = fault;
    let pc = uop.pc;
    st.note_exec_wakeup(cycle + 1);
    st.trace.push(TraceEvent::StoreResolved { cycle, pc, addr });
    seq
}

/// Executes the flush at ROB index `idx`.
pub(crate) fn issue_flush(st: &mut PipelineState, idx: usize) {
    let uop = &st.rob[idx];
    let Instr::Flush { offset, .. } = uop.instr else {
        unreachable!("flush uop holds a flush instruction");
    };
    let addr = st.val(uop.srcs[0]).wrapping_add(offset as u64);
    st.hier.flush_line(addr);
    let cycle = st.cycle;
    let uop = &mut st.rob[idx];
    uop.executing = true;
    uop.done_cycle = cycle + 2;
    st.note_exec_wakeup(cycle + 2);
}

/// Issues a non-memory uop if a port is available.
pub(crate) fn try_issue_compute(
    st: &mut PipelineState,
    hooks: &mut Hooks,
    idx: usize,
    alu: &mut AluSlots,
    muldiv: &mut usize,
    fp: &mut usize,
) -> bool {
    let (instr, pc, srcs, pred_target, kind) = {
        let uop = &st.rob[idx];
        (
            uop.instr,
            uop.pc,
            uop.srcs,
            uop.pred_target,
            uop.kind,
        )
    };
    let lat = st.cfg.latency;
    // The hookless fallback plan: fixed latencies, no simplification.
    let base_opts = OptConfig {
        comp_simpl: false,
        fp_subnormal: false,
        ..st.cfg.opts
    };
    let cycle = st.cycle;

    // Resolve operand values and the execution plan.
    #[allow(clippy::type_complexity)]
    let (plan, result, actual_target, reuse_info, reuse_hit): (
        ExecPlan,
        u64,
        usize,
        Option<([u64; 2], [Option<Reg>; 2])>,
        bool,
    ) = match instr {
        Instr::AluRR { op, rs1, rs2, .. } => {
            let (a, b) = (st.val(srcs[0]), st.val(srcs[1]));
            let regs = [Some(rs1), Some(rs2)];
            let base_eligible = op.is_mul() || op.is_div();
            let (plan, r, info, hit) = plan_reusable(
                hooks,
                pc,
                a,
                b,
                regs,
                base_eligible,
                || op.eval(a, b),
                |hooks, a, b| {
                    hooks
                        .plan_alu(op, a, b)
                        .unwrap_or_else(|| plan_alu(op, a, b, &lat, &base_opts))
                },
            );
            (plan, r, 0, info, hit)
        }
        Instr::AluRI { op, imm, rs1, .. } => {
            let (a, b) = (st.val(srcs[0]), imm as u64);
            let regs = [Some(rs1), None];
            let base_eligible = op.is_mul() || op.is_div();
            let (plan, r, info, hit) = plan_reusable(
                hooks,
                pc,
                a,
                b,
                regs,
                base_eligible,
                || op.eval(a, b),
                |hooks, a, b| {
                    hooks
                        .plan_alu(op, a, b)
                        .unwrap_or_else(|| plan_alu(op, a, b, &lat, &base_opts))
                },
            );
            (plan, r, 0, info, hit)
        }
        Instr::Fp { op, rs1, rs2, .. } => {
            let (a, b) = (st.val(srcs[0]), st.val(srcs[1]));
            let regs = [Some(rs1), Some(rs2)];
            let (plan, r, info, hit) = plan_reusable(
                hooks,
                pc,
                a,
                b,
                regs,
                true,
                || op.eval(a, b),
                |hooks, a, b| {
                    hooks
                        .plan_fp(op, a, b)
                        .unwrap_or_else(|| plan_fp(op, a, b, &lat, &base_opts))
                },
            );
            (plan, r, 0, info, hit)
        }
        Instr::Li { imm, .. } => (
            ExecPlan {
                latency: 1,
                port: PortClass::None,
                event: None,
            },
            imm,
            0,
            None,
            false,
        ),
        Instr::RdCycle { .. } => (
            ExecPlan {
                latency: 1,
                port: PortClass::None,
                event: None,
            },
            // The noise source may coarsen/jitter the reading.
            hooks.read_cycle(cycle),
            0,
            None,
            false,
        ),
        Instr::Jal { .. } => (
            ExecPlan {
                latency: 1,
                port: PortClass::None,
                event: None,
            },
            (pc + 1) as u64,
            pred_target,
            None,
            false,
        ),
        Instr::Jalr { offset, .. } => {
            let target = st.val(srcs[0]).wrapping_add(offset as u64) as usize;
            (
                ExecPlan {
                    latency: 1,
                    port: PortClass::Alu,
                    event: None,
                },
                (pc + 1) as u64,
                target,
                None,
                false,
            )
        }
        Instr::Branch { cond, target, .. } => {
            let (a, b) = (st.val(srcs[0]), st.val(srcs[1]));
            let taken = cond.eval(a, b);
            (
                ExecPlan {
                    latency: 1,
                    port: PortClass::Alu,
                    event: None,
                },
                0,
                if taken { target } else { pc + 1 },
                None,
                false,
            )
        }
        _ => unreachable!("memory and system uops are issued elsewhere"),
    };

    // Port availability.
    let narrow = match instr {
        Instr::AluRR { .. } => packable(st.val(srcs[0]), st.val(srcs[1])),
        Instr::AluRI { imm, .. } => packable(st.val(srcs[0]), imm as u64),
        _ => false,
    };
    match plan.port {
        PortClass::Alu => {
            if !alu.take(narrow && matches!(kind, UopKind::Alu)) {
                return false;
            }
        }
        PortClass::MulDiv => {
            if *muldiv == 0 {
                return false;
            }
            *muldiv -= 1;
        }
        PortClass::Fp => {
            if *fp == 0 {
                return false;
            }
            *fp -= 1;
        }
        PortClass::None => {}
        PortClass::Load | PortClass::Store => {
            unreachable!("memory ports handled in issue()")
        }
    }

    if reuse_hit {
        st.stats.reuse_hits += 1;
    } else if reuse_info.is_some() {
        st.stats.reuse_misses += 1;
    }
    let uop = &mut st.rob[idx];
    uop.executing = true;
    uop.done_cycle = cycle + plan.latency.max(1);
    uop.result = result;
    uop.actual_target = actual_target;
    uop.reuse_info = reuse_info;
    uop.simpl_event = plan.event;
    st.note_exec_wakeup(cycle + plan.latency.max(1));
    true
}

/// Wraps plan construction with the computation-reuse memo lookup
/// ([`Hooks::memo_lookup`]). The last tuple element reports a memo
/// hit; hit/miss statistics are accounted by the caller once the uop
/// actually issues (a port-blocked uop retries and must not
/// double-count).
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn plan_reusable(
    hooks: &Hooks,
    pc: usize,
    a: u64,
    b: u64,
    srcs: [Option<Reg>; 2],
    base_eligible: bool,
    eval: impl FnOnce() -> u64,
    plan: impl FnOnce(&Hooks, u64, u64) -> ExecPlan,
) -> (ExecPlan, u64, Option<([u64; 2], [Option<Reg>; 2])>, bool) {
    match hooks.memo_lookup(pc, [a, b], srcs, base_eligible) {
        MemoLookup::Hit(result) => (
            ExecPlan {
                latency: 1,
                port: PortClass::None,
                event: None,
            },
            result,
            None,
            true,
        ),
        looked => {
            let p = plan(hooks, a, b);
            let r = eval();
            (
                p,
                r,
                matches!(looked, MemoLookup::Miss).then_some(([a, b], srcs)),
                false,
            )
        }
    }
}
