//! Issue: port-constrained selection of ready uops from the ROB.
//!
//! Walks the ROB oldest-first and issues up to `issue_width` uops whose
//! sources are ready, subject to per-class port budgets. ALU port
//! accounting goes through [`AluSlots`] so the pipeline-compression
//! hook can pack two narrow operations into one port. Stores whose
//! address just resolved get a silent-store check load ("SS-load") on a
//! leftover load port when [`Hooks::silent_stores`] is active (Fig 4
//! A/D vs C).

use crate::error::SimError;
use crate::opt::hook::Hooks;
use crate::opt::pipe_compress::AluSlots;
use crate::opt::silent_store::SsState;
use crate::trace::TraceEvent;

use super::execute::{issue_flush, issue_store, try_issue_compute, try_issue_load};
use super::{PipelineState, UopKind};

/// Issues up to `issue_width` ready uops within the port budgets, then
/// SS-loads for the stores whose address just resolved.
pub(crate) fn tick(st: &mut PipelineState, hooks: &mut Hooks) -> Result<(), SimError> {
    // Nothing waiting in the issue queue: skip the ROB walk. This
    // is observationally identical to running it — no uop can
    // issue, no store can resolve, and no ALU pair can pack.
    if st.iq_count == 0 {
        return Ok(());
    }
    let p = st.cfg.pipeline;
    let mut alu = AluSlots::new(p.alu_ports, hooks.operand_packing());
    let mut muldiv = p.muldiv_ports;
    let mut fp = p.fp_ports;
    let mut loads = p.load_ports;
    let mut stores = p.store_ports;
    let mut issued = 0usize;
    // Scratch buffer owned by `PipelineState` so steady-state
    // cycles never allocate; taken (not borrowed) because the ROB
    // walk below needs `st` mutably. An early `?` return leaves an
    // empty buffer behind, which the next tick simply regrows.
    let mut newly_resolved_stores = std::mem::take(&mut st.store_resolve_scratch);
    newly_resolved_stores.clear();

    // Once every in-IQ uop has been visited the rest of the ROB is
    // all issued/done entries — stop walking. Counted by *visits*
    // (not the live `iq_count`, which `leave_iq` decrements).
    let mut pending = st.iq_count;
    for idx in 0..st.rob.len() {
        if issued >= p.issue_width || pending == 0 {
            break;
        }
        let uop = &st.rob[idx];
        if !uop.in_iq || uop.executing || uop.done {
            continue;
        }
        pending -= 1;
        if !st.srcs_ready(uop) {
            continue;
        }
        let kind = uop.kind;
        match kind {
            UopKind::Load => {
                if loads == 0 {
                    continue;
                }
                if try_issue_load(st, idx) {
                    loads -= 1;
                    issued += 1;
                    st.leave_iq(idx)?;
                }
            }
            UopKind::Store => {
                if stores == 0 {
                    continue;
                }
                let seq = issue_store(st, idx);
                newly_resolved_stores.push(seq);
                stores -= 1;
                issued += 1;
                st.leave_iq(idx)?;
            }
            UopKind::Flush => {
                if loads == 0 {
                    continue;
                }
                issue_flush(st, idx);
                loads -= 1;
                issued += 1;
                st.leave_iq(idx)?;
            }
            _ => {
                if try_issue_compute(st, hooks, idx, &mut alu, &mut muldiv, &mut fp) {
                    issued += 1;
                    st.leave_iq(idx)?;
                }
            }
        }
    }
    st.stats.packed_pairs += alu.packed_pairs();

    // Read-port stealing: stores whose address just resolved get an
    // SS-load if a load port is still free this cycle (Fig 4 A/D vs C).
    if hooks.silent_stores() {
        for &seq in &newly_resolved_stores {
            let Some(e) = st.sq.iter().position(|e| e.seq == seq) else {
                continue;
            };
            let entry = st.sq[e];
            let Some(addr) = entry.addr else {
                continue;
            };
            let cycle = st.cycle;
            if entry.ss != SsState::NotChecked {
                continue;
            }
            if loads == 0 {
                st.sq[e].ss = SsState::NoPort;
                st.stats.ss_no_port += 1;
                continue;
            }
            loads -= 1;
            if !st.mem.contains(addr, entry.width.bytes()) {
                // A faulting store never performs; skip the check.
                st.sq[e].ss = SsState::NoPort;
                continue;
            }
            let latency = st.demand_access(addr);
            st.sq[e].ss = SsState::Outstanding {
                done_cycle: cycle + latency,
            };
            st.stats.ss_loads += 1;
            st.trace.push(TraceEvent::SsLoadIssued {
                cycle,
                pc: entry.pc,
                addr,
            });
        }
    }
    st.store_resolve_scratch = newly_resolved_stores;
    Ok(())
}
