//! Rename/dispatch: moves fetched instructions into the backend.
//!
//! Allocates a physical destination tag, records the previous mapping
//! for squash undo, and claims ROB/IQ/LQ/SQ slots. Optimization hooks
//! intercept at two points: [`Hooks::on_rename`] (computation-reuse
//! invalidation) and [`Hooks::predict_load`] (value prediction).

use pandora_isa::Instr;

use crate::error::SimError;
use crate::opt::hook::Hooks;
use crate::opt::silent_store::SsState;

use super::{classify, PipelineState, SqEntry, SrcTags, Uop, UopKind};

/// Renames and dispatches up to `dispatch_width` fetched instructions.
pub(crate) fn tick(st: &mut PipelineState, hooks: &mut Hooks) -> Result<(), SimError> {
    let p = st.cfg.pipeline;
    for _ in 0..p.dispatch_width {
        let Some(&(pc, instr, pred_target)) = st.fetch_buf.front() else {
            break;
        };
        if st.rob.len() >= p.rob_size {
            st.stats.backend_stalls += 1;
            break;
        }
        let kind = classify(&instr);
        let needs_iq = !matches!(kind, UopKind::Nop | UopKind::Fence | UopKind::Halt);
        if needs_iq && st.iq_count >= p.iq_size {
            st.stats.backend_stalls += 1;
            break;
        }
        match kind {
            UopKind::Load if st.lq.len() >= p.lq_size => {
                st.stats.backend_stalls += 1;
                break;
            }
            UopKind::Store if st.sq.len() >= p.sq_size => {
                st.stats.sq_full_stalls += 1;
                break;
            }
            _ => {}
        }
        let dest = instr.dest();
        if dest.is_some() && st.live_tags >= p.prf_size {
            st.stats.rename_stalls_prf += 1;
            break;
        }

        // All resources available: rename and dispatch.
        st.fetch_buf.pop_front();
        let (src_regs, n_srcs) = instr.source_pair();
        let mut srcs = SrcTags::default();
        for r in &src_regs[..n_srcs] {
            srcs.push(st.rat[r.index()]);
        }
        let (dst, prev) = match dest {
            Some(rd) => {
                let Some(tag) = st.alloc_tag() else {
                    // Gated on live_tags < prf_size above, so the
                    // free list can only be empty if tag accounting
                    // was corrupted.
                    return Err(SimError::ResourceExhausted {
                        resource: format!("physical register file ({} tags)", p.prf_size),
                        cycle: st.cycle,
                    });
                };
                let prev = st.rat[rd.index()];
                st.rat[rd.index()] = tag;
                hooks.on_rename(rd);
                (Some(tag), Some((rd, prev)))
            }
            None => (None, None),
        };
        let seq = st.next_seq;
        st.next_seq += 1;

        let mut uop = Uop {
            seq,
            pc,
            instr,
            kind,
            srcs,
            dst,
            prev,
            in_iq: needs_iq,
            executing: false,
            done: !needs_iq,
            done_cycle: st.cycle,
            result: 0,
            addr: None,
            mem_width: None,
            fault: None,
            pred_target,
            actual_target: 0,
            vp_pred: None,
            reuse_info: None,
            simpl_event: None,
        };

        match kind {
            UopKind::Load => {
                st.lq.push_back(seq);
                if let Some(pred) = hooks.predict_load(pc) {
                    let Some(dst) = uop.dst else {
                        return Err(st.invalid_state(format!(
                            "load at pc {pc} dispatched without a \
                             destination tag"
                        )));
                    };
                    let tag = dst as usize;
                    st.prf_vals[tag] = pred;
                    st.prf_ready[tag] = true;
                    uop.vp_pred = Some(pred);
                    st.stats.vp_predictions += 1;
                }
            }
            UopKind::Store => {
                let Instr::Store { width, .. } = instr else {
                    unreachable!("store kind");
                };
                st.sq.push_back(SqEntry {
                    seq,
                    pc,
                    width,
                    addr: None,
                    data: None,
                    committed: false,
                    ss: SsState::NotChecked,
                    performing_until: None,
                    at_head_traced: false,
                });
            }
            UopKind::Fence => {
                st.fences_inflight += 1;
            }
            _ => {}
        }
        if needs_iq {
            st.iq_count += 1;
        }
        st.rob.push_back(uop);
    }
    Ok(())
}
