//! In-order commit: retires up to `commit_width` done uops per cycle.
//!
//! Commit is where speculation becomes architectural: faults surface,
//! renamed values land in the architectural register file, previous
//! physical tags free, and committed loads train the prefetch hooks
//! (the paper's DMP observation point) via
//! [`Hooks::on_commit_load`].

use crate::error::SimError;
use crate::opt::hook::Hooks;

use super::{PipelineState, UopKind};

/// Retires up to `commit_width` done uops in order.
pub(crate) fn tick(st: &mut PipelineState, hooks: &mut Hooks) -> Result<(), SimError> {
    for _ in 0..st.cfg.pipeline.commit_width {
        let Some(head) = st.rob.front() else { break };
        if !head.done {
            break;
        }
        if matches!(head.kind, UopKind::Fence | UopKind::Halt) && !st.sq.is_empty() {
            break; // fences and halt drain the store queue first
        }
        let Some(uop) = st.rob.pop_front() else { break };
        if let Some(fault) = uop.fault {
            return Err(SimError::Mem { fault, pc: uop.pc });
        }
        st.last_progress_cycle = st.cycle;
        match uop.kind {
            UopKind::Halt => {
                st.halted = true;
                st.stats.committed += 1;
                return Ok(());
            }
            UopKind::Fence => {
                st.fences_inflight -= 1;
                if st.fences_inflight == 0 {
                    st.fetch_blocked = false;
                }
            }
            UopKind::Store => {
                if let Some(e) = st.sq.iter_mut().find(|e| e.seq == uop.seq) {
                    e.committed = true;
                }
            }
            UopKind::Load => {
                st.lq.retain(|&s| s != uop.seq);
                hooks.on_commit_load(st, uop.pc, uop.addr, uop.result, uop.mem_width);
            }
            _ => {}
        }
        if let Some((arch, prev)) = uop.prev {
            let Some(dst) = uop.dst else {
                return Err(st.invalid_state(format!(
                    "committing pc {} renames {arch} but has no \
                     destination tag",
                    uop.pc
                )));
            };
            st.arch_regs[arch.index()] = st.val(dst);
            st.free_tag(prev);
        }
        st.stats.committed += 1;
    }
    Ok(())
}
