//! Squash: ROB-walk rename undo and fetch redirect.
//!
//! Recovery from branch and value mispredictions (and the
//! spurious-squash fault) walks the ROB from the tail, undoing renames
//! and queue allocations, so any instruction can be a squash point
//! without checkpoints.

use crate::trace::TraceEvent;

use super::{PipelineState, Seq, UopKind};

/// Why the pipeline squashed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SquashReason {
    /// Branch misprediction; counted in `branch_squashes`.
    Branch,
    /// Value misprediction; counted in `vp_squashes`.
    Value,
    /// An injected fault ([`crate::fault::FaultKind::SpuriousSquash`]);
    /// counted by the fault plan in `faults_injected`, not here.
    Fault,
}

/// Squashes every uop younger than `seq` and redirects fetch to
/// `redirect`, undoing renames by walking the ROB from the tail.
pub(crate) fn squash_after(st: &mut PipelineState, seq: Seq, redirect: usize, reason: SquashReason) {
    squash_newer_than(st, Some(seq), redirect, reason);
}

/// Squashes every uop younger than `keep_upto` (all of them when
/// `None` — the spurious-squash fault uses this to flush the whole
/// window), redirecting fetch to `redirect`. Counts the squash under
/// `reason` and traces the redirect.
pub(crate) fn squash_newer_than(
    st: &mut PipelineState,
    keep_upto: Option<Seq>,
    redirect: usize,
    reason: SquashReason,
) {
    let cycle = st.cycle;
    while let Some(tail) = st.rob.back() {
        if keep_upto.is_some_and(|seq| tail.seq <= seq) {
            break;
        }
        let Some(uop) = st.rob.pop_back() else { break };
        if uop.in_iq {
            st.iq_count -= 1;
        }
        if let Some((arch, prev)) = uop.prev {
            st.rat[arch.index()] = prev;
        }
        if let Some(dst) = uop.dst {
            st.free_tag(dst);
        }
        match uop.kind {
            UopKind::Load => st.lq.retain(|&s| s != uop.seq),
            UopKind::Store => st.sq.retain(|e| e.seq != uop.seq),
            UopKind::Fence => {
                st.fences_inflight -= 1;
            }
            _ => {}
        }
    }
    st.fetch_buf.clear();
    st.fetch_pc = redirect;
    st.fetch_stall_until = cycle + st.cfg.pipeline.redirect_penalty;
    st.fetch_blocked = st.fences_inflight > 0;
    match reason {
        SquashReason::Branch => st.stats.branch_squashes += 1,
        SquashReason::Value => st.stats.vp_squashes += 1,
        SquashReason::Fault => {}
    }
    st.trace.push(TraceEvent::Squash {
        cycle,
        pc: redirect,
    });
}
