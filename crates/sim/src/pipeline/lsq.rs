//! Load/store-queue upkeep: SS-load resolution and store dequeue.
//!
//! Stores dequeue from the store queue in program order and only after
//! their line is present in the L1 (paper §V-A1) — the property the
//! silent-store amplification gadget relies on. Whether a committed
//! store may dequeue *silently* is delegated to
//! [`Hooks::store_dequeue_decision`]; the baseline sends every store to
//! the cache.

use crate::error::SimError;
use crate::opt::hook::Hooks;
use crate::opt::silent_store::SsState;
use crate::trace::{NonSilentReason, TraceEvent};

use super::{width_mask, PipelineState};

/// Resolves returned SS-loads, then dequeues committed stores.
pub(crate) fn tick(st: &mut PipelineState, hooks: &Hooks) -> Result<(), SimError> {
    resolve_ss_loads(st);
    dequeue_stores(st, hooks)
}

fn resolve_ss_loads(st: &mut PipelineState) {
    let cycle = st.cycle;
    'entries: for i in 0..st.sq.len() {
        let e = st.sq[i];
        if let SsState::Outstanding { done_cycle } = e.ss {
            if done_cycle <= cycle {
                let (Some(addr), Some(data)) = (e.addr, e.data) else {
                    continue;
                };
                // The SS-load is a load: it observes older in-flight
                // stores through store-to-load forwarding, youngest
                // first. An unresolved or partially overlapping older
                // store defers the check (retried next cycle; the
                // store may end up case D instead).
                let n = e.width.bytes() as u64;
                let mut current: Option<u64> = None;
                for j in (0..i).rev() {
                    let older = st.sq[j];
                    let Some(o_addr) = older.addr else {
                        continue 'entries;
                    };
                    let o_n = older.width.bytes() as u64;
                    let overlap = o_addr < addr + n && addr < o_addr + o_n;
                    if !overlap {
                        continue;
                    }
                    if o_addr == addr && o_n == n {
                        match older.data {
                            Some(d) => {
                                current = Some(d & width_mask(e.width));
                                break;
                            }
                            None => continue 'entries,
                        }
                    }
                    continue 'entries; // partial overlap: defer
                }
                let current = match current {
                    Some(v) => v,
                    None => match st.mem.read(addr, e.width) {
                        Ok(v) => v,
                        Err(_) => continue,
                    },
                };
                let silent = current == data & width_mask(e.width);
                st.sq[i].ss = SsState::Checked { silent };
                st.trace.push(TraceEvent::SsLoadReturned {
                    cycle,
                    pc: e.pc,
                    silent,
                });
            }
        }
    }
}

fn dequeue_stores(st: &mut PipelineState, hooks: &Hooks) -> Result<(), SimError> {
    loop {
        let cycle = st.cycle;
        let Some(head) = st.sq.front_mut() else { break };
        if !head.committed {
            break;
        }
        let pc = head.pc;
        if !head.at_head_traced {
            head.at_head_traced = true;
            st.trace.push(TraceEvent::StoreAtHead { cycle, pc });
        }
        if let Some(t) = head.performing_until {
            if cycle >= t {
                let width = head.width;
                let (Some(addr), Some(data)) = (head.addr, head.data) else {
                    return Err(st.invalid_state(format!(
                        "committed store at pc {pc} reached dequeue \
                         without a resolved address/data"
                    )));
                };
                if let Err(fault) = st.mem.write(addr, data, width) {
                    // A faulting store should have stopped at commit;
                    // reaching here means memory changed under us
                    // (e.g. an injected fault) after the bounds check.
                    return Err(st.invalid_state(format!(
                        "committed store at pc {pc} faulted at \
                         dequeue: {fault}"
                    )));
                }
                st.sq.pop_front();
                st.last_progress_cycle = cycle;
                st.stats.performed_stores += 1;
                st.trace.push(TraceEvent::StoreDequeued { cycle, pc });
                // One performed store completes per cycle.
                break;
            }
            break;
        }
        match hooks.store_dequeue_decision(head.ss) {
            Ok(()) => {
                st.sq.pop_front();
                st.last_progress_cycle = cycle;
                st.stats.silent_stores += 1;
                st.trace.push(TraceEvent::StoreSilentDequeue { cycle, pc });
                // Consecutive silent stores dequeue in the same cycle.
            }
            Err(reason) => {
                let Some(addr) = head.addr else {
                    return Err(st.invalid_state(format!(
                        "committed store at pc {pc} has no resolved \
                         address at dequeue"
                    )));
                };
                let latency = st.demand_access(addr);
                let Some(head) = st.sq.front_mut() else {
                    return Err(st.invalid_state(format!(
                        "store queue emptied while the head store \
                         (pc {pc}) was being sent to the cache"
                    )));
                };
                head.performing_until = Some(cycle + latency);
                if reason == NonSilentReason::SsLoadLate {
                    st.stats.ss_late += 1;
                }
                st.trace
                    .push(TraceEvent::StoreSentToCache { cycle, pc, reason });
                break;
            }
        }
    }
    Ok(())
}
