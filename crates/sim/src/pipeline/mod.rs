//! The decomposed out-of-order pipeline: one module per stage.
//!
//! The monolithic `Machine::step` is split into stage modules, each
//! with one `tick` function over the shared [`PipelineState`]:
//!
//! ```text
//!   fetch ─→ rename/dispatch ─→ issue ─→ execute ─→ lsq ─→ commit
//!     ▲                                                      │
//!     └───────────────── squash (ROB-walk undo) ◀────────────┘
//! ```
//!
//! [`crate::Machine::step`] drives the stages **commit-first** (reverse
//! pipeline order) so a result produced in cycle *n* is consumed no
//! earlier than cycle *n + 1*, exactly as the monolith did:
//! commit → lsq → execute → issue → rename → fetch.
//!
//! Stages hold no state of their own — everything lives in
//! [`PipelineState`]. Each stage records what it observes where it
//! happens: it increments the state's [`SimStats`] counter and pushes
//! its [`crate::TraceEvent`], stamped with the current cycle, onto the
//! state's [`Trace`]. Optimization behavior reaches them only through
//! [`crate::opt::hook::Hooks`], so the baseline stages contain no
//! per-optimization branches.

use std::collections::VecDeque;

use pandora_isa::{Instr, Program, Reg, Width};

use crate::config::SimConfig;
use crate::error::{DeadlockDiagnostics, SimError};
use crate::mem::hierarchy::{Hierarchy, ServedBy};
use crate::mem::memory::{MemFault, Memory};
use crate::opt::bpred::{Bimodal, Btb};
use crate::opt::comp_simpl::SimplEvent;
use crate::opt::silent_store::SsState;
use crate::stats::SimStats;
use crate::trace::Trace;

pub(crate) mod commit;
pub(crate) mod execute;
pub(crate) mod fetch;
pub(crate) mod issue;
pub(crate) mod lsq;
pub(crate) mod rename;
pub(crate) mod squash;

#[cfg(test)]
mod tests;

pub(crate) type Seq = u64;
pub(crate) type PTag = u32;

/// Classification of an instruction for dispatch-time bookkeeping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum UopKind {
    Alu,
    Fp,
    Load,
    Store,
    Branch,
    Jal,
    Jalr,
    Flush,
    RdCycle,
    Li,
    Nop,
    Fence,
    Halt,
}

pub(crate) fn classify(i: &Instr) -> UopKind {
    match i {
        Instr::AluRR { .. } | Instr::AluRI { .. } => UopKind::Alu,
        Instr::Fp { .. } => UopKind::Fp,
        Instr::Li { .. } => UopKind::Li,
        Instr::Load { .. } => UopKind::Load,
        Instr::Store { .. } => UopKind::Store,
        Instr::Branch { .. } => UopKind::Branch,
        Instr::Jal { .. } => UopKind::Jal,
        Instr::Jalr { .. } => UopKind::Jalr,
        Instr::RdCycle { .. } => UopKind::RdCycle,
        Instr::Flush { .. } => UopKind::Flush,
        Instr::Fence => UopKind::Fence,
        Instr::Nop => UopKind::Nop,
        Instr::Halt => UopKind::Halt,
    }
}

/// Fixed-capacity physical source-tag list. No instruction reads more
/// than two registers, so `Uop` carries its tags inline instead of on
/// the heap — renaming and the writeback copy in `execute` stay
/// allocation-free. Derefs to a slice, so indexing and iteration read
/// like the `Vec` it replaced.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SrcTags {
    tags: [PTag; 2],
    len: u8,
}

impl SrcTags {
    pub(crate) fn push(&mut self, tag: PTag) {
        debug_assert!(self.len < 2, "no instruction has more than two sources");
        self.tags[self.len as usize] = tag;
        self.len += 1;
    }
}

impl std::ops::Deref for SrcTags {
    type Target = [PTag];
    fn deref(&self) -> &[PTag] {
        &self.tags[..self.len as usize]
    }
}

/// One in-flight dynamic instruction.
///
/// `Copy`: every field is inline (see [`SrcTags`]), so the writeback
/// path can lift a uop out of the ROB without touching the allocator.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Uop {
    pub(crate) seq: Seq,
    pub(crate) pc: usize,
    pub(crate) instr: Instr,
    pub(crate) kind: UopKind,
    pub(crate) srcs: SrcTags,
    pub(crate) dst: Option<PTag>,
    /// The architectural register this uop redefines and its previous
    /// physical mapping — fuels both commit-time freeing and
    /// squash-time rename undo.
    pub(crate) prev: Option<(Reg, PTag)>,
    pub(crate) in_iq: bool,
    pub(crate) executing: bool,
    pub(crate) done: bool,
    pub(crate) done_cycle: u64,
    pub(crate) result: u64,
    /// Loads/stores: the resolved effective address.
    pub(crate) addr: Option<u64>,
    /// Loads: access width (for DMP training).
    pub(crate) mem_width: Option<Width>,
    pub(crate) fault: Option<MemFault>,
    /// Branches/jalr: the fetch-time predicted next pc.
    pub(crate) pred_target: usize,
    /// Branches/jalr: the resolved next pc.
    pub(crate) actual_target: usize,
    /// Value prediction made at dispatch, if any.
    pub(crate) vp_pred: Option<u64>,
    /// Memo-table insertion info captured at issue on a reuse miss.
    pub(crate) reuse_info: Option<([u64; 2], [Option<Reg>; 2])>,
    /// Simplification event to count when the uop completes.
    pub(crate) simpl_event: Option<SimplEvent>,
}

/// A store-queue entry; lives from dispatch until dequeue (possibly
/// after commit).
#[derive(Clone, Copy, Debug)]
pub(crate) struct SqEntry {
    pub(crate) seq: Seq,
    pub(crate) pc: usize,
    pub(crate) width: Width,
    pub(crate) addr: Option<u64>,
    pub(crate) data: Option<u64>,
    pub(crate) committed: bool,
    pub(crate) ss: SsState,
    pub(crate) performing_until: Option<u64>,
    pub(crate) at_head_traced: bool,
}

/// Everything the pipeline stages read and write: the architectural
/// machine (program, memory, caches), the microarchitectural window
/// (fetch buffer, rename tables, ROB, load/store queues), and the two
/// observation records: the [`SimStats`] counters and the [`Trace`].
///
/// Stage modules and optimization hooks share this one struct.
#[derive(Clone, Debug)]
pub(crate) struct PipelineState {
    pub(crate) cfg: SimConfig,
    pub(crate) prog: Program,
    pub(crate) mem: Memory,
    pub(crate) hier: Hierarchy,
    pub(crate) cycle: u64,
    pub(crate) next_seq: Seq,
    pub(crate) halted: bool,

    // Frontend.
    pub(crate) fetch_pc: usize,
    pub(crate) fetch_stall_until: u64,
    pub(crate) fetch_blocked: bool,
    /// (pc, instr, predicted next pc).
    pub(crate) fetch_buf: VecDeque<(usize, Instr, usize)>,
    pub(crate) bimodal: Bimodal,
    pub(crate) btb: Btb,

    // Rename / register state.
    pub(crate) rat: [PTag; Reg::COUNT],
    pub(crate) prf_vals: Vec<u64>,
    pub(crate) prf_ready: Vec<bool>,
    pub(crate) live_tags: usize,
    pub(crate) shared_tags: Vec<PTag>,
    /// Dead physical tags available for reallocation. A tag enters
    /// this list only in [`PipelineState::free_tag`], at which point
    /// no in-flight reader can name it (see the free-list safety note
    /// there), so recycling keeps `prf_vals` bounded by the PRF size
    /// instead of growing per rename.
    pub(crate) free_tags: Vec<PTag>,
    pub(crate) arch_regs: [u64; Reg::COUNT],

    // Backend.
    pub(crate) rob: VecDeque<Uop>,
    pub(crate) iq_count: usize,
    pub(crate) lq: VecDeque<Seq>,
    pub(crate) sq: VecDeque<SqEntry>,
    pub(crate) fences_inflight: usize,

    /// The counters every receiver reads.
    pub(crate) stats: SimStats,
    /// The event log; off unless [`crate::Machine::enable_trace`] ran.
    pub(crate) trace: Trace,

    /// Per-cycle scratch for the issue stage (stores whose address
    /// resolved this cycle); hung off the state so steady-state cycles
    /// reuse its capacity instead of allocating.
    pub(crate) store_resolve_scratch: Vec<Seq>,

    /// Earliest cycle at which any in-flight uop can complete; the
    /// execute stage skips its ROB scan entirely while
    /// `cycle < exec_wakeup` (the common case during a long cache
    /// miss). Invariant: anything that makes a uop completable at
    /// cycle *c* must call [`PipelineState::note_exec_wakeup`]`(c)`.
    /// The value is allowed to be stale-*low* (it merely costs a scan
    /// that finds nothing — squashes and dropped completions therefore
    /// need no adjustment), never stale-high. `0` forces a scan.
    pub(crate) exec_wakeup: u64,

    /// Last cycle that committed an instruction or dequeued a store —
    /// the watchdog's notion of forward progress.
    pub(crate) last_progress_cycle: u64,
}

impl PipelineState {
    /// Creates the baseline machine state (zeroed memory/registers, an
    /// identity rename map, empty queues).
    pub(crate) fn new(cfg: SimConfig) -> PipelineState {
        let mut prf_vals = Vec::with_capacity(cfg.pipeline.prf_size);
        let mut prf_ready = Vec::with_capacity(cfg.pipeline.prf_size);
        let mut rat = [0 as PTag; Reg::COUNT];
        for (i, slot) in rat.iter_mut().enumerate() {
            *slot = i as PTag;
            prf_vals.push(0);
            prf_ready.push(true);
        }
        PipelineState {
            mem: Memory::new(cfg.mem_size),
            hier: Hierarchy::new(cfg.l1d, cfg.l2, cfg.mem_latency),
            cycle: 0,
            next_seq: 0,
            halted: false,
            fetch_pc: 0,
            fetch_stall_until: 0,
            fetch_blocked: false,
            fetch_buf: VecDeque::new(),
            bimodal: Bimodal::new(1024),
            btb: Btb::new(),
            rat,
            prf_vals,
            prf_ready,
            live_tags: Reg::COUNT,
            shared_tags: Vec::new(),
            free_tags: Vec::new(),
            arch_regs: [0; Reg::COUNT],
            rob: VecDeque::new(),
            iq_count: 0,
            lq: VecDeque::new(),
            sq: VecDeque::new(),
            fences_inflight: 0,
            stats: SimStats::default(),
            trace: Trace::default(),
            store_resolve_scratch: Vec::new(),
            exec_wakeup: 0,
            last_progress_cycle: 0,
            prog: Program::default(),
            cfg,
        }
    }

    /// Rewinds to the post-construction state while keeping every
    /// allocation (PRF vectors, queues, memory backing, cache arrays)
    /// and the loaded program. The stats are zeroed, the trace emptied
    /// and disabled, and the caches emptied.
    pub(crate) fn reset(&mut self) {
        self.cycle = 0;
        self.next_seq = 0;
        self.halted = false;
        self.fetch_pc = 0;
        self.fetch_stall_until = 0;
        self.fetch_blocked = false;
        self.fetch_buf.clear();
        self.bimodal.reset();
        self.btb.reset();
        self.prf_vals.clear();
        self.prf_ready.clear();
        for (i, slot) in self.rat.iter_mut().enumerate() {
            *slot = i as PTag;
            self.prf_vals.push(0);
            self.prf_ready.push(true);
        }
        self.live_tags = Reg::COUNT;
        self.shared_tags.clear();
        self.free_tags.clear();
        self.arch_regs = [0; Reg::COUNT];
        self.store_resolve_scratch.clear();
        self.exec_wakeup = 0;
        self.rob.clear();
        self.iq_count = 0;
        self.lq.clear();
        self.sq.clear();
        self.fences_inflight = 0;
        self.mem
            .clear(0, self.cfg.mem_size)
            .expect("whole-memory clear is in bounds");
        self.hier.reset();
        self.stats = SimStats::default();
        self.trace.reset();
        self.last_progress_cycle = 0;
    }

    /// Makes `self` equal to `src` in place, reusing every allocation
    /// the shapes share — the restore half of
    /// [`crate::Machine::restore`]. Memory goes through
    /// [`Memory::restore_from`] so only the dirty prefixes move (and
    /// the write high-water mark travels with the contents); the
    /// vector/deque fields use `clone_from` to keep their capacity.
    ///
    /// The exhaustive destructuring below is deliberate: adding a field
    /// to `PipelineState` without deciding how it restores must be a
    /// compile error, not a silent checkpoint divergence.
    pub(crate) fn restore_from(&mut self, src: &PipelineState) {
        let PipelineState {
            cfg,
            prog,
            mem,
            hier,
            cycle,
            next_seq,
            halted,
            fetch_pc,
            fetch_stall_until,
            fetch_blocked,
            fetch_buf,
            bimodal,
            btb,
            rat,
            prf_vals,
            prf_ready,
            live_tags,
            shared_tags,
            free_tags,
            arch_regs,
            rob,
            iq_count,
            lq,
            sq,
            fences_inflight,
            stats,
            trace,
            store_resolve_scratch,
            exec_wakeup,
            last_progress_cycle,
        } = src;
        self.cfg = *cfg;
        self.prog.clone_from(prog);
        self.mem.restore_from(mem);
        self.hier.restore_from(hier);
        self.cycle = *cycle;
        self.next_seq = *next_seq;
        self.halted = *halted;
        self.fetch_pc = *fetch_pc;
        self.fetch_stall_until = *fetch_stall_until;
        self.fetch_blocked = *fetch_blocked;
        self.fetch_buf.clone_from(fetch_buf);
        self.bimodal.restore_from(bimodal);
        self.btb.restore_from(btb);
        self.rat = *rat;
        self.prf_vals.clone_from(prf_vals);
        self.prf_ready.clone_from(prf_ready);
        self.live_tags = *live_tags;
        self.shared_tags.clone_from(shared_tags);
        self.free_tags.clone_from(free_tags);
        self.arch_regs = *arch_regs;
        self.rob.clone_from(rob);
        self.iq_count = *iq_count;
        self.lq.clone_from(lq);
        self.sq.clone_from(sq);
        self.fences_inflight = *fences_inflight;
        self.stats = *stats;
        self.trace.restore_from(trace);
        self.store_resolve_scratch.clone_from(store_resolve_scratch);
        self.exec_wakeup = *exec_wakeup;
        self.last_progress_cycle = *last_progress_cycle;
    }

    // ---- Register tag plumbing ---------------------------------------

    pub(crate) fn alloc_tag(&mut self) -> Option<PTag> {
        if self.live_tags >= self.cfg.pipeline.prf_size {
            return None;
        }
        self.live_tags += 1;
        if let Some(tag) = self.free_tags.pop() {
            self.prf_vals[tag as usize] = 0;
            self.prf_ready[tag as usize] = false;
            return Some(tag);
        }
        let tag = self.prf_vals.len() as PTag;
        self.prf_vals.push(0);
        self.prf_ready.push(false);
        Some(tag)
    }

    /// Returns `tag` to the free list.
    ///
    /// Free-list safety: this is called in exactly two places, and in
    /// both the tag is provably dead. (1) Commit frees the *previous*
    /// mapping of the register a retiring uop redefines — every
    /// consumer of that mapping is older than the redefiner, so it has
    /// already executed (read the value) and retired. (2) Squash frees
    /// the destination of a squashed uop — its consumers are younger
    /// and were squashed with it. Register-file-compression shares do
    /// *not* enter the free list at release time: a shared tag stays
    /// readable (only its PRF-occupancy charge is dropped) until the
    /// redefiner's commit lands here and recycles it, so sharing can
    /// never corrupt an in-flight reader.
    pub(crate) fn free_tag(&mut self, tag: PTag) {
        if let Some(i) = self.shared_tags.iter().position(|&t| t == tag) {
            // Already released early by register-file compression.
            self.shared_tags.swap_remove(i);
        } else {
            self.live_tags -= 1;
        }
        self.free_tags.push(tag);
    }

    /// Records that a uop may complete at `done_cycle`; see
    /// [`PipelineState::exec_wakeup`].
    #[inline]
    pub(crate) fn note_exec_wakeup(&mut self, done_cycle: u64) {
        if done_cycle < self.exec_wakeup {
            self.exec_wakeup = done_cycle;
        }
    }

    pub(crate) fn srcs_ready(&self, uop: &Uop) -> bool {
        uop.srcs.iter().all(|&t| self.prf_ready[t as usize])
    }

    pub(crate) fn val(&self, tag: PTag) -> u64 {
        self.prf_vals[tag as usize]
    }

    /// Removes the uop at ROB index `idx` from the issue queue (called
    /// when it starts executing). Double removal is a pipeline bug:
    /// debug builds assert, and paranoid runs surface it as a
    /// structured [`SimError::InvalidState`] instead of silently
    /// corrupting the IQ occupancy count.
    pub(crate) fn leave_iq(&mut self, idx: usize) -> Result<(), SimError> {
        let uop = &mut self.rob[idx];
        debug_assert!(uop.in_iq, "uop left the IQ twice");
        if !uop.in_iq && self.cfg.paranoid_checks {
            let (seq, pc) = (uop.seq, uop.pc);
            return Err(self.invalid_state(format!(
                "uop seq {seq} (pc {pc}) left the issue queue twice"
            )));
        }
        uop.in_iq = false;
        self.iq_count = self.iq_count.saturating_sub(1);
        Ok(())
    }

    /// Cross-checks the redundant pipeline occupancy counters against
    /// the queues they summarize; called once per cycle when
    /// [`SimConfig::paranoid_checks`] is set, so release-mode runs
    /// (CI smoke, `runall`) catch broken invariants as structured
    /// errors instead of silently continuing.
    ///
    /// [`SimConfig::paranoid_checks`]: crate::SimConfig::paranoid_checks
    pub(crate) fn paranoid_validate(&self) -> Result<(), SimError> {
        let in_iq = self.rob.iter().filter(|u| u.in_iq).count();
        if in_iq != self.iq_count {
            return Err(self.invalid_state(format!(
                "iq_count {} disagrees with {} in-IQ uops in the ROB",
                self.iq_count, in_iq
            )));
        }
        if self.iq_count > self.cfg.pipeline.iq_size {
            return Err(self.invalid_state(format!(
                "iq_count {} exceeds iq_size {}",
                self.iq_count, self.cfg.pipeline.iq_size
            )));
        }
        if self.live_tags > self.cfg.pipeline.prf_size {
            return Err(self.invalid_state(format!(
                "live_tags {} exceeds prf_size {}",
                self.live_tags, self.cfg.pipeline.prf_size
            )));
        }
        if self.rob.len() > self.cfg.pipeline.rob_size {
            return Err(self.invalid_state(format!(
                "ROB holds {} uops, capacity {}",
                self.rob.len(),
                self.cfg.pipeline.rob_size
            )));
        }
        Ok(())
    }

    /// Performs a demand access, counts the level that served it, and
    /// returns the access latency.
    pub(crate) fn demand_access(&mut self, addr: u64) -> u64 {
        let acc = self.hier.access(addr);
        match acc.served_by {
            ServedBy::L1 => self.stats.l1_hits += 1,
            ServedBy::L2 => self.stats.l2_hits += 1,
            ServedBy::Dram => self.stats.dram_accesses += 1,
        }
        acc.latency
    }

    pub(crate) fn invalid_state(&self, context: String) -> SimError {
        SimError::InvalidState {
            context,
            cycle: self.cycle,
        }
    }

    pub(crate) fn deadlock_snapshot(&self) -> DeadlockDiagnostics {
        DeadlockDiagnostics {
            rob_head: self.rob.front().map(|u| (u.seq, u.pc)),
            rob_len: self.rob.len(),
            sq_head: self.sq.front().map(|e| (e.seq, e.pc)),
            sq_len: self.sq.len(),
            lq_len: self.lq.len(),
            live_tags: self.live_tags,
            prf_size: self.cfg.pipeline.prf_size,
            fetch_pc: self.fetch_pc,
            last_progress_cycle: self.last_progress_cycle,
        }
    }
}

pub(crate) fn width_mask(w: Width) -> u64 {
    match w.bytes() {
        1 => 0xff,
        2 => 0xffff,
        4 => 0xffff_ffff,
        _ => u64::MAX,
    }
}
