//! Steady-state allocation audit for the simulator hot loop.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warmup long enough for every pipeline scratch buffer, cache set, ROB
//! ring and event-bus buffer to reach its high-water mark, 10k further
//! [`Machine::step`] calls must perform **zero** heap allocations. This
//! pins the tentpole property of the allocation-free cycle loop: the
//! per-cycle `Uop` clones, rename `srcs` collects, store-resolution
//! Vecs and tag-snapshot collects that used to dominate the profile
//! are gone, and nothing reintroduces them silently.
//!
//! One `#[test]` covers the quiet and noisy fig. 5 configurations plus
//! a [`Machine::reset`] + re-warm leg serially: the allocator is
//! process-global, so splitting the measurements into separate
//! `#[test]` functions would let the harness interleave them on
//! different threads and misattribute counts. The reset leg pins the
//! other half of the hot-loop contract — rewinding a machine for
//! another calibration trial neither allocates nor frees the buffers
//! the steady state depends on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use std::sync::Arc;

use pandora_bench::perf::{
    fig5_noisy_config, fig5_quiet_config, fig5_step_machine, warmup,
    NOISY_WARMUP_STEPS, QUIET_WARMUP_STEPS,
};
use pandora_isa::{Asm, Reg};
use pandora_sim::fleet::{self, MachinePool};
use pandora_sim::{Machine, MemberSpec, SimConfig};

/// System allocator wrapper that counts every allocation event.
/// Deallocations are deliberately not counted: freeing during
/// steady-state is as much a hot-loop bug as allocating, but every
/// `alloc`/`realloc` pairs with a later free, so counting allocation
/// entry points alone already catches both directions of churn.
struct CountingAlloc {
    allocs: AtomicU64,
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc {
    allocs: AtomicU64::new(0),
};

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

const MEASURED_STEPS: u64 = 10_000;

/// Where the fleet leg's counting loop reads its iteration count.
const COUNT_ADDR: u64 = 0x2000;

fn allocs_now() -> u64 {
    ALLOC.allocs.load(Ordering::Relaxed)
}

fn steady_state_allocs(label: &str, m: &mut Machine, warmup_steps: u64) -> u64 {
    warmup(m, warmup_steps);
    let before = allocs_now();
    for _ in 0..MEASURED_STEPS {
        m.step()
            .unwrap_or_else(|e| panic!("{label}: step failed mid-measurement: {e}"));
    }
    let after = allocs_now();
    assert!(!m.is_halted(), "{label}: workload must never halt");
    after - before
}

#[test]
fn steady_state_step_is_allocation_free() {
    let mut quiet_machine = fig5_step_machine(fig5_quiet_config());
    let quiet = steady_state_allocs("fig5_quiet", &mut quiet_machine, QUIET_WARMUP_STEPS);
    assert_eq!(
        quiet, 0,
        "quiet fig5 config allocated {quiet} times across {MEASURED_STEPS} steady-state steps"
    );

    let mut noisy_machine = fig5_step_machine(fig5_noisy_config());
    let noisy = steady_state_allocs("fig5_noisy", &mut noisy_machine, NOISY_WARMUP_STEPS);
    assert_eq!(
        noisy, 0,
        "noisy fig5 config allocated {noisy} times across {MEASURED_STEPS} steady-state steps"
    );

    // `Machine::reset` promises to rewind to the post-construction
    // state *while keeping every allocation* — it is the primitive
    // calibration loops use to re-run trials without rebuilding a
    // machine. Both halves of that promise are audited here: the reset
    // itself must not allocate, and the post-reset machine must re-warm
    // back into an allocation-free steady state (nothing freed during
    // reset that the hot loop then has to re-grow).
    let before_reset = allocs_now();
    noisy_machine.reset();
    let reset_allocs = allocs_now() - before_reset;
    assert_eq!(
        reset_allocs, 0,
        "Machine::reset() allocated {reset_allocs} times; it must recycle in place"
    );

    let reheated = steady_state_allocs("fig5_noisy_after_reset", &mut noisy_machine, NOISY_WARMUP_STEPS);
    assert_eq!(
        reheated, 0,
        "post-reset noisy fig5 config allocated {reheated} times across {MEASURED_STEPS} \
         steady-state steps — reset must keep the hot loop's buffers at their high-water mark"
    );

    // Restore leg: `Machine::restore` rewinds to a mid-run checkpoint
    // with `clone_from` semantics — every state buffer is reused in
    // place at its captured capacity. Taking the snapshot and the
    // restore itself may allocate (a checkpoint is a deep clone, and
    // restore re-clones the hook boxes); what must NOT allocate is the
    // steady state afterwards, with *zero* re-warm steps: the
    // checkpoint captured the high-water marks, so the hot loop resumes
    // allocation-free from the first post-restore step.
    let ck = noisy_machine.snapshot();
    warmup(&mut noisy_machine, 1000); // drift past the checkpoint before rewinding
    noisy_machine.restore(&ck);
    let restored = steady_state_allocs("fig5_noisy_after_restore", &mut noisy_machine, 0);
    assert_eq!(
        restored, 0,
        "post-restore noisy fig5 config allocated {restored} times across {MEASURED_STEPS} \
         steady-state steps — restore must reuse every buffer at its captured high-water mark"
    );

    // Fleet leg: `trial_grid_pooled` at threads = 1 runs inline on the
    // caller's thread against a warmed pool. Per call it may allocate
    // (the result vector, machine recycling), but stepping inside it
    // must not: a repeat call allocates exactly as often whether each
    // trial counts down a short loop or one ten times longer.
    let counting = Arc::new({
        let mut a = Asm::new();
        a.ld(Reg::T0, Reg::ZERO, COUNT_ADDR as i64);
        a.label("loop");
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "loop");
        a.halt();
        a.assemble().expect("counting loop assembles")
    });
    let jobs = |iters: u64| -> Vec<MemberSpec> {
        (0..2)
            .map(|seed| {
                MemberSpec::new(SimConfig { seed, ..fig5_quiet_config() }, Arc::clone(&counting))
                    .with_prep(move |m| {
                        m.mem_mut().write_u64(COUNT_ADDR, iters).expect("count is mapped");
                        Ok(())
                    })
            })
            .collect()
    };
    let (short, long) = (jobs(1_000), jobs(10_000));
    let mut pool = MachinePool::default();
    let mut pooled = |jobs: &[MemberSpec]| -> (u64, u64) {
        let before = allocs_now();
        let out = fleet::trial_grid_pooled(&mut pool, jobs, 1, |_, _, stats| stats.committed);
        let allocs = allocs_now() - before;
        let committed = out.into_iter().map(|r| r.expect("counting trial halts")).sum();
        (allocs, committed)
    };
    pooled(&long);
    pooled(&short);
    let (short_allocs, short_committed) = pooled(&short);
    let (long_allocs, long_committed) = pooled(&long);
    assert!(
        long_committed > 9 * short_committed,
        "the long trials must step ~10x more: {long_committed} vs {short_committed} committed"
    );
    assert_eq!(
        long_allocs, short_allocs,
        "trial_grid_pooled (threads=1) allocated {long_allocs} times for 10x longer trials vs \
         {short_allocs} for short ones — stepping inside a pooled trial must stay allocation-free"
    );
}
