//! A content-directed (pointer-chasing) prefetcher — the *other* data
//! memory-dependent prefetcher family the paper studies (§IV-D2, citing
//! Cooksey et al.'s stateless content-directed prefetching and Roth et
//! al.'s dependence-based prefetching for linked data structures).
//!
//! On every demand-filled line, the prefetcher scans the line's
//! contents for values that *look like pointers* (aligned virtual
//! addresses in bounds) and prefetches the lines they point to. No
//! pattern confirmation is needed: the leak is immediate — **any
//! pointer-shaped value at rest in a touched line has its target line
//! filled**, revealing the value itself through the cache channel,
//! regardless of how (or whether) the program computes on it.
//!
//! Each chase counts one `cdp_prefetches` and traces a `DmpDeref` of
//! the pointer's slot and a `DmpPrefetch` of its target. The
//! dereference is not counted: `dmp_deref_reads` is the IMP's.

use pandora_isa::Width;

use crate::mem::hierarchy::PrefetchFill;
use crate::mem::memory::Memory;
use crate::pipeline::PipelineState;
use crate::trace::TraceEvent;

/// The content-directed prefetcher.
#[derive(Clone, Copy, Debug)]
pub struct Cdp {
    line: u64,
    fill: PrefetchFill,
}

impl Cdp {
    /// Creates a CDP scanning `line`-byte lines.
    #[must_use]
    pub fn new(line: usize, fill: PrefetchFill) -> Cdp {
        Cdp {
            line: line as u64,
            fill,
        }
    }

    /// Whether `v` is pointer-shaped for this machine: nonzero, 8-byte
    /// aligned, and inside physical memory.
    #[must_use]
    pub fn looks_like_pointer(v: u64, mem: &Memory) -> bool {
        v != 0 && v.is_multiple_of(8) && mem.contains(v, 8)
    }

    /// Feeds one committed load: scans the loaded line for candidate
    /// pointers and prefetches their targets, counting each prefetch
    /// and tracing each chase.
    pub(crate) fn observe(&self, addr: u64, st: &mut PipelineState) {
        let line_base = addr & !(self.line - 1);
        for off in (0..self.line).step_by(8) {
            let Ok(v) = st.mem.read(line_base + off, Width::Dword) else {
                continue;
            };
            if Cdp::looks_like_pointer(v, &st.mem) {
                st.hier.prefetch(v, self.fill);
                // Traced but not counted: `dmp_deref_reads` counts the
                // IMP's dereferences only.
                st.trace.push(TraceEvent::DmpDeref {
                    cycle: st.cycle,
                    addr: line_base + off,
                    value: v,
                });
                st.stats.cdp_prefetches += 1;
                st.trace.push(TraceEvent::DmpPrefetch {
                    cycle: st.cycle,
                    addr: v,
                    level: 1,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn rig() -> PipelineState {
        PipelineState::new(SimConfig {
            mem_size: 1 << 16,
            ..SimConfig::default()
        })
    }

    #[test]
    fn pointer_shaped_values_get_their_targets_prefetched() {
        let mut st = rig();
        // A line holding one secret pointer among non-pointers.
        st.mem.write_u64(0x1000, 0x4321).unwrap(); // unaligned value: not a pointer
        st.mem.write_u64(0x1008, 0x8000).unwrap(); // the secret pointer
        st.mem.write_u64(0x1010, 0).unwrap(); // null: not a pointer
        let cdp = Cdp::new(64, PrefetchFill::AllLevels);
        cdp.observe(0x1000, &mut st);
        assert!(st.hier.in_l1(0x8000), "the pointed-to line must be filled");
        assert!(!st.hier.in_l1(0x4321 & !63), "non-pointer value ignored");
        assert_eq!(st.stats.cdp_prefetches, 1);
    }

    #[test]
    fn out_of_memory_values_are_not_chased() {
        let mut st = rig();
        st.mem.write_u64(0x1000, 1 << 40).unwrap();
        let cdp = Cdp::new(64, PrefetchFill::AllLevels);
        cdp.observe(0x1000, &mut st);
        assert_eq!(st.stats.cdp_prefetches, 0);
    }

    #[test]
    fn scans_the_whole_line_not_just_the_accessed_word() {
        let mut st = rig();
        st.mem.write_u64(0x1038, 0x9000).unwrap(); // last word of the line
        let cdp = Cdp::new(64, PrefetchFill::AllLevels);
        cdp.observe(0x1000, &mut st);
        assert!(st.hier.in_l1(0x9000));
    }

    #[test]
    fn pointer_predicate() {
        let mem = Memory::new(4096);
        assert!(Cdp::looks_like_pointer(0x800, &mem));
        assert!(!Cdp::looks_like_pointer(0, &mem));
        assert!(!Cdp::looks_like_pointer(0x801, &mem), "unaligned");
        assert!(!Cdp::looks_like_pointer(1 << 20, &mem), "out of memory");
    }
}
