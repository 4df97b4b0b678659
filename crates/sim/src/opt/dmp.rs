//! The data memory-dependent prefetcher (§IV-D2, §V-B; MLD Example 9).
//!
//! A model of the *indirect-memory prefetcher* (IMP, Yu et al.
//! MICRO'15, patented by Intel): it watches the retired-load stream,
//! detects a striding *stream* array `Z`, then solves for the base and
//! scale of dependent *indirect* arrays (`Y[Z[i]]`, and for the 3-level
//! variant `X[Y[Z[i]]]`) by correlating values returned to the core
//! with addresses of subsequent loads. Once a pattern is confirmed it
//! prefetches `Δ` elements ahead — dereferencing data memory itself,
//! with **no knowledge of software bounds**.
//!
//! That bounds-obliviousness is the paper's headline result: in the
//! sandbox setting the 3-level IMP forms a *universal read gadget*
//! (Fig 1), while the 2-level IMP leaks only a `Δ`-element window past
//! the stream array (§IV-D4). Both behaviours fall out of this model
//! and are asserted by the workspace's integration tests.

use std::collections::{HashMap, VecDeque};

use pandora_isa::Width;

use crate::config::OptConfig;
use crate::event::{EventBus, PrefetchSource, SimEvent};
use crate::mem::hierarchy::{Hierarchy, PrefetchFill};
use crate::mem::memory::Memory;

/// Scales (element sizes, bytes) the base-solver hypothesizes.
const SCALES: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];
/// Observations of a (base, scale) hypothesis required to confirm it.
const CONFIRM_HITS: u8 = 2;
/// Strides observed before a PC counts as streaming.
const STREAM_CONF: u8 = 2;
/// Recent-load window searched for value→address correlations.
const RECENT_WINDOW: usize = 8;
/// Maximum live candidate hypotheses.
const MAX_CANDIDATES: usize = 128;

#[derive(Clone, Copy, Debug)]
struct StreamEntry {
    last_addr: u64,
    stride: i64,
    conf: u8,
}

#[derive(Clone, Copy, Debug)]
struct LoadObs {
    pc: usize,
    value: u64,
}

/// A (possibly unconfirmed) indirection hypothesis: the value returned
/// by the load at `src_pc` feeds the address of the load at `dst_pc`
/// as `addr = base + value * scale`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Indirection {
    src_pc: usize,
    dst_pc: usize,
    base: u64,
    scale: u64,
    width: Width,
    hits: u8,
}

/// The indirect-memory prefetcher.
#[derive(Clone, Debug)]
pub struct Imp {
    levels: u8,
    distance: u64,
    fill: PrefetchFill,
    streams: HashMap<usize, StreamEntry>,
    recent: VecDeque<LoadObs>,
    candidates: Vec<Indirection>,
    confirmed: Vec<Indirection>,
}

impl Imp {
    /// Builds an IMP from the optimization config.
    #[must_use]
    pub fn new(opts: &OptConfig) -> Imp {
        Imp {
            levels: opts.dmp_levels.clamp(2, 4),
            distance: opts.dmp_distance.max(1),
            fill: opts.dmp_fill,
            streams: HashMap::new(),
            recent: VecDeque::with_capacity(RECENT_WINDOW),
            candidates: Vec::new(),
            confirmed: Vec::new(),
        }
    }

    /// Forgets all trained state — streams, the recent-load window,
    /// and candidate/confirmed indirections — in place (capacity
    /// kept).
    pub fn clear(&mut self) {
        self.streams.clear();
        self.recent.clear();
        self.candidates.clear();
        self.confirmed.clear();
    }

    /// The number of indirection levels chased (2 to 4).
    #[must_use]
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// Feeds one committed load into the prefetcher and performs any
    /// resulting prefetch chain against `mem`/`hier`, reporting
    /// observation through the event bus.
    #[allow(clippy::too_many_arguments)]
    pub fn observe(
        &mut self,
        pc: usize,
        addr: u64,
        value: u64,
        width: Width,
        mem: &Memory,
        hier: &mut Hierarchy,
        bus: &mut EventBus,
    ) {
        self.correlate(pc, addr, width, bus);
        let stream_ready = self.update_stream(pc, addr);
        self.recent.push_back(LoadObs { pc, value });
        if self.recent.len() > RECENT_WINDOW {
            self.recent.pop_front();
        }
        if stream_ready {
            self.launch(pc, addr, width, mem, hier, bus);
        }
    }

    /// Updates the stride detector; returns whether `pc` is a confident
    /// stream.
    fn update_stream(&mut self, pc: usize, addr: u64) -> bool {
        let e = self.streams.entry(pc).or_insert(StreamEntry {
            last_addr: addr,
            stride: 0,
            conf: 0,
        });
        if e.conf == 0 && e.stride == 0 && e.last_addr == addr {
            // First observation of this pc.
            return false;
        }
        let stride = addr.wrapping_sub(e.last_addr) as i64;
        if stride != 0 && stride == e.stride {
            e.conf = e.conf.saturating_add(1);
        } else {
            e.stride = stride;
            e.conf = 0;
        }
        e.last_addr = addr;
        e.conf >= STREAM_CONF
    }

    /// Correlates this load's *address* against recently returned
    /// *values* to grow indirection hypotheses.
    fn correlate(&mut self, pc: usize, addr: u64, width: Width, bus: &mut EventBus) {
        for obs in self.recent.iter().rev() {
            if obs.pc == pc {
                continue;
            }
            for scale in SCALES {
                let Some(base) = addr.checked_sub(obs.value.wrapping_mul(scale)) else {
                    continue;
                };
                if let Some(c) = self.candidates.iter_mut().find(|c| {
                    c.src_pc == obs.pc && c.dst_pc == pc && c.scale == scale && c.base == base
                }) {
                    c.hits = c.hits.saturating_add(1);
                    c.width = width;
                    if c.hits >= CONFIRM_HITS
                        && !self
                            .confirmed
                            .iter()
                            .any(|k| k.src_pc == c.src_pc && k.dst_pc == c.dst_pc)
                    {
                        bus.emit(SimEvent::PatternConfirmed {
                            src_pc: c.src_pc,
                            dst_pc: c.dst_pc,
                            base: c.base,
                            scale: c.scale,
                        });
                        self.confirmed.push(*c);
                    }
                } else if self.candidates.len() < MAX_CANDIDATES {
                    self.candidates.push(Indirection {
                        src_pc: obs.pc,
                        dst_pc: pc,
                        base,
                        scale,
                        width,
                        hits: 1,
                    });
                }
            }
        }
    }

    /// Issues the prefetch chain for the stream at `pc`, whose current
    /// element address is `addr`: the stream element `Δ` ahead, then up
    /// to `levels - 1` dependent indirections through the confirmed
    /// chain (`Y[Z[i+Δ]]`, `X[Y[Z[i+Δ]]]`, `W[X[Y[Z[i+Δ]]]]`, …).
    fn launch(
        &mut self,
        pc: usize,
        addr: u64,
        width: Width,
        mem: &Memory,
        hier: &mut Hierarchy,
        bus: &mut EventBus,
    ) {
        let Some(stream) = self.streams.get(&pc) else {
            return;
        };
        let ahead = stream.stride.wrapping_mul(self.distance as i64) as u64;
        let mut cur_addr = addr.wrapping_add(ahead);
        let mut cur_width = width;
        let mut cur_pc = pc;

        for level in 0..self.levels {
            // Prefetch the line for the current hop.
            if !mem.contains(cur_addr, cur_width.bytes()) {
                bus.emit(SimEvent::PrefetchDropped);
                return;
            }
            hier.prefetch(cur_addr, self.fill);
            bus.emit(SimEvent::Prefetch {
                source: PrefetchSource::Imp,
                addr: cur_addr,
                level,
            });
            if level + 1 == self.levels {
                return;
            }
            // Follow the next confirmed indirection: dereference the
            // just-prefetched data — the security-critical step: the
            // prefetcher trusts memory contents with no bounds
            // knowledge.
            let Some(link) = self
                .confirmed
                .iter()
                .find(|c| c.src_pc == cur_pc)
                .copied()
            else {
                return;
            };
            let Ok(value) = mem.read(cur_addr, cur_width) else {
                bus.emit(SimEvent::PrefetchDropped);
                return;
            };
            bus.emit(SimEvent::PointerDeref {
                source: PrefetchSource::Imp,
                addr: cur_addr,
                value,
            });
            cur_addr = link.base.wrapping_add(value.wrapping_mul(link.scale));
            cur_width = link.width;
            cur_pc = link.dst_pc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptConfig;
    use crate::mem::cache::CacheConfig;
    use crate::mem::hierarchy::MemLatency;
    use crate::trace::TraceEvent;

    struct Rig {
        imp: Imp,
        mem: Memory,
        hier: Hierarchy,
        bus: EventBus,
    }

    fn rig(levels: u8) -> Rig {
        let mut opts = OptConfig::with_dmp(levels);
        opts.dmp_distance = 2;
        Rig {
            imp: Imp::new(&opts),
            mem: Memory::new(1 << 16),
            hier: Hierarchy::new(
                CacheConfig::l1d(),
                CacheConfig::l2(),
                MemLatency::default(),
            ),
            bus: EventBus::new(),
        }
    }

    const Z_PC: usize = 10;
    const Y_PC: usize = 20;
    const X_PC: usize = 30;
    const Z_BASE: u64 = 0x1000;
    const Y_BASE: u64 = 0x2000;
    const X_BASE: u64 = 0x4000;

    /// Drives the access pattern X[Y[Z[i]]] (Z: u64 elems, Y: u64 elems
    /// scale 8, X: byte elems scale 64) through the prefetcher for
    /// iterations 0..n, skipping dependent accesses whose index is out
    /// of bounds — the way verified sandbox code would.
    fn drive(r: &mut Rig, n: u64) {
        let observe = |r: &mut Rig, pc: usize, addr: u64, value: u64, i: u64| {
            r.bus.begin_cycle(i);
            r.imp
                .observe(pc, addr, value, Width::Dword, &r.mem, &mut r.hier, &mut r.bus);
        };
        for i in 0..n {
            let addr_z = Z_BASE + 8 * i;
            let z = r.mem.read_u64(addr_z).unwrap();
            observe(r, Z_PC, addr_z, z, i);
            let addr_y = Y_BASE.wrapping_add(z.wrapping_mul(8));
            let Ok(y) = r.mem.read_u64(addr_y) else {
                continue; // bounds check failed: demand code stops here
            };
            observe(r, Y_PC, addr_y, y, i);
            let addr_x = X_BASE.wrapping_add(y.wrapping_mul(64));
            let Ok(x) = r.mem.read_u64(addr_x) else {
                continue;
            };
            observe(r, X_PC, addr_x, x, i);
        }
    }

    fn seed_arrays(r: &mut Rig, z: &[u64], y: &[u64]) {
        for (i, &v) in z.iter().enumerate() {
            r.mem.write_u64(Z_BASE + 8 * i as u64, v).unwrap();
        }
        for (i, &v) in y.iter().enumerate() {
            r.mem.write_u64(Y_BASE + 8 * i as u64, v).unwrap();
        }
    }

    #[test]
    fn confirms_two_level_chain() {
        let mut r = rig(2);
        seed_arrays(&mut r, &[3, 1, 4, 7, 5, 0, 2, 6], &[23, 5, 71, 13, 47, 2, 90, 31]);
        drive(&mut r, 6);
        let pats = &r.imp.confirmed;
        assert!(
            pats.iter()
                .any(|i| i.src_pc == Z_PC && i.dst_pc == Y_PC && i.base == Y_BASE && i.scale == 8),
            "Z→Y pattern with base {Y_BASE:#x} scale 8 should confirm; got {pats:?}"
        );
    }

    #[test]
    fn hit_counts_saturate_on_a_correlation_seen_hundreds_of_times() {
        // One value→address correlation, 300 times over: every
        // candidate it grows must saturate its hit count, not overflow.
        let mut r = rig(2);
        let Rig {
            imp,
            mem,
            hier,
            bus,
        } = &mut r;
        for i in 0..300 {
            bus.begin_cycle(i);
            imp.observe(Z_PC, Z_BASE, 3, Width::Dword, mem, hier, bus);
            imp.observe(Y_PC, Y_BASE + 8 * 3, 0, Width::Dword, mem, hier, bus);
        }
        assert!(imp.candidates.iter().any(|c| c.hits == u8::MAX));
        let pair = |c: &&Indirection| (c.src_pc, c.dst_pc) == (Z_PC, Y_PC);
        let confirmed = imp.confirmed.iter().filter(pair).count();
        assert_eq!(confirmed, 1, "a (src, dst) pair confirms once");
    }

    #[test]
    fn three_level_prefetches_through_both_indirections() {
        let mut r = rig(3);
        seed_arrays(&mut r, &[3, 1, 4, 7, 5, 0, 2, 6], &[23, 5, 71, 13, 47, 2, 90, 31]);
        r.bus.trace_mut().enable();
        drive(&mut r, 6);
        let l2_prefetches: Vec<u64> = r
            .bus
            .trace()
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::DmpPrefetch { addr, level: 2, .. } => Some(addr),
                _ => None,
            })
            .collect();
        assert!(
            !l2_prefetches.is_empty(),
            "3-level IMP must reach the X array"
        );
        for a in l2_prefetches {
            assert!(a >= X_BASE, "X prefetch below X base: {a:#x}");
        }
        assert!(r.bus.stats().dmp_deref_reads > 0);
    }

    #[test]
    fn two_level_never_dereferences_y() {
        let mut r = rig(2);
        seed_arrays(&mut r, &[3, 1, 4, 7, 5, 0, 2, 6], &[23, 5, 71, 13, 47, 2, 90, 31]);
        r.bus.trace_mut().enable();
        drive(&mut r, 6);
        let max_level = r
            .bus
            .trace()
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::DmpPrefetch { level, .. } => Some(level),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        assert!(max_level <= 1, "2-level IMP must stop at Y");
    }

    #[test]
    fn four_level_chain_reaches_the_w_array() {
        // Ainsworth & Jones's W[X[Y[Z[i]]]] pattern (§IV-D2): with a
        // 4-level prefetcher the chain follows three dereferences.
        let mut r = rig(4);
        const W_PC: usize = 40;
        const W_BASE: u64 = 0x8000;
        seed_arrays(&mut r, &[3, 1, 4, 7, 5, 0, 2, 6], &[23, 5, 71, 13, 47, 2, 90, 31]);
        // X holds bytes indexing W: X[64*y] = small values.
        for y in [23u64, 5, 71, 13, 47, 2, 90, 31] {
            r.mem.write_u64(X_BASE + 64 * y, (y % 7) + 1).unwrap();
        }
        r.bus.trace_mut().enable();
        // Drive the 4-deep demand pattern.
        for i in 0..6u64 {
            let addr_z = Z_BASE + 8 * i;
            let z = r.mem.read_u64(addr_z).unwrap();
            let addr_y = Y_BASE + 8 * z;
            let y = r.mem.read_u64(addr_y).unwrap();
            let addr_x = X_BASE + 64 * y;
            let x = r.mem.read_u64(addr_x).unwrap();
            let addr_w = W_BASE + 8 * x;
            let w = r.mem.read_u64(addr_w).unwrap_or_default();
            for (pc, addr, value) in [
                (Z_PC, addr_z, z),
                (Y_PC, addr_y, y),
                (X_PC, addr_x, x),
                (W_PC, addr_w, w),
            ] {
                r.bus.begin_cycle(i);
                r.imp
                    .observe(pc, addr, value, Width::Dword, &r.mem, &mut r.hier, &mut r.bus);
            }
        }
        let max_level = r
            .bus
            .trace()
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::DmpPrefetch { level, .. } => Some(level),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        assert_eq!(max_level, 3, "4-level IMP must reach W");
        let w_prefetches = r.bus.trace().events().iter().any(|e| {
            matches!(*e, TraceEvent::DmpPrefetch { addr, level: 3, .. } if addr >= W_BASE)
        });
        assert!(w_prefetches, "a W-array line must be prefetched");
    }

    #[test]
    fn prefetcher_ignores_software_bounds() {
        // The attacker's lever (§V-B2): a huge value in Z steers the Y
        // prefetch to an arbitrary address, even though demand code
        // would have bounds-checked it.
        let mut r = rig(2);
        let target_index = 0x500u64; // Y_BASE + 8*0x500 = 0x4800, out of Y's 8 elements
        seed_arrays(
            &mut r,
            &[3, 1, 4, 7, 5, 0, target_index, 2],
            &[23, 5, 71, 13, 47, 2, 90, 31],
        );
        r.bus.trace_mut().enable();
        drive(&mut r, 5); // prefetch distance 2 → deref reaches Z[6]
        let y_prefetches: Vec<u64> = r
            .bus
            .trace()
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::DmpPrefetch { addr, level: 1, .. } => Some(addr),
                _ => None,
            })
            .collect();
        assert!(
            y_prefetches.contains(&(Y_BASE + 8 * target_index)),
            "prefetcher should blindly chase the out-of-bounds index; got {y_prefetches:?}"
        );
    }

    #[test]
    fn out_of_memory_prefetches_are_dropped() {
        let mut r = rig(2);
        // The huge value sits at Z[5], which the Δ=2 prefetch dereferences
        // at iteration 3 (the first confident-stream iteration).
        seed_arrays(&mut r, &[3, 1, 4, 7, 5, 1 << 20, 2, 6], &[23, 5, 71, 13, 47, 2, 90, 31]);
        drive(&mut r, 5);
        assert!(r.bus.stats().dmp_dropped > 0);
    }

    #[test]
    fn no_prefetch_without_stream_confidence() {
        let mut r = rig(2);
        // Random (non-strided) Z addresses: observe directly.
        for (i, addr) in [0x1000u64, 0x1040, 0x1008, 0x1100].into_iter().enumerate() {
            r.bus.begin_cycle(i as u64);
            r.imp
                .observe(Z_PC, addr, 0, Width::Dword, &r.mem, &mut r.hier, &mut r.bus);
        }
        assert_eq!(r.bus.stats().dmp_prefetches, 0);
    }

    #[test]
    fn prefetch_fills_cache() {
        let mut r = rig(2);
        seed_arrays(&mut r, &[3, 1, 4, 7, 5, 0, 2, 6], &[23, 5, 71, 13, 47, 2, 90, 31]);
        drive(&mut r, 6);
        // The stream prefetch for Z[i+Δ] must be resident.
        assert!(r.bus.stats().dmp_prefetches > 0);
        assert!(r.hier.in_l1(Z_BASE + 8 * 7) || r.hier.in_l2(Z_BASE + 8 * 7));
    }
}
