//! A set-associative, tag-only cache with LRU or random replacement.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cache replacement policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Replacement {
    /// Least-recently-used (default; what the amplification gadget's
    /// set-contention flush sub-gadget assumes).
    #[default]
    Lru,
    /// Uniform random victim selection, as modelled by the `cache_rand`
    /// MLD (paper Fig 2, Example 3).
    Random,
}

/// Geometry and policy of one cache level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Number of sets. Must be a power of two.
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes. Must be a power of two.
    pub line: usize,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// A small L1 data cache: 64 sets x 4 ways x 64 B lines = 16 KiB.
    #[must_use]
    pub fn l1d() -> CacheConfig {
        CacheConfig {
            sets: 64,
            ways: 4,
            line: 64,
            replacement: Replacement::Lru,
        }
    }

    /// A unified L2: 256 sets x 8 ways x 64 B lines = 128 KiB.
    #[must_use]
    pub fn l2() -> CacheConfig {
        CacheConfig {
            sets: 256,
            ways: 8,
            line: 64,
            replacement: Replacement::Lru,
        }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.sets * self.ways * self.line
    }
}

/// The outcome of a cache lookup-and-fill.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled; `evicted` is the tag of
    /// the victim line, if any line was displaced.
    Miss {
        /// The displaced victim's line address, if any.
        evicted: Option<u64>,
    },
}

impl CacheOutcome {
    /// Whether the access hit.
    #[must_use]
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Line {
    tag: u64,
    /// LRU timestamp; larger is more recent.
    stamp: u64,
}

/// One set-associative cache level.
///
/// The cache tracks only tags — data always lives in [`Memory`] — because
/// the simulator needs cache state purely for *timing* and for the
/// microarchitectural channels built on it (Prime+Probe, Evict+Time,
/// prefetch fills).
///
/// [`Memory`]: crate::Memory
///
/// ```
/// use pandora_sim::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::l1d(), 1);
/// assert!(!c.probe(0x1000));
/// assert!(!c.access(0x1000).is_hit()); // miss fills
/// assert!(c.access(0x1000).is_hit());
/// assert!(c.access(0x1004).is_hit()); // same line
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    clock: u64,
    rng: SmallRng,
}

impl Cache {
    /// Capacity-preserving restore: rewinds this cache to `src`'s
    /// contents while reusing every set vector's allocation. The
    /// derived `clone_from` would replace the sets with exact-capacity
    /// clones, which then reallocate one by one as churned sets refill
    /// toward their way count — breaking the allocation-free hot loop
    /// after a checkpoint restore. Destructured exhaustively, so a new
    /// field that no restore copies fails to compile.
    pub(crate) fn restore_from(&mut self, src: &Cache) {
        let Cache {
            cfg,
            sets,
            clock,
            rng,
        } = src;
        self.cfg = *cfg;
        self.sets.clone_from(sets);
        self.clock = *clock;
        self.rng = rng.clone();
    }

    /// Creates an empty cache. `seed` drives the random replacement
    /// policy (ignored under LRU) so runs are reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line` is not a power of two, or `ways == 0`.
    #[must_use]
    pub fn new(cfg: CacheConfig, seed: u64) -> Cache {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(cfg.line.is_power_of_two(), "line must be a power of two");
        assert!(cfg.ways > 0, "ways must be nonzero");
        Cache {
            cfg,
            // One allocation per set: `vec![v; n]` would clone `v`, and
            // a cloned empty `Vec` has no capacity.
            sets: (0..cfg.sets).map(|_| Vec::with_capacity(cfg.ways)).collect(),
            clock: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Empties every set and reseeds the replacement RNG, keeping set
    /// allocations. Equivalent to [`Cache::new`] with the same config
    /// and `seed`.
    pub fn reset(&mut self, seed: u64) {
        for set in &mut self.sets {
            set.clear();
        }
        self.clock = 0;
        self.rng = SmallRng::seed_from_u64(seed);
    }

    /// The set index `addr` maps to.
    #[must_use]
    pub fn set_index(&self, addr: u64) -> usize {
        ((addr / self.cfg.line as u64) as usize) & (self.cfg.sets - 1)
    }

    /// The line-granularity tag for `addr` (the full line address).
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line as u64 - 1)
    }

    /// Whether the line containing `addr` is present, *without* updating
    /// replacement state.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let tag = self.line_addr(addr);
        self.sets[self.set_index(addr)].iter().any(|l| l.tag == tag)
    }

    /// Looks up `addr`; on a miss, fills the line (evicting a victim if
    /// the set is full). Updates replacement state.
    pub fn access(&mut self, addr: u64) -> CacheOutcome {
        self.clock += 1;
        let set_idx = self.set_index(addr);
        let tag = self.line_addr(addr);
        let clock = self.clock;
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            line.stamp = clock;
            return CacheOutcome::Hit;
        }
        let evicted = if set.len() < self.cfg.ways {
            set.push(Line { tag, stamp: clock });
            None
        } else {
            let victim = match self.cfg.replacement {
                Replacement::Lru => set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.stamp)
                    .map(|(i, _)| i)
                    .expect("set is full, so nonempty"),
                Replacement::Random => self.rng.gen_range(0..set.len()),
            };
            let old = set[victim].tag;
            set[victim] = Line { tag, stamp: clock };
            Some(old)
        };
        CacheOutcome::Miss { evicted }
    }

    /// Fills the line containing `addr` without reporting hit/miss (used
    /// by prefetchers). Equivalent to [`access`](Cache::access) with the
    /// outcome discarded.
    pub fn fill(&mut self, addr: u64) {
        let _ = self.access(addr);
    }

    /// Evicts the line containing `addr`, if present. Returns whether a
    /// line was removed.
    pub fn flush_line(&mut self, addr: u64) -> bool {
        let set_idx = self.set_index(addr);
        let tag = self.line_addr(addr);
        let set = &mut self.sets[set_idx];
        let before = set.len();
        set.retain(|l| l.tag != tag);
        set.len() != before
    }

    /// Evicts everything.
    pub fn flush_all(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// The line addresses currently resident in set `set_idx`, in no
    /// particular order, as a borrowing iterator — probing a set takes
    /// no snapshot allocation. Collect it if you need ownership.
    ///
    /// # Panics
    ///
    /// Panics if `set_idx >= sets`.
    pub fn resident_lines(&self, set_idx: usize) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.sets[set_idx].iter().map(|l| l.tag)
    }

    /// An address (distinct from `addr`'s line) that maps to the same
    /// set, `n` conflict slots away. Used to build eviction sets.
    /// Wraps around the address space: set geometry is power-of-two, so
    /// the wrapped address still indexes the same set.
    #[must_use]
    pub fn conflicting_addr(&self, addr: u64, n: usize) -> u64 {
        let stride = (self.cfg.sets * self.cfg.line) as u64;
        self.line_addr(addr)
            .wrapping_add(stride.wrapping_mul(n as u64 + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: usize, replacement: Replacement) -> Cache {
        Cache::new(
            CacheConfig {
                sets: 4,
                ways,
                line: 16,
                replacement,
            },
            42,
        )
    }

    #[test]
    fn new_preallocates_every_set() {
        let c = Cache::new(CacheConfig::l2(), 0);
        for (i, set) in c.sets.iter().enumerate() {
            assert!(
                set.capacity() >= c.cfg.ways,
                "set {i} holds {} of {} ways",
                set.capacity(),
                c.cfg.ways
            );
        }
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny(2, Replacement::Lru);
        assert!(!c.access(0x100).is_hit());
        assert!(c.access(0x100).is_hit());
        assert!(c.access(0x10f).is_hit(), "same line");
        assert!(!c.access(0x110).is_hit(), "next line");
    }

    #[test]
    fn set_index_and_line_addr() {
        let c = tiny(2, Replacement::Lru);
        assert_eq!(c.set_index(0x00), 0);
        assert_eq!(c.set_index(0x10), 1);
        assert_eq!(c.set_index(0x40), 0, "wraps mod sets");
        assert_eq!(c.line_addr(0x1f), 0x10);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, Replacement::Lru);
        c.access(0x000); // set 0
        c.access(0x040); // set 0
        c.access(0x000); // refresh
        let out = c.access(0x080); // set 0, evicts 0x040
        assert_eq!(out, CacheOutcome::Miss { evicted: Some(0x040) });
        assert!(c.probe(0x000));
        assert!(!c.probe(0x040));
    }

    #[test]
    fn random_replacement_evicts_some_resident_line() {
        let mut c = tiny(2, Replacement::Random);
        c.access(0x000);
        c.access(0x040);
        match c.access(0x080) {
            CacheOutcome::Miss { evicted: Some(t) } => assert!(t == 0x000 || t == 0x040),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny(2, Replacement::Lru);
        c.access(0x000);
        c.access(0x040);
        // Probing 0x000 must not refresh it...
        assert!(c.probe(0x000));
        // ...so it is still the LRU victim.
        assert_eq!(
            c.access(0x080),
            CacheOutcome::Miss { evicted: Some(0x000) }
        );
    }

    #[test]
    fn flush_line_removes_only_target() {
        let mut c = tiny(2, Replacement::Lru);
        c.access(0x000);
        c.access(0x040);
        assert!(c.flush_line(0x000));
        assert!(!c.flush_line(0x000), "already gone");
        assert!(!c.probe(0x000));
        assert!(c.probe(0x040));
    }

    #[test]
    fn flush_all_empties() {
        let mut c = tiny(2, Replacement::Lru);
        c.access(0x000);
        c.access(0x010);
        c.flush_all();
        assert!(!c.probe(0x000));
        assert!(!c.probe(0x010));
    }

    #[test]
    fn conflicting_addrs_share_a_set() {
        let c = Cache::new(CacheConfig::l1d(), 0);
        let a = 0x1234;
        for n in 0..8 {
            let e = c.conflicting_addr(a, n);
            assert_eq!(c.set_index(e), c.set_index(a));
            assert_ne!(c.line_addr(e), c.line_addr(a));
        }
    }

    #[test]
    fn capacity_is_consistent() {
        assert_eq!(CacheConfig::l1d().capacity(), 16 * 1024);
        assert_eq!(CacheConfig::l2().capacity(), 128 * 1024);
    }

    #[test]
    fn filling_a_set_beyond_ways_keeps_ways_lines() {
        let mut c = tiny(2, Replacement::Lru);
        for i in 0..10u64 {
            c.access(i * 0x40); // all set 0
        }
        assert_eq!(c.resident_lines(0).len(), 2);
    }
}
