//! A set-associative, tag-only LRU cache: one flat array of ways per
//! level.

/// Geometry of one cache level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Number of sets. Must be a power of two.
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes. Must be a power of two.
    pub line: usize,
}

impl CacheConfig {
    /// A small L1 data cache: 64 sets x 4 ways x 64 B lines = 16 KiB.
    #[must_use]
    pub fn l1d() -> CacheConfig {
        CacheConfig {
            sets: 64,
            ways: 4,
            line: 64,
        }
    }

    /// A unified L2: 256 sets x 8 ways x 64 B lines = 128 KiB.
    #[must_use]
    pub fn l2() -> CacheConfig {
        CacheConfig {
            sets: 256,
            ways: 8,
            line: 64,
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
struct Way {
    tag: u64,
    /// LRU timestamp; larger is more recent, and 0 marks an empty way.
    stamp: u64,
}

impl Way {
    const EMPTY: Way = Way { tag: 0, stamp: 0 };

    fn holds(self, tag: u64) -> bool {
        self.tag == tag && self.stamp != 0
    }
}

/// One set-associative LRU cache level.
///
/// The cache tracks only tags — data always lives in [`Memory`] — because
/// the simulator needs cache state purely for *timing* and for the
/// microarchitectural channels built on it (timed probes, set-contention
/// flushes, prefetch fills).
///
/// All `sets × ways` ways live in one array, set after set. The clock
/// advances before every access, so a filled way's stamp is at least 1
/// and no two filled ways share one; a miss fills the way with the
/// smallest stamp, which is an empty way while the set has one and the
/// least-recently-used line after that.
///
/// [`Memory`]: crate::Memory
///
/// ```
/// use pandora_sim::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::l1d());
/// assert!(!c.probe(0x1000));
/// assert!(!c.access(0x1000).is_hit()); // miss fills
/// assert!(c.access(0x1000).is_hit());
/// assert!(c.access(0x1004).is_hit()); // same line
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    ways: Vec<Way>,
    clock: u64,
}

impl Cache {
    /// Rewinds this cache to `src`'s contents in place, reusing the way
    /// array's allocation (the derived `clone_from` would allocate a
    /// fresh one). Destructured exhaustively, so a new field that no
    /// restore copies fails to compile.
    pub(crate) fn restore_from(&mut self, src: &Cache) {
        let Cache { cfg, ways, clock } = src;
        self.cfg = *cfg;
        self.ways.clone_from(ways);
        self.clock = *clock;
    }

    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line` is not a power of two, or `ways == 0`.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(cfg.line.is_power_of_two(), "line must be a power of two");
        assert!(cfg.ways > 0, "ways must be nonzero");
        Cache {
            cfg,
            ways: vec![Way::EMPTY; cfg.sets * cfg.ways],
            clock: 0,
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Empties every way, keeping the allocation. Equivalent to
    /// [`Cache::new`] with the same config.
    pub fn reset(&mut self) {
        self.ways.fill(Way::EMPTY);
        self.clock = 0;
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

    /// The ways of set `set_idx`.
    fn set(&self, set_idx: usize) -> &[Way] {
        let start = set_idx * self.cfg.ways;
        &self.ways[start..start + self.cfg.ways]
    }

    /// The ways of set `set_idx`, mutably.
    fn set_mut(&mut self, set_idx: usize) -> &mut [Way] {
        let start = set_idx * self.cfg.ways;
        &mut self.ways[start..start + self.cfg.ways]
    }

    /// Whether the line containing `addr` is present, *without* updating
    /// replacement state.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let tag = self.line_addr(addr);
        self.set(self.set_index(addr)).iter().any(|w| w.holds(tag))
    }

    /// Looks up `addr`; on a miss, fills the line (evicting the LRU line
    /// if the set is full). Updates replacement state.
    pub fn access(&mut self, addr: u64) -> CacheOutcome {
        self.clock += 1;
        let stamp = self.clock;
        let tag = self.line_addr(addr);
        let set = self.set_mut(self.set_index(addr));
        if let Some(way) = set.iter_mut().find(|w| w.holds(tag)) {
            way.stamp = stamp;
            return CacheOutcome::Hit;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|w| w.stamp)
            .expect("ways is nonzero");
        let evicted = (victim.stamp != 0).then_some(victim.tag);
        *victim = Way { tag, stamp };
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
        let tag = self.line_addr(addr);
        let set = self.set_mut(self.set_index(addr));
        let Some(way) = set.iter_mut().find(|w| w.holds(tag)) else {
            return false;
        };
        *way = Way::EMPTY;
        true
    }

    /// The line addresses currently resident in set `set_idx`, in no
    /// particular order, as a borrowing iterator — probing a set takes
    /// no snapshot allocation. Collect it if you need ownership.
    ///
    /// # Panics
    ///
    /// Panics if `set_idx >= sets`.
    pub fn resident_lines(&self, set_idx: usize) -> impl Iterator<Item = u64> + '_ {
        self.set(set_idx)
            .iter()
            .filter(|w| w.stamp != 0)
            .map(|w| w.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: usize) -> Cache {
        Cache::new(CacheConfig {
            sets: 4,
            ways,
            line: 16,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny(2);
        assert!(!c.access(0x100).is_hit());
        assert!(c.access(0x100).is_hit());
        assert!(c.access(0x10f).is_hit(), "same line");
        assert!(!c.access(0x110).is_hit(), "next line");
    }

    #[test]
    fn set_index_and_line_addr() {
        let c = tiny(2);
        assert_eq!(c.set_index(0x00), 0);
        assert_eq!(c.set_index(0x10), 1);
        assert_eq!(c.set_index(0x40), 0, "wraps mod sets");
        assert_eq!(c.line_addr(0x1f), 0x10);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2);
        c.access(0x000); // set 0
        c.access(0x040); // set 0
        c.access(0x000); // refresh
        let out = c.access(0x080); // set 0, evicts 0x040
        assert_eq!(out, CacheOutcome::Miss { evicted: Some(0x040) });
        assert!(c.probe(0x000));
        assert!(!c.probe(0x040));
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny(2);
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
        let mut c = tiny(2);
        c.access(0x000);
        c.access(0x040);
        assert!(c.flush_line(0x000));
        assert!(!c.flush_line(0x000), "already gone");
        assert!(!c.probe(0x000));
        assert!(c.probe(0x040));
        assert_eq!(
            c.access(0x080),
            CacheOutcome::Miss { evicted: None },
            "the flushed way refills before the LRU line goes"
        );
    }

    #[test]
    fn reset_empties_every_way() {
        let mut c = tiny(2);
        c.access(0x000);
        c.access(0x010);
        c.reset();
        assert!(!c.probe(0x000));
        assert!(!c.probe(0x010));
        assert_eq!(c.resident_lines(0).count(), 0);
    }

    #[test]
    fn capacity_is_consistent() {
        assert_eq!(CacheConfig::l1d().capacity(), 16 * 1024);
        assert_eq!(CacheConfig::l2().capacity(), 128 * 1024);
    }

    #[test]
    fn filling_a_set_beyond_ways_keeps_ways_lines() {
        let mut c = tiny(2);
        for i in 0..10u64 {
            c.access(i * 0x40); // all set 0
        }
        assert_eq!(c.resident_lines(0).count(), 2);
    }
}
