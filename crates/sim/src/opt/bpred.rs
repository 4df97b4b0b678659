//! Frontend branch prediction: a bimodal 2-bit direction predictor plus
//! a branch target buffer for indirect jumps.
//!
//! Branch prediction is part of the paper's *Baseline* machine (Table I:
//! control flow is already Unsafe via known attacks); it is modelled so
//! that squash timing — which value prediction reuses — is realistic.

use std::collections::HashMap;

/// A 2-bit saturating-counter bimodal direction predictor.
#[derive(Clone, Debug)]
pub struct Bimodal {
    counters: Vec<u8>,
    mask: usize,
}

impl Bimodal {
    /// Capacity-preserving restore, destructured exhaustively like
    /// [`PipelineState::restore_from`] so a new field that no restore
    /// copies fails to compile.
    ///
    /// [`PipelineState::restore_from`]: crate::pipeline::PipelineState::restore_from
    pub(crate) fn restore_from(&mut self, src: &Bimodal) {
        let Bimodal { counters, mask } = src;
        self.counters.clone_from(counters);
        self.mask = *mask;
    }

    /// Creates a predictor with `entries` counters (power of two),
    /// initialised to weakly-not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Bimodal {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Bimodal {
            counters: vec![1; entries],
            mask: entries - 1,
        }
    }

    /// Predicted direction for the branch at `pc`.
    #[must_use]
    pub fn predict(&self, pc: usize) -> bool {
        self.counters[pc & self.mask] >= 2
    }

    /// Restores every counter to weakly-not-taken, keeping the table
    /// allocation. Equivalent to a freshly constructed predictor.
    pub fn reset(&mut self) {
        self.counters.fill(1);
    }

    /// Trains the counter for `pc` with the resolved direction.
    pub fn update(&mut self, pc: usize, taken: bool) {
        let c = &mut self.counters[pc & self.mask];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

/// A branch target buffer mapping an indirect jump's pc to its last
/// observed target.
#[derive(Clone, Debug, Default)]
pub struct Btb {
    targets: HashMap<usize, usize>,
}

impl Btb {
    /// Capacity-preserving restore: `HashMap::clone_from` reuses the
    /// bucket allocation when it already fits. Destructured
    /// exhaustively, so a new field that no restore copies fails to
    /// compile.
    pub(crate) fn restore_from(&mut self, src: &Btb) {
        let Btb { targets } = src;
        self.targets.clone_from(targets);
    }

    /// Creates an empty BTB.
    #[must_use]
    pub fn new() -> Btb {
        Btb::default()
    }

    /// The predicted target for `pc`, if one has been recorded.
    #[must_use]
    pub fn predict(&self, pc: usize) -> Option<usize> {
        self.targets.get(&pc).copied()
    }

    /// Records the resolved target of the jump at `pc`.
    pub fn update(&mut self, pc: usize, target: usize) {
        self.targets.insert(pc, target);
    }

    /// Forgets every recorded target, keeping the table allocation.
    pub fn reset(&mut self) {
        self.targets.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_learns_taken() {
        let mut b = Bimodal::new(16);
        assert!(!b.predict(5), "initialised weakly not-taken");
        b.update(5, true);
        assert!(b.predict(5));
        b.update(5, false);
        b.update(5, false);
        assert!(!b.predict(5));
    }

    #[test]
    fn bimodal_counters_saturate() {
        let mut b = Bimodal::new(16);
        for _ in 0..10 {
            b.update(3, true);
        }
        b.update(3, false);
        assert!(b.predict(3), "one not-taken does not flip a saturated counter");
    }

    #[test]
    fn bimodal_aliases_by_mask() {
        let mut b = Bimodal::new(16);
        b.update(1, true);
        assert!(b.predict(17), "1 and 17 share a counter");
    }

    #[test]
    fn btb_round_trip() {
        let mut t = Btb::new();
        assert_eq!(t.predict(9), None);
        t.update(9, 42);
        assert_eq!(t.predict(9), Some(42));
        t.update(9, 43);
        assert_eq!(t.predict(9), Some(43));
    }
}
