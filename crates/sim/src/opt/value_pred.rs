//! Load value prediction (§IV-C3; MLD Example 7).
//!
//! A PC-indexed last-value predictor with a saturating confidence
//! counter, the threshold-based structure the paper describes as common
//! to "nearly all" proposals. A prediction is only made above the
//! confidence threshold; a resolved mispredict squashes younger
//! instructions (the receiver-visible event) and resets confidence.
//!
//! The leakage, per the paper's MLD: whether an in-flight load's
//! *result* equals the value stored in predictor state — an equality
//! oracle an active attacker can replay with chosen training values.

use std::collections::HashMap;

/// The prediction heuristic (the paper notes proposals range "from
/// simple last-level and stride predictors to hybrid predictors", all
/// threshold-based).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum VpKind {
    /// Predict the last observed value.
    #[default]
    LastValue,
    /// Predict `last + stride`, confidence on a stable stride.
    Stride,
}

#[derive(Clone, Copy, Debug)]
struct VpEntry {
    last: u64,
    stride: u64,
    conf: u8,
}

/// The load value predictor table.
#[derive(Clone, Debug)]
pub struct ValuePredictor {
    table: HashMap<usize, VpEntry>,
    threshold: u8,
    kind: VpKind,
}

impl ValuePredictor {
    /// Creates a last-value predictor that predicts once a value has
    /// repeated `threshold` times.
    #[must_use]
    pub fn new(threshold: u8) -> ValuePredictor {
        ValuePredictor::with_kind(threshold, VpKind::LastValue)
    }

    /// Creates a predictor with an explicit heuristic.
    #[must_use]
    pub fn with_kind(threshold: u8, kind: VpKind) -> ValuePredictor {
        ValuePredictor {
            table: HashMap::new(),
            threshold: threshold.max(1),
            kind,
        }
    }

    /// Forgets every learned value in place (capacity kept).
    pub fn clear(&mut self) {
        self.table.clear();
    }

    /// The prediction for the load at `pc`, if confidence is above
    /// threshold.
    #[must_use]
    pub fn predict(&self, pc: usize) -> Option<u64> {
        self.table
            .get(&pc)
            .filter(|e| e.conf >= self.threshold)
            .map(|e| match self.kind {
                VpKind::LastValue => e.last,
                VpKind::Stride => e.last.wrapping_add(e.stride),
            })
    }

    /// Trains the entry for `pc` with a resolved load value. A repeat
    /// of the expected pattern bumps confidence; a break replaces the
    /// tracked state and resets confidence.
    pub fn update(&mut self, pc: usize, value: u64) {
        let cap = self.threshold.saturating_mul(3);
        match self.table.get_mut(&pc) {
            Some(e) => {
                let expected_repeat = match self.kind {
                    VpKind::LastValue => e.last == value,
                    VpKind::Stride => value.wrapping_sub(e.last) == e.stride,
                };
                if expected_repeat {
                    e.conf = e.conf.saturating_add(1).min(cap);
                } else {
                    e.stride = value.wrapping_sub(e.last);
                    e.conf = 0;
                }
                e.last = value;
            }
            None => {
                self.table.insert(
                    pc,
                    VpEntry {
                        last: value,
                        stride: 0,
                        conf: 0,
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_prediction_until_threshold() {
        let mut vp = ValuePredictor::new(3);
        assert_eq!(vp.predict(10), None);
        vp.update(10, 7); // conf 0 -> entry created
        vp.update(10, 7); // conf 1
        vp.update(10, 7); // conf 2
        assert_eq!(vp.predict(10), None);
        vp.update(10, 7); // conf 3
        assert_eq!(vp.predict(10), Some(7));
    }

    #[test]
    fn value_change_resets_confidence() {
        let mut vp = ValuePredictor::new(2);
        for _ in 0..4 {
            vp.update(10, 7);
        }
        assert_eq!(vp.predict(10), Some(7));
        vp.update(10, 8);
        assert_eq!(vp.predict(10), None);
        assert_eq!(vp.table[&10].conf, 0);
    }

    #[test]
    fn entries_are_per_pc() {
        let mut vp = ValuePredictor::new(1);
        vp.update(1, 5);
        vp.update(1, 5);
        vp.update(2, 9);
        assert_eq!(vp.predict(1), Some(5));
        assert_eq!(vp.predict(2), None, "pc 2 has conf 0");
    }

    #[test]
    fn stride_predictor_follows_arithmetic_sequences() {
        let mut vp = ValuePredictor::with_kind(2, VpKind::Stride);
        for v in [10u64, 17, 24, 31] {
            vp.update(1, v);
        }
        // Stride 7 established with confidence: predicts 38.
        assert_eq!(vp.predict(1), Some(38));
        // A last-value predictor would never gain confidence here.
        let mut lv = ValuePredictor::new(2);
        for v in [10u64, 17, 24, 31] {
            lv.update(1, v);
        }
        assert_eq!(lv.predict(1), None);
    }

    #[test]
    fn stride_break_resets_confidence() {
        let mut vp = ValuePredictor::with_kind(2, VpKind::Stride);
        for v in [10u64, 17, 24, 31] {
            vp.update(1, v);
        }
        vp.update(1, 100); // breaks the stride
        assert_eq!(vp.predict(1), None);
    }

    #[test]
    fn stride_zero_subsumes_last_value() {
        let mut vp = ValuePredictor::with_kind(2, VpKind::Stride);
        for _ in 0..4 {
            vp.update(1, 42);
        }
        assert_eq!(vp.predict(1), Some(42));
    }

    #[test]
    fn threshold_zero_is_clamped() {
        let vp = ValuePredictor::new(0);
        assert_eq!(vp.predict(1), None, "never trained, never predicts");
    }
}
