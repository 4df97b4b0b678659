//! Silent stores (§IV-C1, §V-A; MLD Example 5).
//!
//! Implements the *read-port stealing* scheme of Lepak & Lipasti
//! (MICRO'00), the design the paper's Gem5 proof of concept follows
//! (§V-A1): as soon as a store's address and data resolve and a load
//! port is free, an *SS-load* is issued that reads memory at the store
//! address. If the SS-load returns before the store is performed and
//! the loaded value equals the store data, the store is marked silent
//! and later dequeues from the store queue without touching the cache;
//! consecutive silent stores dequeue in the same cycle.
//!
//! The four possible per-store sequences are the paper's Figure 4:
//!
//! * **A** — SS-load returned, values equal → silent dequeue,
//! * **B** — SS-load returned, values differ → performed normally,
//! * **C** — no free load port at execute → never checked,
//! * **D** — SS-load still outstanding at dequeue time → performed
//!   normally.
//!
//! The state machine lives here; the store-queue plumbing that drives
//! it lives in the pipeline.

use crate::trace::NonSilentReason;

/// Silent-store candidacy state carried by each store-queue entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SsState {
    /// The store has not executed yet, or silent stores are disabled.
    #[default]
    NotChecked,
    /// No load port was free when the store executed (Fig 4 case C).
    NoPort,
    /// An SS-load is in flight; it returns at `done_cycle`.
    Outstanding {
        /// The cycle the SS-load's data arrives.
        done_cycle: u64,
    },
    /// The SS-load returned and the candidacy decision is known.
    Checked {
        /// Whether the store data matched.
        silent: bool,
    },
}

impl SsState {
    /// Resolves the dequeue-time decision: `Ok(())` means the store is
    /// silent; `Err(reason)` carries why it must perform (Fig 4 B–D).
    /// [`SsState::NotChecked`] (silent stores disabled) also performs,
    /// reported as [`NonSilentReason::NoLoadPort`]'s operational
    /// equivalent per §V-A1 ("Case C is operationally equivalent to an
    /// architecture that does not implement silent stores").
    pub fn dequeue_decision(self) -> Result<(), NonSilentReason> {
        match self {
            SsState::Checked { silent: true } => Ok(()),
            SsState::Checked { silent: false } => Err(NonSilentReason::ValueMismatch),
            SsState::Outstanding { .. } => Err(NonSilentReason::SsLoadLate),
            SsState::NoPort | SsState::NotChecked => Err(NonSilentReason::NoLoadPort),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_a_silent() {
        assert_eq!(SsState::Checked { silent: true }.dequeue_decision(), Ok(()));
    }

    #[test]
    fn case_b_value_mismatch() {
        assert_eq!(
            SsState::Checked { silent: false }.dequeue_decision(),
            Err(NonSilentReason::ValueMismatch)
        );
    }

    #[test]
    fn case_c_no_port() {
        assert_eq!(
            SsState::NoPort.dequeue_decision(),
            Err(NonSilentReason::NoLoadPort)
        );
        assert_eq!(
            SsState::NotChecked.dequeue_decision(),
            Err(NonSilentReason::NoLoadPort)
        );
    }

    #[test]
    fn case_d_late() {
        let s = SsState::Outstanding { done_cycle: 99 };
        assert_eq!(s.dequeue_decision(), Err(NonSilentReason::SsLoadLate));
    }
}
