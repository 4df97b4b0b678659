//! A consecutive-failure circuit breaker with an explicit half-open
//! state.
//!
//! `threshold` consecutive failures open the breaker for `cooldown_ms`;
//! once the cooldown lapses, [`Breaker::admit`] lets one probe through
//! (half-open). A failed probe re-opens at once, and only a recorded
//! success closes the breaker. A threshold of 0 disables it.
//!
//! Time is an explicit millisecond parameter rather than a clock read,
//! so every decision is deterministic under test. The scan service
//! keeps one breaker per tenant with a finite cooldown; the suite
//! orchestrator keeps one per experiment with `cooldown_ms = u64::MAX`,
//! so an opened breaker stays open for the rest of the run.

/// One breaker's state.
#[derive(Clone, Copy, Debug, Default)]
pub struct Breaker {
    consecutive_failures: u32,
    open_until_ms: Option<u64>,
    /// Set when a post-cooldown probe has been admitted but not yet
    /// resolved: a failure in this state re-opens immediately instead
    /// of granting a fresh threshold of failures.
    half_open: bool,
}

impl Breaker {
    /// Admits or refuses one attempt at `now_ms`. An open breaker whose
    /// cooldown has lapsed half-opens and admits this attempt as its
    /// probe.
    ///
    /// # Errors
    ///
    /// The milliseconds until the breaker half-opens, while it is open.
    pub fn admit(&mut self, now_ms: u64) -> Result<(), u64> {
        if let Some(until) = self.open_until_ms {
            if now_ms < until {
                return Err(until - now_ms);
            }
            self.open_until_ms = None;
            self.half_open = true;
        }
        Ok(())
    }

    /// Records a failure at `now_ms`; returns `true` if the breaker
    /// (re-)opened, for `cooldown_ms`. A `threshold` of 0 never opens.
    pub fn record_failure(&mut self, threshold: u32, cooldown_ms: u64, now_ms: u64) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if threshold > 0 && (self.half_open || self.consecutive_failures >= threshold) {
            // A failed half-open probe re-opens at once; the streak is
            // kept (not zeroed) so only a recorded success closes it.
            self.open_until_ms = Some(now_ms.saturating_add(cooldown_ms));
            self.half_open = false;
            return true;
        }
        false
    }

    /// Records a success, closing the failure streak, any half-open
    /// probe and an open breaker.
    pub fn record_success(&mut self) {
        *self = Breaker::default();
    }

    /// Whether the breaker refuses attempts at `now_ms`.
    #[must_use]
    pub fn is_open(&self, now_ms: u64) -> bool {
        self.open_until_ms.is_some_and(|until| now_ms < until)
    }
}
