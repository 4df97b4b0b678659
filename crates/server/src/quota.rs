//! Per-tenant admission control: token-bucket rate limiting and a
//! circuit breaker over crashing/wedging scans.
//!
//! Both structures take the current time as an explicit millisecond
//! parameter rather than reading a clock, so every policy decision is
//! deterministic under test.

use std::collections::HashMap;

use crate::breaker::Breaker;

/// Token-bucket parameters.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct QuotaConfig {
    /// Burst capacity (tokens; one scan costs one token).
    pub burst: u32,
    /// Steady-state refill rate, tokens per second.
    pub per_second: f64,
    /// Consecutive supervised failures (panic or deadline) before a
    /// tenant's breaker opens. `0` disables the breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before allowing a probe, ms.
    pub breaker_cooldown_ms: u64,
    /// Maximum number of distinct tenants tracked; admission control
    /// itself must be flood-proof.
    pub max_tenants: usize,
}

impl Default for QuotaConfig {
    fn default() -> QuotaConfig {
        QuotaConfig {
            burst: 8,
            per_second: 2.0,
            breaker_threshold: 3,
            breaker_cooldown_ms: 30_000,
            max_tenants: 1024,
        }
    }
}

/// Why a request was refused admission.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Refusal {
    /// Token bucket empty; retry after the given delay.
    RateLimited {
        /// Milliseconds until a token is available.
        retry_after_ms: u64,
    },
    /// The tenant's circuit breaker is open.
    BreakerOpen {
        /// Milliseconds until the breaker half-opens.
        retry_after_ms: u64,
    },
    /// The tenant table is full and this tenant is new.
    TooManyTenants,
}

#[derive(Clone, Copy, Debug)]
struct Bucket {
    /// Current tokens, scaled by 1000 (millitokens) to refill smoothly
    /// in integer time.
    millitokens: u64,
    /// Sub-millitoken refill carried between refills, so fractional
    /// per-second rates polled at high frequency still deliver the
    /// advertised rate instead of truncating each tick to zero.
    carry_millitokens: f64,
    last_refill_ms: u64,
}

impl Bucket {
    fn full(cfg: &QuotaConfig, now_ms: u64) -> Bucket {
        Bucket {
            millitokens: u64::from(cfg.burst) * 1000,
            carry_millitokens: 0.0,
            last_refill_ms: now_ms,
        }
    }

    fn refill(&mut self, cfg: &QuotaConfig, now_ms: u64) {
        let dt = now_ms.saturating_sub(self.last_refill_ms);
        self.last_refill_ms = now_ms;
        let earned = dt as f64 * cfg.per_second + self.carry_millitokens; // millitokens: ms * tok/s
        let add = if earned > 0.0 { earned as u64 } else { 0 };
        self.carry_millitokens = earned - add as f64;
        self.millitokens = (self.millitokens + add).min(u64::from(cfg.burst) * 1000);
        if self.millitokens == u64::from(cfg.burst) * 1000 {
            // A full bucket discards excess; carrying it would grant a
            // burst above capacity later.
            self.carry_millitokens = 0.0;
        }
    }

    fn try_take(&mut self, cfg: &QuotaConfig, now_ms: u64) -> Result<(), u64> {
        self.refill(cfg, now_ms);
        if self.millitokens >= 1000 {
            self.millitokens -= 1000;
            return Ok(());
        }
        let missing = 1000 - self.millitokens;
        let wait_ms = if cfg.per_second > 0.0 {
            (missing as f64 / cfg.per_second).ceil() as u64
        } else {
            u64::MAX
        };
        Err(wait_ms.max(1))
    }
}

#[derive(Clone, Copy, Debug)]
struct Tenant {
    bucket: Bucket,
    breaker: Breaker,
}

/// The admission-control table: one [`QuotaConfig`]-governed state per
/// tenant. Not internally locked — the server wraps it in its state
/// mutex.
#[derive(Debug)]
pub struct Admission {
    cfg: QuotaConfig,
    tenants: HashMap<String, Tenant>,
}

impl Admission {
    /// Creates an empty table.
    #[must_use]
    pub fn new(cfg: QuotaConfig) -> Admission {
        Admission {
            cfg,
            tenants: HashMap::new(),
        }
    }

    /// Admits or refuses one scan for `tenant` at time `now_ms`.
    /// Order matters: an open breaker refuses *without* consuming a
    /// token.
    ///
    /// # Errors
    ///
    /// Returns the [`Refusal`] when the tenant is over quota, broken,
    /// or the table is full.
    pub fn admit(&mut self, tenant: &str, now_ms: u64) -> Result<(), Refusal> {
        if !self.tenants.contains_key(tenant) {
            if self.tenants.len() >= self.cfg.max_tenants {
                return Err(Refusal::TooManyTenants);
            }
            self.tenants.insert(
                tenant.to_string(),
                Tenant {
                    bucket: Bucket::full(&self.cfg, now_ms),
                    breaker: Breaker::default(),
                },
            );
        }
        let cfg = self.cfg;
        let t = self.tenants.get_mut(tenant).expect("just inserted");
        // After the cooldown the breaker half-opens and lets this request
        // probe; a single failure while half-open re-opens it.
        t.breaker
            .admit(now_ms)
            .map_err(|retry_after_ms| Refusal::BreakerOpen { retry_after_ms })?;
        t.bucket
            .try_take(&cfg, now_ms)
            .map_err(|retry_after_ms| Refusal::RateLimited { retry_after_ms })
    }

    /// Records a supervised failure (panic or wedge) for `tenant`;
    /// returns `true` if the breaker just opened.
    pub fn record_failure(&mut self, tenant: &str, now_ms: u64) -> bool {
        let (threshold, cooldown) = (self.cfg.breaker_threshold, self.cfg.breaker_cooldown_ms);
        self.tenants
            .get_mut(tenant)
            .is_some_and(|t| t.breaker.record_failure(threshold, cooldown, now_ms))
    }

    /// Records a completed scan (success or a *controlled* job error),
    /// closing the failure streak and any half-open probe.
    pub fn record_success(&mut self, tenant: &str) {
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.breaker.record_success();
        }
    }

    /// Tenants whose breaker is open at `now_ms`, sorted (for health
    /// snapshots).
    #[must_use]
    pub fn open_breakers(&self, now_ms: u64) -> Vec<String> {
        let mut v: Vec<String> = self
            .tenants
            .iter()
            .filter(|(_, t)| t.breaker.is_open(now_ms))
            .map(|(n, _)| n.clone())
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> QuotaConfig {
        QuotaConfig {
            burst: 2,
            per_second: 1.0,
            breaker_threshold: 2,
            breaker_cooldown_ms: 5000,
            max_tenants: 2,
        }
    }

    #[test]
    fn bucket_exhausts_then_refills() {
        let mut a = Admission::new(cfg());
        assert!(a.admit("t", 0).is_ok());
        assert!(a.admit("t", 0).is_ok());
        let Err(Refusal::RateLimited { retry_after_ms }) = a.admit("t", 0) else {
            panic!("expected rate limit");
        };
        assert_eq!(retry_after_ms, 1000);
        // After the advertised wait, a token is back.
        assert!(a.admit("t", 1000).is_ok());
        assert!(matches!(
            a.admit("t", 1000),
            Err(Refusal::RateLimited { .. })
        ));
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_opens() {
        let mut a = Admission::new(cfg());
        assert!(a.admit("t", 0).is_ok());
        assert!(!a.record_failure("t", 0));
        assert!(a.admit("t", 1000).is_ok());
        assert!(a.record_failure("t", 1000), "second failure opens");
        let Err(Refusal::BreakerOpen { retry_after_ms }) = a.admit("t", 2000) else {
            panic!("expected open breaker");
        };
        assert_eq!(retry_after_ms, 4000);
        assert_eq!(a.open_breakers(2000), vec!["t".to_string()]);
        // After cooldown the tenant may probe again (tokens refilled
        // meanwhile).
        assert!(a.admit("t", 6001).is_ok());
        assert!(a.open_breakers(6001).is_empty());
    }

    #[test]
    fn fractional_rates_survive_high_frequency_polling() {
        // 0.25 tokens/s polled every ms: each tick earns 0.25
        // millitokens, which truncation used to discard forever.
        let mut a = Admission::new(QuotaConfig {
            burst: 1,
            per_second: 0.25,
            ..cfg()
        });
        assert!(a.admit("t", 0).is_ok());
        for ms in 1..4000 {
            assert!(
                matches!(a.admit("t", ms), Err(Refusal::RateLimited { .. })),
                "no full token yet at {ms}ms"
            );
        }
        // 4000ms * 0.25 tok/s = 1 token, despite per-tick truncation.
        assert!(a.admit("t", 4000).is_ok());
    }

    #[test]
    fn a_failed_half_open_probe_reopens_immediately() {
        let mut a = Admission::new(cfg()); // threshold 2, cooldown 5000
        assert!(a.admit("t", 0).is_ok());
        a.record_failure("t", 0);
        assert!(a.admit("t", 1000).is_ok());
        assert!(a.record_failure("t", 1000), "threshold opens");
        // Cooldown lapses; one probe is admitted.
        assert!(a.admit("t", 6001).is_ok());
        // The probe fails: the breaker re-opens on that single failure,
        // not after a fresh threshold's worth.
        assert!(a.record_failure("t", 6001), "probe failure re-opens");
        assert!(matches!(
            a.admit("t", 6002),
            Err(Refusal::BreakerOpen { .. })
        ));
        // A later probe that *succeeds* closes the breaker for good.
        assert!(a.admit("t", 12_000).is_ok());
        a.record_success("t");
        assert!(!a.record_failure("t", 12_000), "fresh streak after success");
        assert!(a.open_breakers(12_001).is_empty());
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut a = Admission::new(cfg());
        assert!(a.admit("t", 0).is_ok());
        a.record_failure("t", 0);
        a.record_success("t");
        // Streak was broken: this single failure does not open it.
        assert!(!a.record_failure("t", 1000));
        assert!(a.open_breakers(1001).is_empty());
    }

    #[test]
    fn tenant_table_is_flood_proof() {
        let mut a = Admission::new(cfg());
        assert!(a.admit("a", 0).is_ok());
        assert!(a.admit("b", 0).is_ok());
        assert_eq!(a.admit("c", 0), Err(Refusal::TooManyTenants));
        // Existing tenants are unaffected.
        assert!(a.admit("a", 0).is_ok());
    }
}
