//! [`RetryingTransport`]: bounded exponential backoff over any
//! [`Transport`].
//!
//! Retries are safe because requests are idempotent by request id: every
//! attempt re-sends the *same* [`GroupRequest`], and a server that already
//! executed it (or is still executing it) hands back that execution's
//! reply from its [`SingleFlight`](crate::SingleFlight) instead of
//! executing twice.
//!
//! The backoff schedule is classic bounded exponential with decorrelating
//! jitter: attempt `n` waits `base × 2ⁿ⁻¹` capped at `max`, then jittered
//! to a uniform draw from `[delay/2, delay]` using a seeded
//! [`SplitMix64`] stream — deterministic for a fixed seed, which the
//! fault-injection tests rely on. In **virtual** mode (the default) the
//! delays are only recorded; [`RetryPolicy::real_sleep`] makes the
//! wrapper actually `thread::sleep`, which is what the TCP client wants.

use std::thread;
use std::time::Duration;

use fgcache_types::rng::{RandomSource, SplitMix64};
use fgcache_types::{TransportError, TransportErrorKind};

use crate::transport::{GroupReply, GroupRequest, Transport, TransportStats};

/// Backoff schedule for a [`RetryingTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, the first included (so `1` means "never retry").
    pub max_attempts: u32,
    /// Backoff before the second attempt, in microseconds.
    pub base_delay_us: u64,
    /// Cap on any single backoff, in microseconds.
    pub max_delay_us: u64,
    /// Seed for the jitter stream.
    pub jitter_seed: u64,
    /// Whether backoff actually sleeps (`true` for real sockets) or is
    /// only recorded (`false`, for simulation and tests).
    pub real_sleep: bool,
}

impl RetryPolicy {
    /// A sensible default for loopback TCP: 4 attempts, 1ms base, 50ms
    /// cap, real sleeps.
    pub fn loopback(jitter_seed: u64) -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay_us: 1_000,
            max_delay_us: 50_000,
            jitter_seed,
            real_sleep: true,
        }
    }

    /// A virtual-time policy for simulation and tests: delays are
    /// recorded, never slept.
    pub fn virtual_time(max_attempts: u32, jitter_seed: u64) -> Self {
        RetryPolicy {
            max_attempts,
            base_delay_us: 1_000,
            max_delay_us: 50_000,
            jitter_seed,
            real_sleep: false,
        }
    }

    /// The unjittered backoff before attempt `attempt + 1`, in
    /// microseconds: `base × 2^(attempt−1)`, saturating, capped at
    /// [`RetryPolicy::max_delay_us`].
    pub fn raw_delay_us(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(63);
        self.base_delay_us
            .saturating_mul(1u64 << shift)
            .min(self.max_delay_us)
    }
}

/// A [`Transport`] decorator that retries retryable failures with bounded
/// exponential backoff. See the [module docs](self).
#[derive(Debug)]
pub struct RetryingTransport<T> {
    inner: T,
    policy: RetryPolicy,
    jitter: SplitMix64,
    delays_us: Vec<u64>,
    retries: u64,
    timeouts: u64,
    duplicates_discarded: u64,
}

impl<T: Transport> RetryingTransport<T> {
    /// Wraps `inner` under `policy`. A `max_attempts` of 0 is treated
    /// as 1.
    pub fn new(inner: T, policy: RetryPolicy) -> Self {
        let jitter = SplitMix64::new(policy.jitter_seed);
        RetryingTransport {
            inner,
            policy,
            jitter,
            delays_us: Vec::new(),
            retries: 0,
            timeouts: 0,
            duplicates_discarded: 0,
        }
    }

    /// Every backoff delay taken so far, in microseconds, in order. Test
    /// hook: with a fixed [`RetryPolicy::jitter_seed`] this sequence is
    /// fully deterministic.
    pub fn delays_us(&self) -> &[u64] {
        &self.delays_us
    }

    /// Mutable access to the wrapped transport (e.g. to force faults on a
    /// [`FaultyTransport`](crate::FaultyTransport) underneath).
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Consumes the wrapper, returning the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Draws the jittered backoff before the next attempt and records
    /// (and, in real mode, sleeps) it.
    fn back_off(&mut self, attempt: u32) {
        let raw = self.policy.raw_delay_us(attempt);
        let jittered = raw / 2 + self.jitter.gen_range_inclusive(0, raw.div_ceil(2));
        self.delays_us.push(jittered);
        if self.policy.real_sleep {
            thread::sleep(Duration::from_micros(jittered));
        }
    }
}

impl<T: Transport> RetryingTransport<T> {
    /// The shared retry loop; `owned` selects the depth-bounded
    /// [`Transport::fetch_owned`] call on the wrapped transport.
    fn fetch_with_retries(
        &mut self,
        request: &GroupRequest,
        owned: bool,
    ) -> Result<GroupReply, TransportError> {
        let max_attempts = self.policy.max_attempts.max(1);
        let mut last_error: Option<TransportError> = None;
        for attempt in 1..=max_attempts {
            if attempt > 1 {
                self.back_off(attempt - 1);
                self.retries += 1;
            }
            let outcome = if owned {
                self.inner.fetch_owned(request)
            } else {
                self.inner.fetch_group(request)
            };
            match outcome {
                Ok(reply) if reply.request_id == request.request_id => return Ok(reply),
                Ok(_stale) => {
                    // A duplicate of some earlier reply: discard and ask
                    // again under the same id.
                    self.duplicates_discarded += 1;
                    last_error = Some(
                        TransportError::new(
                            TransportErrorKind::ReplyDropped,
                            "stale duplicate reply discarded",
                        )
                        .with_request_id(request.request_id),
                    );
                }
                Err(err) if err.is_retryable() => {
                    if matches!(
                        err.kind(),
                        TransportErrorKind::Timeout | TransportErrorKind::ReplyDropped
                    ) {
                        self.timeouts += 1;
                    }
                    last_error = Some(err);
                }
                Err(err) => return Err(err.with_attempts(attempt)),
            }
        }
        let detail = match last_error {
            Some(err) => format!("retries exhausted; last failure: {err}"),
            None => "retries exhausted".to_string(),
        };
        Err(TransportError::timeout(
            request.request_id,
            max_attempts,
            detail,
        ))
    }
}

impl<T: Transport> Transport for RetryingTransport<T> {
    fn fetch_group(&mut self, request: &GroupRequest) -> Result<GroupReply, TransportError> {
        self.fetch_with_retries(request, false)
    }

    /// Retries forward the owned-fetch semantics to the wrapped
    /// transport (the default would silently downgrade to a proxyable
    /// fetch).
    fn fetch_owned(&mut self, request: &GroupRequest) -> Result<GroupReply, TransportError> {
        self.fetch_with_retries(request, true)
    }

    fn stats(&self) -> TransportStats {
        let mut stats = self.inner.stats();
        stats.retries += self.retries;
        stats.timeouts += self.timeouts;
        stats.duplicates_discarded += self.duplicates_discarded;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcache_core::CostModel;
    use fgcache_types::FileId;

    use crate::fault::{FaultConfig, FaultyTransport};
    use crate::sim::SimTransport;

    fn req(id: u64, files: &[u64]) -> GroupRequest {
        GroupRequest::new(id, files.iter().map(|&f| FileId(f)).collect())
    }

    fn stack(max_attempts: u32) -> RetryingTransport<FaultyTransport<SimTransport<'static>>> {
        RetryingTransport::new(
            FaultyTransport::new(
                SimTransport::to_origin(CostModel::remote()),
                FaultConfig::none(),
            ),
            RetryPolicy::virtual_time(max_attempts, 7),
        )
    }

    #[test]
    fn clean_fetch_never_backs_off() {
        let mut t = stack(4);
        let r = t.fetch_group(&req(0, &[1])).expect("no faults");
        assert_eq!(r.request_id, 0);
        assert!(t.delays_us().is_empty());
        assert_eq!(t.stats().retries, 0);
    }

    #[test]
    fn raw_delay_doubles_and_caps() {
        let p = RetryPolicy::virtual_time(8, 0);
        assert_eq!(p.raw_delay_us(1), 1_000);
        assert_eq!(p.raw_delay_us(2), 2_000);
        assert_eq!(p.raw_delay_us(3), 4_000);
        assert_eq!(p.raw_delay_us(7), 50_000, "capped at max_delay_us");
        assert_eq!(p.raw_delay_us(64), 50_000, "huge attempts saturate");
    }

    #[test]
    fn timeout_then_success_is_one_execution() {
        let mut t = stack(4);
        t.inner_mut().force_timeout_next(1);
        let r = t.fetch_group(&req(3, &[1, 2])).expect("second attempt");
        assert_eq!(r.request_id, 3);
        let s = t.stats();
        assert_eq!(s.requests, 1, "the timed-out attempt never executed");
        assert_eq!(s.retries, 1);
        assert_eq!(s.timeouts, 1);
        assert_eq!(t.delays_us().len(), 1);
    }

    #[test]
    fn non_retryable_error_fails_fast() {
        struct Broken;
        impl Transport for Broken {
            fn fetch_group(
                &mut self,
                request: &GroupRequest,
            ) -> Result<GroupReply, TransportError> {
                Err(
                    TransportError::new(TransportErrorKind::Protocol, "bad frame")
                        .with_request_id(request.request_id),
                )
            }
            fn stats(&self) -> TransportStats {
                TransportStats::default()
            }
        }
        let mut t = RetryingTransport::new(Broken, RetryPolicy::virtual_time(5, 0));
        let err = t.fetch_group(&req(0, &[1])).expect_err("protocol error");
        assert_eq!(err.kind(), TransportErrorKind::Protocol);
        assert_eq!(err.attempts(), 1, "no retry of non-retryable errors");
        assert!(t.delays_us().is_empty());
    }

    #[test]
    fn full_backoff_schedule_is_pinned_and_capped_after_jitter() {
        // Regression pin for the suspicion that the max-backoff cap is
        // applied before jitter (letting a jittered delay exceed the
        // cap). It cannot: jitter draws from [raw/2, raw] and raw is
        // already capped, so jittered <= raw <= max_delay_us always.
        // Pinning the whole schedule keeps that arithmetic frozen.
        let mut t = stack(9);
        t.inner_mut().force_timeout_next(8);
        t.fetch_group(&req(0, &[1])).expect("ninth attempt wins");
        let p = RetryPolicy::virtual_time(9, 7);
        assert_eq!(t.delays_us().len(), 8);
        for &d in t.delays_us() {
            assert!(d <= p.max_delay_us, "delay {d} exceeds the cap");
        }
        // Attempts 7 and 8 are at the cap pre-jitter; their jittered
        // values must still sit inside [cap/2, cap].
        assert_eq!(
            t.delays_us(),
            [779, 1451, 3515, 7131, 10770, 21812, 32336, 45768]
        );
    }

    #[test]
    fn shift_saturation_beyond_attempt_64_stays_at_cap() {
        let p = RetryPolicy::virtual_time(8, 0);
        for attempt in [64u32, 65, 100, u32::MAX] {
            assert_eq!(p.raw_delay_us(attempt), p.max_delay_us);
        }
        // Even with an enormous base the shift clamp (min 63) prevents
        // `1u64 << shift` overflow; saturating_mul + cap do the rest.
        let huge = RetryPolicy {
            base_delay_us: u64::MAX,
            ..RetryPolicy::virtual_time(8, 0)
        };
        assert_eq!(huge.raw_delay_us(u32::MAX), huge.max_delay_us);
    }

    #[test]
    fn jittered_delays_stay_in_half_open_band() {
        let mut t = stack(8);
        t.inner_mut().force_timeout_next(6);
        t.fetch_group(&req(0, &[1])).expect("seventh attempt wins");
        let p = RetryPolicy::virtual_time(8, 7);
        assert_eq!(t.delays_us().len(), 6);
        for (i, &d) in t.delays_us().iter().enumerate() {
            let raw = p.raw_delay_us(i as u32 + 1);
            assert!(
                (raw / 2..=raw).contains(&d),
                "delay {d} outside [{}, {raw}]",
                raw / 2
            );
        }
    }
}
