//! Retry policy for idempotent subfile RPCs.
//!
//! Every DPFS data-path request (read, write, sync, stat, ...) names an
//! absolute subfile range, so replaying one after a transport failure is
//! safe — at worst the server re-applies the same bytes to the same
//! offsets. That makes the client the right place for fault tolerance:
//! a [`RetryPolicy`] classifies errors (transport failures retry,
//! application answers do not), spaces attempts with capped exponential
//! backoff, and de-synchronizes clients with deterministic jitter drawn
//! from the vendored `rand` (a pure function of `seed` and the attempt
//! number, so test runs replay exactly).
//!
//! The policy is wired into [`crate::conn::ConnPool`]: `rpc` and the
//! [`crate::file::FileHandle`] fan-out retry transparently.

use std::time::Duration;

use crate::error::DpfsError;

/// When — and how often — a failed RPC is reissued.
///
/// `Copy` + `Eq` so it can ride inside [`crate::file::ClientOptions`];
/// jitter is therefore an integer percentage rather than a float.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles every retry after that.
    pub base_backoff: Duration,
    /// Cap on the (pre-jitter) backoff.
    pub max_backoff: Duration,
    /// Jitter as a percentage of the backoff: the sleep is scaled by a
    /// factor drawn uniformly from `[100 - jitter_pct, 100 + jitter_pct]`
    /// percent. 0 disables jitter. Values above 100 are treated as 100.
    pub jitter_pct: u32,
    /// Seed of the jitter stream: `Some(seed)` pins it (the backoff for
    /// attempt `n` is then a pure function of `(seed, server, n)`, so
    /// test runs replay exactly); `None` — the default — means "derive a
    /// fresh seed when this policy is installed on a mount"
    /// ([`RetryPolicy::seeded_for_mount`]). A fixed fleet-wide default
    /// seed would make every client sleep *identical* "jitter", keeping
    /// retry storms in lockstep — the opposite of the de-synchronization
    /// jitter exists for.
    pub seed: Option<u64>,
}

impl Default for RetryPolicy {
    /// Three retries (four attempts), 10 ms base, 200 ms cap, ±50% jitter,
    /// per-mount seed derivation.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            jitter_pct: 50,
            seed: None,
        }
    }
}

/// Jitter seed an unseeded policy falls back to when its backoff is
/// computed before any mount installed it (and the legacy fleet-wide
/// constant, kept so direct `backoff()` calls stay deterministic).
const FALLBACK_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// A fresh, unpredictable-enough jitter seed: wall-clock nanoseconds
/// mixed (splitmix64) with the process ID and a per-process counter, so
/// two mounts in one process — or one process per node across a fleet —
/// never share a jitter stream.
pub fn entropy_seed() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut x = nanos
        ^ (u64::from(std::process::id()) << 32)
        ^ COUNTER
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0xa076_1d64_78bd_642f);
    // splitmix64 finalizer
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// A policy that never retries (the pre-fault-tolerance behaviour;
    /// also what raw `ConnPool`s default to so transport tests count
    /// exactly one attempt per call).
    pub fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Whether this policy ever retries.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// Is `err` worth retrying? Only *transport-class* failures — connect
    /// refusals, deadline expiries, dead connections, and frame-level I/O
    /// failures (a broken pipe mid-write, a frame torn by a dropped
    /// connection) — where the request may never have reached the server,
    /// or the server may be back by the next attempt. Application-level
    /// answers (server error responses, short writes, bad arguments) are
    /// the server's verdict on a request it *did* process; replaying them
    /// would loop forever on the same answer. Protocol corruption
    /// (bad magic, checksum mismatch) is also terminal: the peer is
    /// confused, not briefly absent.
    pub fn retryable(err: &DpfsError) -> bool {
        matches!(
            err,
            DpfsError::Connect { .. }
                | DpfsError::Timeout { .. }
                | DpfsError::Disconnected { .. }
                | DpfsError::Frame(dpfs_proto::FrameError::Io(_))
        )
    }

    /// Pin the jitter seed (tests, replayable runs). Overrides per-mount
    /// derivation.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Resolve this policy for installation on one mount: an unseeded
    /// (`seed: None`) policy gets a fresh [`entropy_seed`], so two
    /// default-configured mounts jitter differently; an explicit seed is
    /// kept verbatim.
    pub fn seeded_for_mount(mut self) -> Self {
        if self.seed.is_none() {
            self.seed = Some(entropy_seed());
        }
        self
    }

    /// Backoff before retry number `attempt` (1-based: the sleep before
    /// the first retry is `backoff(1)`). Exponential from `base_backoff`,
    /// capped at `max_backoff`, scaled by deterministic jitter.
    pub fn backoff(&self, attempt: u32) -> Duration {
        self.backoff_for("", attempt)
    }

    /// [`RetryPolicy::backoff`] with the target server's name mixed into
    /// the jitter stream, so one client retrying against several servers
    /// does not hammer them in phase either.
    pub fn backoff_for(&self, server: &str, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(32);
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << exp.min(31))
            .min(self.max_backoff);
        let jitter = self.jitter_pct.min(100);
        if jitter == 0 || raw.is_zero() {
            return raw;
        }
        // FNV-1a over the server name: cheap, deterministic mixing.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in server.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let seed = self.seed.unwrap_or(FALLBACK_SEED);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ h ^ u64::from(attempt));
        let pct = rng.gen_range(100 - jitter..=100 + jitter);
        raw.saturating_mul(pct) / 100
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_retries_and_disabled_does_not() {
        assert!(RetryPolicy::default().enabled());
        assert!(!RetryPolicy::disabled().enabled());
        assert_eq!(RetryPolicy::disabled().max_attempts, 1);
    }

    #[test]
    fn transport_errors_retry_application_errors_do_not() {
        let retryable = [
            DpfsError::Connect {
                server: "s".into(),
                source: std::io::Error::other("refused"),
            },
            DpfsError::Timeout {
                server: "s".into(),
                timeout: Duration::from_secs(1),
            },
            DpfsError::Disconnected {
                server: "s".into(),
                reason: "lost".into(),
            },
            DpfsError::Frame(dpfs_proto::FrameError::Io(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "pipe",
            ))),
        ];
        for err in &retryable {
            assert!(RetryPolicy::retryable(err), "{err} should retry");
        }
        assert!(
            !RetryPolicy::retryable(&DpfsError::Frame(dpfs_proto::FrameError::BadMagic(
                *b"XXXX"
            ))),
            "protocol corruption must not retry"
        );
        let terminal = [
            DpfsError::ShortWrite {
                server: "s".into(),
                expected: 8,
                written: 4,
            },
            DpfsError::Server {
                code: dpfs_proto::ErrorCode::NoSpace,
                message: "full".into(),
            },
            DpfsError::InvalidArgument("bad".into()),
        ];
        for err in &terminal {
            assert!(!RetryPolicy::retryable(err), "{err} must not retry");
        }
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            jitter_pct: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(40));
        assert_eq!(p.backoff(20), p.max_backoff);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 1..8 {
            let a = p.backoff(attempt);
            let b = p.backoff(attempt);
            assert_eq!(a, b, "same (seed, attempt) must give the same sleep");
            let raw = RetryPolicy { jitter_pct: 0, ..p }.backoff(attempt);
            assert!(
                a >= raw / 2 && a <= raw * 3 / 2,
                "{a:?} outside ±50% of {raw:?}"
            );
        }
        let other_seed = RetryPolicy { seed: Some(7), ..p };
        assert!(
            (1..16).any(|n| other_seed.backoff(n) != p.backoff(n)),
            "different seeds should jitter differently"
        );
    }

    #[test]
    fn mount_seeding_desynchronizes_defaults_but_keeps_overrides() {
        // Two mounts installing the *default* policy must not share a
        // jitter stream (the fleet-synchronization bug): each gets its
        // own derived seed.
        let a = RetryPolicy::default().seeded_for_mount();
        let b = RetryPolicy::default().seeded_for_mount();
        assert!(a.seed.is_some() && b.seed.is_some());
        assert_ne!(a.seed, b.seed, "per-mount seeds must differ");
        assert!(
            (1..16).any(|n| a.backoff(n) != b.backoff(n)),
            "two default mounts must produce different backoff streams"
        );
        // An explicit seed survives installation untouched — tests that
        // pin the stream stay deterministic.
        let pinned = RetryPolicy::default().with_seed(42).seeded_for_mount();
        assert_eq!(pinned.seed, Some(42));
        assert_eq!(
            pinned.backoff(3),
            RetryPolicy::default().with_seed(42).backoff(3)
        );
    }

    #[test]
    fn server_name_joins_the_jitter_stream() {
        let p = RetryPolicy::default().with_seed(99);
        assert!(
            (1..16).any(|n| p.backoff_for("ion00", n) != p.backoff_for("ion01", n)),
            "different servers should jitter differently"
        );
        // And stays deterministic per (seed, server, attempt).
        assert_eq!(p.backoff_for("ion00", 2), p.backoff_for("ion00", 2));
    }
}
