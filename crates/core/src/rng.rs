//! The workspace's one seeded random source.
//!
//! Fault placement, probabilistic load shedding and client backoff jitter
//! all need randomness that is reproducible from a seed and stable across
//! runs and platforms, so every crate draws from this splitmix64
//! generator instead of taking an RNG dependency.

use crate::trace::mix64;

/// splitmix64: one `u64` of state, full 64-bit output. Draw `k` (from 0)
/// is [`mix64`] of `seed + k·γ`, so the state word after `k` draws is
/// `seed + k·γ` — a snapshot stores it verbatim and a restore resumes the
/// same stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SplitMix64 {
    /// The whole generator state.
    pub state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let z = mix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`; draws nothing when `p <= 0`.
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }

    /// Uniform in `[1, n]` (`n = 0` is read as 1).
    pub fn up_to(&mut self, n: usize) -> usize {
        1 + (self.next_u64() as usize) % n.max(1)
    }
}
