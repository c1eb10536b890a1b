//! Adversarial message-delay models for the asynchronous engine.
//!
//! The asynchronous model bounds every message delay by an unknown time unit `τ`
//! (Section 1.1). Algorithms must be correct for *every* delay assignment; the delay
//! model plays the role of the adversary in the simulation. All models are
//! deterministic for a fixed seed, so experiments are reproducible.
//!
//! Most models assign delays within one `τ` — the timing wheel's horizon. The
//! composite [`DelayModel::Outage`] model deliberately exceeds it: links suffer
//! periodic outage windows several `τ` long, and messages injected during an
//! outage wait until it ends, producing beyond-horizon events that exercise the
//! scheduler's overflow heap (the model's delays are a worst case the paper's
//! analysis does not cover — it exists to stress the engine, not the theorems).

use crate::TICKS_PER_UNIT;
use ds_graph::NodeId;

/// A deterministic adversary assigning a delay (in ticks, `1..=TICKS_PER_UNIT`) to
/// each transmitted message.
#[derive(Clone, Debug, PartialEq)]
pub enum DelayModel {
    /// Every message takes exactly `τ` (the synchronous-looking worst case).
    Uniform,
    /// Every message takes a pseudo-random delay in `[min_ticks, τ]`, derived from a
    /// seed and the message's (source, destination, sequence number).
    Jitter { seed: u64, min_ticks: u64 },
    /// Links incident to nodes with index `< slow_below` are slow (`τ`), all other
    /// links are fast (1 tick). Models a cut of congested links.
    SlowCut { slow_below: usize },
    /// Delay alternates between fast and slow per message sequence number: messages
    /// whose sequence number is divisible by `period` take `τ`, others take 1 tick.
    /// Models bursty congestion.
    Bursty { period: u64 },
    /// Composite multi-unit adversary: every `period_units · τ` window, each
    /// undirected link goes down for `outage_units · τ` at a per-link,
    /// per-window pseudo-random offset. A message injected during an outage is
    /// delivered when the outage ends plus a jittered base delay — up to
    /// `(outage_units + 1) · τ`, i.e. *beyond* the timing wheel's one-`τ`
    /// horizon (the overflow heap absorbs these).
    Outage {
        /// Seed of the per-link window offsets and the per-message base jitter.
        seed: u64,
        /// Length of one outage period, in units of `τ` (must exceed `outage_units`).
        period_units: u64,
        /// Length of one outage window, in units of `τ` (at least 1).
        outage_units: u64,
    },
}

impl DelayModel {
    /// Adversary where every message takes the full time unit.
    pub fn uniform() -> Self {
        DelayModel::Uniform
    }

    /// Seeded pseudo-random jitter in `[1, τ]`.
    pub fn jitter(seed: u64) -> Self {
        DelayModel::Jitter { seed, min_ticks: 1 }
    }

    /// Seeded pseudo-random jitter in `[min_fraction · τ, τ]`.
    ///
    /// # Panics
    ///
    /// Panics if `min_fraction` is not in `(0, 1]`.
    pub fn jitter_at_least(seed: u64, min_fraction: f64) -> Self {
        assert!(min_fraction > 0.0 && min_fraction <= 1.0, "min_fraction must be in (0, 1]");
        DelayModel::Jitter {
            seed,
            min_ticks: ((TICKS_PER_UNIT as f64) * min_fraction).ceil().max(1.0) as u64,
        }
    }

    /// Links incident to low-index nodes are slow; the rest are fast.
    pub fn slow_cut(slow_below: usize) -> Self {
        DelayModel::SlowCut { slow_below }
    }

    /// Every `period`-th message (by global sequence number) is slow.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn bursty(period: u64) -> Self {
        assert!(period > 0, "period must be positive");
        DelayModel::Bursty { period }
    }

    /// Per-link outage windows of `outage_units · τ` every `period_units · τ`.
    ///
    /// # Panics
    ///
    /// Panics unless `period_units > outage_units >= 1`.
    pub fn outage(seed: u64, period_units: u64, outage_units: u64) -> Self {
        assert!(outage_units >= 1, "outage windows must last at least one unit");
        assert!(period_units > outage_units, "the period must exceed the outage window");
        DelayModel::Outage { seed, period_units, outage_units }
    }

    /// Delay in ticks for a message from `from` to `to` with global sequence
    /// number `seq`, injected at the start of the run. Equivalent to
    /// [`DelayModel::delay_ticks_at`] with `now == 0`; the single-`τ` models
    /// ignore the injection time entirely and always stay in
    /// `1..=TICKS_PER_UNIT`.
    pub fn delay_ticks(&self, from: NodeId, to: NodeId, seq: u64) -> u64 {
        self.delay_ticks_at(from, to, seq, 0)
    }

    /// Delay in ticks for a message from `from` to `to` with global sequence
    /// number `seq`, injected into its link at absolute tick `now` (which is part
    /// of the deterministic schedule, so delays remain reproducible).
    ///
    /// Single-`τ` models return values in `1..=TICKS_PER_UNIT`; the composite
    /// [`DelayModel::Outage`] model can return up to
    /// `(outage_units + 1) · TICKS_PER_UNIT`.
    pub fn delay_ticks_at(&self, from: NodeId, to: NodeId, seq: u64, now: u64) -> u64 {
        let d = match *self {
            DelayModel::Uniform => TICKS_PER_UNIT,
            DelayModel::Jitter { seed, min_ticks } => {
                let h = splitmix(seed ^ mix3(from.index() as u64, to.index() as u64, seq));
                min_ticks + h % (TICKS_PER_UNIT - min_ticks + 1)
            }
            DelayModel::SlowCut { slow_below } => {
                if from.index() < slow_below || to.index() < slow_below {
                    TICKS_PER_UNIT
                } else {
                    1
                }
            }
            DelayModel::Bursty { period } => {
                if seq.is_multiple_of(period) {
                    TICKS_PER_UNIT
                } else {
                    1
                }
            }
            DelayModel::Outage { seed, period_units, outage_units } => {
                // Per-message base jitter in [1, τ].
                let h = splitmix(
                    seed.wrapping_add(0xA5A5) ^ mix3(from.index() as u64, to.index() as u64, seq),
                );
                let base = 1 + h % TICKS_PER_UNIT;
                // The link's outage window within the current period: an
                // undirected per-link, per-window offset (both directions of a
                // link go down together).
                let period = period_units * TICKS_PER_UNIT;
                let outage = outage_units * TICKS_PER_UNIT;
                let (a, b) = if from <= to { (from, to) } else { (to, from) };
                let window = now / period;
                let wh = splitmix(seed ^ mix3(a.index() as u64, b.index() as u64, window));
                let start = window * period + wh % (period - outage + 1);
                return if (start..start + outage).contains(&now) {
                    (start + outage - now) + base
                } else {
                    base
                };
            }
        };
        d.clamp(1, TICKS_PER_UNIT)
    }

    /// The asynchronous engine's timing-wheel horizon, in ticks: the delay bound
    /// of the single-`τ` models. Models may exceed it — [`DelayModel::Outage`]
    /// does, by design — in which case the beyond-horizon events park in the
    /// scheduler's overflow heap rather than a wheel slot.
    pub fn max_delay_ticks(&self) -> u64 {
        TICKS_PER_UNIT
    }

    /// The standard set of adversaries exercised by the integration tests and the
    /// robustness experiment (E8 in DESIGN.md).
    pub fn standard_suite(seed: u64) -> Vec<DelayModel> {
        vec![
            DelayModel::uniform(),
            DelayModel::jitter(seed),
            DelayModel::jitter_at_least(seed.wrapping_add(1), 0.5),
            DelayModel::slow_cut(3),
            DelayModel::bursty(3),
        ]
    }
}

fn mix3(a: u64, b: u64, c: u64) -> u64 {
    splitmix(a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.rotate_left(17) ^ c.rotate_left(43))
}

/// SplitMix64 finalizer: a small, dependency-free deterministic hash.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_always_max() {
        let d = DelayModel::uniform();
        for seq in 0..10 {
            assert_eq!(d.delay_ticks(NodeId(0), NodeId(1), seq), TICKS_PER_UNIT);
        }
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let d = DelayModel::jitter(42);
        for seq in 0..200 {
            let x = d.delay_ticks(NodeId(3), NodeId(7), seq);
            assert!((1..=TICKS_PER_UNIT).contains(&x));
            assert_eq!(x, d.delay_ticks(NodeId(3), NodeId(7), seq));
        }
    }

    #[test]
    fn jitter_at_least_respects_floor() {
        let d = DelayModel::jitter_at_least(1, 0.5);
        for seq in 0..200 {
            assert!(d.delay_ticks(NodeId(0), NodeId(1), seq) >= TICKS_PER_UNIT / 2);
        }
    }

    #[test]
    fn slow_cut_distinguishes_links() {
        let d = DelayModel::slow_cut(2);
        assert_eq!(d.delay_ticks(NodeId(1), NodeId(5), 0), TICKS_PER_UNIT);
        assert_eq!(d.delay_ticks(NodeId(5), NodeId(6), 0), 1);
    }

    #[test]
    fn bursty_alternates() {
        let d = DelayModel::bursty(2);
        assert_eq!(d.delay_ticks(NodeId(0), NodeId(1), 0), TICKS_PER_UNIT);
        assert_eq!(d.delay_ticks(NodeId(0), NodeId(1), 1), 1);
    }

    #[test]
    fn standard_suite_is_nonempty_and_valid() {
        for d in DelayModel::standard_suite(9) {
            let x = d.delay_ticks(NodeId(0), NodeId(1), 7);
            assert!((1..=TICKS_PER_UNIT).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "min_fraction")]
    fn jitter_at_least_rejects_zero() {
        let _ = DelayModel::jitter_at_least(0, 0.0);
    }

    #[test]
    fn bursty_one_realizes_only_delays_above_its_floor() {
        // `bursty(1)` marks every message slow: each draw is exactly τ, so
        // its schedule sits on the τ grid like the uniform model's.
        let d = DelayModel::bursty(1);
        for seq in 0..200 {
            assert_eq!(d.delay_ticks(NodeId(3), NodeId(4), seq), TICKS_PER_UNIT);
        }
    }

    #[test]
    fn outage_delays_are_deterministic_and_can_exceed_the_horizon() {
        let d = DelayModel::outage(7, 8, 3);
        let mut beyond = 0u64;
        for link in 0..40u64 {
            for now in (0..8 * TICKS_PER_UNIT).step_by(137) {
                let x =
                    d.delay_ticks_at(NodeId(link as usize), NodeId(link as usize + 1), link, now);
                assert!(x >= 1);
                assert!(x <= 4 * TICKS_PER_UNIT, "delay {x} above (outage+1)·τ");
                assert_eq!(
                    x,
                    d.delay_ticks_at(NodeId(link as usize), NodeId(link as usize + 1), link, now)
                );
                if x > TICKS_PER_UNIT {
                    beyond += 1;
                }
            }
        }
        assert!(beyond > 0, "some injection must land in an outage window");
    }

    #[test]
    fn outage_is_symmetric_per_link() {
        // Both directions of a link share the outage window: any instant whose
        // remaining wait exceeds one τ (delay > 2τ implies wait > τ) must delay
        // the reverse direction beyond one τ too (its delay is wait + base ≥
        // wait + 1). Only the per-message base jitter may differ.
        let d = DelayModel::outage(3, 6, 2);
        let (u, v) = (NodeId(4), NodeId(9));
        let mut saw_outage = false;
        for now in 0..6 * TICKS_PER_UNIT {
            let a = d.delay_ticks_at(u, v, 0, now);
            let b = d.delay_ticks_at(v, u, 0, now);
            if a > 2 * TICKS_PER_UNIT {
                saw_outage = true;
                assert!(b > TICKS_PER_UNIT, "window not shared at {now}: a={a} b={b}");
            }
        }
        assert!(saw_outage);
    }

    #[test]
    #[should_panic(expected = "period must exceed")]
    fn outage_rejects_windows_longer_than_the_period() {
        let _ = DelayModel::outage(1, 2, 2);
    }
}
