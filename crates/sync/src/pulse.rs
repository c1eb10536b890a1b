//! Pulse arithmetic: levels, `prev`, `prev(prev(·))` and stage bookkeeping
//! (Definitions 4.3–4.5, Lemmas 4.7, 4.13, 4.14, 4.16 of the paper).
//!
//! Pulses are the round numbers of the simulated synchronous execution. The
//! synchronizer groups its work into *stages*, one per pulse `p ≥ 1`; the stage of
//! pulse `p` uses sparse covers of radius `2^{ℓ(p)+5}`, where `ℓ(p)` is the pulse's
//! *level*, and is anchored at execution-tree ancestors of pulse `prev(prev(p))`.
//! The `5` is [`STAGE_COVER_EXPONENT`], owned by the cover builder, so the
//! smallest radius any stage selects (`2^5`, at `ℓ(p) = 0`) is the lowest layer
//! [`build_synchronizer_cover`](ds_covers::builder::build_synchronizer_cover)
//! builds.

use ds_covers::builder::STAGE_COVER_EXPONENT;

/// The level `ℓ(p)` of a pulse: the exponent of the largest power of two dividing
/// `p`; by convention `ℓ(0)` is treated as "infinite" and is not used directly
/// (pulse 0 is the initiator pulse).
///
/// # Panics
///
/// Panics if `p == 0`.
pub fn level(p: u64) -> u32 {
    assert!(p > 0, "level is defined for positive pulses only");
    p.trailing_zeros()
}

/// `prev(p)` (Definition 4.4): the largest pulse `q ≤ p − 2^{ℓ(p)}` with
/// `ℓ(q) = ℓ(p) + 1`, or 0 if no such positive pulse exists; `prev(0) = 0`.
pub fn prev(p: u64) -> u64 {
    if p == 0 {
        return 0;
    }
    let step = 1u64 << (level(p) + 1);
    let bound = p - (1u64 << level(p));
    // Largest multiple of 2^{ℓ(p)+1} that is ≤ bound and has level exactly ℓ(p)+1.
    let mut q = (bound / step) * step;
    while q > 0 && level(q) != level(p) + 1 {
        q -= step;
    }
    q
}

/// `prev(prev(p))`: the anchor pulse of stage `p`.
pub fn prev_prev(p: u64) -> u64 {
    prev(prev(p))
}

/// The cover-radius exponent used by stage `p`: clusters of the `2^{ℓ(p)+5}`-cover.
/// The `5` is [`STAGE_COVER_EXPONENT`], which the cover builder also starts from.
///
/// # Panics
///
/// Panics if `p == 0`.
pub fn cover_exponent(p: u64) -> u32 {
    level(p) + STAGE_COVER_EXPONENT
}

/// Whether stage `p` is a *base stage*, i.e. anchored at the initiators
/// (`prev(prev(p)) = 0`, Section 4.2).
pub fn is_base_stage(p: u64) -> bool {
    p > 0 && prev_prev(p) == 0
}

/// All stages `1 ..= max_pulse` tracked by a virtual node of pulse `q`: the stages
/// `s` with `prev(prev(s)) ≤ q ≤ s` (Lemma 4.14 bounds their number by `O(log T)`).
pub fn stages_tracked(q: u64, max_pulse: u64) -> Vec<u64> {
    (1..=max_pulse).filter(|&s| prev_prev(s) <= q && q <= s).collect()
}

/// All stages `1 ..= max_pulse` anchored at pulse `q` (`prev(prev(s)) = q`).
pub fn stages_anchored(q: u64, max_pulse: u64) -> Vec<u64> {
    (1..=max_pulse).filter(|&s| prev_prev(s) == q).collect()
}

/// All stages `p ≤ max_pulse` whose registration is triggered by `s`-safety, i.e.
/// `prev(p) = s`.
pub fn stages_with_prev(s: u64, max_pulse: u64) -> Vec<u64> {
    (1..=max_pulse).filter(|&p| prev(p) == s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_examples() {
        assert_eq!(level(1), 0);
        assert_eq!(level(2), 1);
        assert_eq!(level(3), 0);
        assert_eq!(level(4), 2);
        assert_eq!(level(12), 2);
        assert_eq!(level(96), 5);
    }

    #[test]
    fn prev_examples_from_the_paper_definitions() {
        assert_eq!(prev(0), 0);
        assert_eq!(prev(1), 0);
        assert_eq!(prev(2), 0);
        assert_eq!(prev(3), 2);
        assert_eq!(prev(4), 0);
        assert_eq!(prev(5), 2);
        assert_eq!(prev(6), 4);
        assert_eq!(prev(7), 6);
        assert_eq!(prev(8), 0);
        assert_eq!(prev(12), 8);
    }

    #[test]
    fn prev_has_higher_level_and_respects_gap() {
        // Lemma 4.7(a): p − prev(p) ≤ 3·2^{ℓ(p)}, and prev(p) has level ℓ(p)+1 (or is 0).
        for p in 1..=4096u64 {
            let q = prev(p);
            assert!(q < p);
            assert!(p - q <= 3 * (1 << level(p)), "gap too large at p={p}");
            assert!(q <= p - (1 << level(p)));
            if q > 0 {
                assert_eq!(level(q), level(p) + 1, "prev({p}) = {q}");
            }
        }
    }

    #[test]
    fn prev_prev_respects_lemma_4_7_b() {
        for p in 1..=4096u64 {
            assert!(p - prev_prev(p) <= 9 * (1 << level(p)), "p = {p}");
        }
    }

    #[test]
    fn prev_gap_is_at_least_two_for_non_base_pulses() {
        // Used by the synchronizer: when prev(p) > 0, prev(p) − prev(prev(p)) ≥ 2.
        for p in 1..=4096u64 {
            if prev(p) > 0 {
                assert!(prev(p) - prev_prev(p) >= 2, "p = {p}");
            }
        }
    }

    #[test]
    fn level_sum_is_order_t_log_t() {
        // Lemma 4.13: Σ_{p ≤ 2^t} 2^{ℓ(p)} = O(2^t · t).
        for t in 1..=10u32 {
            let total: u64 = (1..=(1u64 << t)).map(|p| 1u64 << level(p)).sum();
            assert!(total <= (t as u64 + 1) * (1 << t));
        }
    }

    #[test]
    fn tracked_stages_are_logarithmically_many() {
        // Lemma 4.14: for any pulse q there are O(log T) stages with
        // prev(prev(p)) ≤ q ≤ p.
        let max_pulse = 2048;
        let bound = 12 * ((max_pulse as f64).log2() as usize + 1);
        for q in 0..=max_pulse {
            let tracked = stages_tracked(q, max_pulse);
            assert!(tracked.len() <= bound, "pulse {q} tracks {} stages", tracked.len());
            for s in tracked {
                assert!(prev_prev(s) <= q && q <= s);
            }
        }
    }

    #[test]
    fn base_stages_are_logarithmically_many() {
        // Lemma 4.16: O(t) pulses p ≤ 2^t have prev(prev(p)) = 0.
        for t in 1..=11u32 {
            let count = (1..=(1u64 << t)).filter(|&p| is_base_stage(p)).count();
            assert!(count <= 4 * (t as usize + 1), "t={t}: {count} base stages");
        }
    }

    #[test]
    fn anchored_and_prev_indexed_stage_sets_are_consistent() {
        let max_pulse = 512;
        for q in 0..=max_pulse {
            for s in stages_anchored(q, max_pulse) {
                assert_eq!(prev_prev(s), q);
            }
            for p in stages_with_prev(q, max_pulse) {
                assert_eq!(prev(p), q);
                if q > 0 {
                    assert_eq!(prev_prev(p), prev(q));
                }
            }
        }
    }

    #[test]
    fn cover_exponent_tracks_level() {
        assert_eq!(cover_exponent(1), 5);
        assert_eq!(cover_exponent(4), 7);
        assert_eq!(cover_exponent(6), 6);
    }

    #[test]
    #[should_panic(expected = "positive pulses")]
    fn level_of_zero_panics() {
        let _ = level(0);
    }
}
