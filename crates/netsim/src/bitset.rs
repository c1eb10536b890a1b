//! Word-indexed occupancy-bitset helpers for
//! [`crate::scheduler::TimingWheel`]'s slot map.

/// Sets bit `idx`.
pub(crate) fn set(words: &mut [u64], idx: usize) {
    words[idx / 64] |= 1u64 << (idx % 64);
}

/// Clears bit `idx`.
pub(crate) fn clear(words: &mut [u64], idx: usize) {
    words[idx / 64] &= !(1u64 << (idx % 64));
}

/// Index of the first set bit at position `>= start`, or `None`.
pub(crate) fn find_set_from(words: &[u64], start: usize) -> Option<usize> {
    let mut w = start / 64;
    if w >= words.len() {
        return None;
    }
    let mut word = words[w] & (!0u64 << (start % 64));
    loop {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        w += 1;
        if w >= words.len() {
            return None;
        }
        word = words[w];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_find_clear_roundtrip() {
        let mut words = vec![0u64; 3];
        for idx in [0, 1, 63, 64, 65, 127, 128, 191] {
            set(&mut words, idx);
            assert_eq!(find_set_from(&words, 0), Some(idx));
            assert_eq!(find_set_from(&words, idx), Some(idx));
            clear(&mut words, idx);
        }
        assert_eq!(find_set_from(&words, 0), None);
    }

    #[test]
    fn find_respects_the_start_offset() {
        let mut words = vec![0u64; 2];
        set(&mut words, 3);
        set(&mut words, 70);
        assert_eq!(find_set_from(&words, 0), Some(3));
        assert_eq!(find_set_from(&words, 3), Some(3));
        assert_eq!(find_set_from(&words, 4), Some(70));
        assert_eq!(find_set_from(&words, 71), None);
        assert_eq!(find_set_from(&words, 500), None);
    }
}
