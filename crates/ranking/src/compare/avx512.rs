//! Kendall's inversion count with AVX-512: a bit-sliced stable partition.
//!
//! The values are a permutation of `0..n` in sequence order.  Level by
//! level from the top bit, each group — the contiguous value range
//! `[g·2^(ℓ+1), (g+1)·2^(ℓ+1))`, which after the levels above occupies
//! exactly those positions, in sequence order — splits stably on bit `ℓ`:
//! its zeros go to the front half, its ones to the back.  The pairs the
//! split puts the other way round are the group's ones that precede its
//! zeros, and those are exactly the inversions whose first differing bit
//! is `ℓ`.  Because the values are a permutation, each group's size and
//! zero/one boundary follow from `n`, with no histogram.  Sixteen values
//! split per step: one `vptestmd` on the level's bit, then one
//! compress-store for the zeros and one for the ones.  Groups of at most
//! [`LEAF`] values finish with one `u64` occupancy mask each.

use std::arch::x86_64::{
    _mm512_loadu_si512, _mm512_mask_compressstoreu_epi32, _mm512_mask_test_epi32_mask,
    _mm512_set1_epi32,
};

/// Values per vector.
const LANES: usize = 16;
/// Groups of at most this many values finish with one `u64` mask each.
const LEAF: usize = 64;

/// `INDEX_SUMS[m]`: the sum of the indices of the set bits of byte `m`.  Two
/// lookups give a vector mask's index sum; four masked popcounts would too,
/// but the compiler packs those into one vector through the stack, and the
/// store-forwarding stall made the level passes four times slower.
const INDEX_SUMS: [u8; 256] = {
    let mut sums = [0u8; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut bit = 0;
        while bit < 8 {
            if byte >> bit & 1 == 1 {
                sums[byte] += bit as u8;
            }
            bit += 1;
        }
        byte += 1;
    }
    sums
};

/// Whether this CPU runs AVX-512F (and POPCNT, which every AVX-512 CPU
/// has).  `std` caches the answers, so a call is two relaxed loads.
pub(super) fn available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f") && std::arch::is_x86_feature_detected!("popcnt")
}

/// Counts the inversions of `values`, a permutation of `0..n` with
/// `2 <= n <= u32::MAX`.  `front` and `back` are the partition's ping-pong
/// buffers, refilled to `n + 16` entries each, so repeated counts reuse
/// them.
///
/// # Panics
/// When the CPU lacks AVX-512F (callers check [`available`] first), and
/// when `values` is not a permutation of `0..n` in a way that would move a
/// group's values out of its range.
pub(super) fn count_inversions(
    values: impl Iterator<Item = usize>,
    n: usize,
    front: &mut Vec<u32>,
    back: &mut Vec<u32>,
) -> u64 {
    assert!(available(), "the AVX-512 inversion count needs AVX-512F");
    assert!(u32::try_from(n).is_ok(), "values fit a u32");
    front.clear();
    front.extend(values.map(|value| value as u32));
    assert_eq!(front.len(), n, "n values");
    // The slack lets the last vector of a pass load sixteen lanes.
    front.resize(n + LANES, 0);
    back.resize(n + LANES, 0);
    let (mut src, mut dst) = (front, back);
    let bits = usize::BITS - n.saturating_sub(1).leading_zeros();
    let mut inversions = 0u64;
    for level in (LEAF.trailing_zeros()..bits).rev() {
        // SAFETY: `available` was asserted above, and `split_level`
        // enables no target feature but AVX-512F and POPCNT.
        inversions += unsafe { split_level(src, dst, n, level) };
        std::mem::swap(&mut src, &mut dst);
    }
    // SAFETY: as above; `leaves` enables POPCNT alone.
    inversions + unsafe { leaves(&src[..n]) }
}

/// Splits every group of `2^(level+1)` values of `src` stably on bit
/// `level` into `dst` and returns the (one, zero) pairs in sequence order.
/// Both buffers hold at least `n + 16` entries.  It enables AVX-512F and
/// POPCNT, so calling it is `unsafe` unless the caller has proved the CPU
/// runs them.
#[target_feature(enable = "avx512f,popcnt")]
fn split_level(src: &[u32], dst: &mut [u32], n: usize, level: u32) -> u64 {
    assert!(
        src.len() >= n + LANES && dst.len() >= n,
        "buffers hold n + 16"
    );
    let half = 1usize << level;
    let bit = _mm512_set1_epi32(half as u32 as i32);
    let mut inversions = 0u64;
    for start in (0..n).step_by(2 * half) {
        let end = (start + 2 * half).min(n);
        let split = (start + half).min(end);
        let (mut zeros_at, mut ones_at) = (start, split);
        let mut ones_seen = 0u64;
        for at in (start..end).step_by(LANES) {
            let live = (end - at).min(LANES);
            let live_mask = (u32::MAX >> (32 - live)) as u16;
            // SAFETY: `at < n`, so the sixteen lanes from `at` end within
            // the `n + 16` entries of `src`; an unaligned load needs no
            // alignment.
            let v = unsafe { _mm512_loadu_si512(src.as_ptr().add(at).cast()) };
            let ones = _mm512_mask_test_epi32_mask(live_mask, v, bit);
            let zeros = live_mask & !ones;
            let k = u64::from(ones.count_ones());
            let z = u64::from(zeros.count_ones());
            // The (one, zero) pairs inside the vector: each one at index p
            // precedes `live − 1 − p` lanes, `k − 1 − (ones before it)` of
            // them ones, so the pairs are `15k − Σp − k(k−1)/2` (written
            // `k(31−k)/2 − Σp`), less `k` per dead lane past `live`.
            let high = ones >> 8;
            let index_sum = u64::from(INDEX_SUMS[usize::from(ones as u8)])
                + u64::from(INDEX_SUMS[usize::from(high)])
                + 8 * u64::from(high.count_ones());
            let dead = (LANES - live) as u64;
            inversions += ones_seen * z + k * (31 - k) / 2 - k * dead - index_sum;
            ones_seen += k;
            let (z, k) = (z as usize, k as usize);
            assert!(
                zeros_at + z <= split && ones_at + k <= end,
                "the values are a permutation of 0..n"
            );
            // SAFETY: a compress-store writes one `u32` per set mask bit:
            // `z` from `zeros_at` and `k` from `ones_at`, which the
            // assertion above keeps within `dst[start..end]`.
            unsafe {
                _mm512_mask_compressstoreu_epi32(dst.as_mut_ptr().add(zeros_at).cast(), zeros, v);
                _mm512_mask_compressstoreu_epi32(dst.as_mut_ptr().add(ones_at).cast(), ones, v);
            }
            zeros_at += z;
            ones_at += k;
        }
    }
    inversions
}

/// The inversions inside each group of [`LEAF`] values, the group holding
/// `64g..64g + 64` in sequence order: each value adds the earlier ones
/// above it, read off one occupancy mask.  It enables POPCNT, so calling it
/// is `unsafe` unless the caller has proved the CPU runs it.
#[target_feature(enable = "popcnt")]
fn leaves(values: &[u32]) -> u64 {
    let mut inversions = 0u64;
    for (group, chunk) in values.chunks(LEAF).enumerate() {
        let base = (group * LEAF) as u32;
        let mut seen = 0u64;
        for &value in chunk {
            debug_assert!(
                value.wrapping_sub(base) < LEAF as u32,
                "a value of the group"
            );
            let offset = value.wrapping_sub(base) % LEAF as u32;
            inversions += u64::from((seen >> offset).count_ones());
            seen |= 1 << offset;
        }
    }
    inversions
}
