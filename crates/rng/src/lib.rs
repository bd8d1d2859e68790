//! Self-contained deterministic pseudo-random number generation.
//!
//! All stochastic components of the reproduction (topology generation, the
//! discrete-event simulator, protocol randomness) draw from [`Rng`], an
//! implementation of the xoshiro256\*\* generator seeded through SplitMix64.
//! Keeping the generator in-tree guarantees that a given seed produces the
//! same experiment forever, independent of external crate version bumps —
//! a property the paper's methodology (§5.4, confidence intervals over
//! repeated runs) depends on.
//!
//! # Examples
//!
//! ```
//! use egm_rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let die = rng.range_usize(1, 7); // uniform in [1, 7)
//! assert!((1..7).contains(&die));
//!
//! // Forked streams are independent but fully determined by the parent seed.
//! let mut child = rng.fork();
//! let _ = child.next_u64();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod xoshiro;

pub use xoshiro::Rng;

/// Fast, deterministic hashing for simulator-internal maps.
///
/// The event loop hashes message ids and link pairs on every send and
/// receive; `std`'s default SipHash (with its per-process random seed) is
/// both slower and non-reproducible across processes. This FxHash-style
/// multiply-rotate hasher is deterministic and an order of magnitude
/// cheaper on small fixed-size keys. It is **not** DoS-resistant — use it
/// only for keys the simulation itself generates, never for untrusted
/// input.
pub mod hash {
    use std::hash::{BuildHasherDefault, Hasher};

    /// `HashMap` keyed by the deterministic [`FxHasher`].
    pub type FastHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
    /// `HashSet` keyed by the deterministic [`FxHasher`].
    pub type FastHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    /// FxHash-style multiply-rotate hasher (as used by rustc).
    #[derive(Debug, Default, Clone)]
    pub struct FxHasher {
        hash: u64,
    }

    impl FxHasher {
        #[inline]
        fn add(&mut self, word: u64) {
            self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
        }
    }

    impl Hasher for FxHasher {
        #[inline]
        fn write(&mut self, bytes: &[u8]) {
            for chunk in bytes.chunks(8) {
                let mut buf = [0u8; 8];
                buf[..chunk.len()].copy_from_slice(chunk);
                self.add(u64::from_le_bytes(buf));
            }
        }

        #[inline]
        fn write_u8(&mut self, n: u8) {
            self.add(u64::from(n));
        }

        #[inline]
        fn write_u32(&mut self, n: u32) {
            self.add(u64::from(n));
        }

        #[inline]
        fn write_u64(&mut self, n: u64) {
            self.add(n);
        }

        #[inline]
        fn write_usize(&mut self, n: usize) {
            self.add(n as u64);
        }

        #[inline]
        fn finish(&self) -> u64 {
            self.hash
        }
    }
}

/// Extension helpers for sampling from collections.
///
/// These are free functions rather than methods on `Rng` where they would
/// otherwise force generic parameters onto every call site.
pub mod sample {
    use super::hash::FastHashSet;
    use super::Rng;

    /// Largest `k` whose Floyd membership test scans the output itself:
    /// O(k²) compares, but allocation-free, which is what the small-k hot
    /// paths (view shuffles, gossip targets, k ≤ 15) want. Larger draws
    /// test membership in a hash set, O(1) per draw.
    pub(crate) const LINEAR_SCAN_MAX_K: usize = 32;

    /// Returns `k` distinct indices drawn uniformly from `0..n`.
    ///
    /// Uses Floyd's algorithm (Bentley & Floyd, "A sample of brilliance",
    /// CACM 1987), which performs `k` insertions regardless of `n`, each
    /// with an O(1) membership test once `k` is large. The result is in
    /// insertion order (not sorted, not uniform over permutations —
    /// uniform over *sets*).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn distinct_indices(rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        distinct_indices_into(rng, n, k, &mut chosen);
        chosen
    }

    /// [`distinct_indices`] into a caller-owned buffer (cleared first).
    ///
    /// Draws exactly the same index sequence as `distinct_indices` for
    /// the same RNG state, but lets hot paths (gossip target sampling,
    /// shuffle subsets) reuse one scratch vector instead of allocating
    /// per call. Only draws of more than `LINEAR_SCAN_MAX_K` (32) indices
    /// allocate, for their membership set.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn distinct_indices_into(rng: &mut Rng, n: usize, k: usize, out: &mut Vec<usize>) {
        assert!(k <= n, "cannot sample {k} distinct indices from 0..{n}");
        out.clear();
        if k <= LINEAR_SCAN_MAX_K {
            for j in (n - k)..n {
                let t = rng.range_usize(0, j + 1);
                out.push(if out.contains(&t) { j } else { t });
            }
            return;
        }
        out.reserve(k);
        let mut chosen: FastHashSet<usize> =
            FastHashSet::with_capacity_and_hasher(k, Default::default());
        for j in (n - k)..n {
            let t = rng.range_usize(0, j + 1);
            // `j` exceeds every earlier pick, so it is never in the set.
            let pick = if chosen.insert(t) {
                t
            } else {
                chosen.insert(j);
                j
            };
            out.push(pick);
        }
    }

    /// Draws one element uniformly from a non-empty slice.
    ///
    /// Returns `None` when the slice is empty.
    pub fn choose<'a, T>(rng: &mut Rng, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[rng.range_usize(0, items.len())])
        }
    }

    /// Fisher–Yates shuffle of a mutable slice.
    pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
        let n = items.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = rng.range_usize(0, i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sample::{choose, distinct_indices, shuffle};
    use super::Rng;
    use std::collections::HashSet;

    #[test]
    fn distinct_indices_are_distinct_and_in_range() {
        let mut rng = Rng::seed_from_u64(7);
        for n in [1usize, 2, 5, 17, 100] {
            for k in [0usize, 1, n / 2, n] {
                let picks = distinct_indices(&mut rng, n, k);
                assert_eq!(picks.len(), k);
                let set: HashSet<_> = picks.iter().copied().collect();
                assert_eq!(set.len(), k, "duplicates in {picks:?}");
                assert!(picks.iter().all(|&i| i < n));
            }
        }
    }

    #[test]
    #[should_panic(expected = "distinct indices")]
    fn distinct_indices_rejects_oversample() {
        let mut rng = Rng::seed_from_u64(1);
        let _ = distinct_indices(&mut rng, 3, 4);
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = Rng::seed_from_u64(3);
        let empty: [u8; 0] = [];
        assert!(choose(&mut rng, &empty).is_none());
        assert_eq!(choose(&mut rng, &[9]), Some(&9));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        shuffle(&mut rng, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn distinct_indices_cover_all_eventually() {
        // Sampling n-of-n must return every index.
        let mut rng = Rng::seed_from_u64(5);
        let picks = distinct_indices(&mut rng, 12, 12);
        let set: HashSet<_> = picks.into_iter().collect();
        assert_eq!(set.len(), 12);
    }

    /// Floyd's algorithm with the membership test as a scan of the output
    /// — the original O(k²) formulation, kept as the reference the O(1)
    /// membership test must reproduce draw for draw.
    fn floyd_by_scan(rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = rng.range_usize(0, j + 1);
            if out.contains(&t) {
                out.push(j);
            } else {
                out.push(t);
            }
        }
        out
    }

    #[test]
    fn distinct_indices_match_the_scanning_reference() {
        use super::sample::{distinct_indices_into, LINEAR_SCAN_MAX_K};
        let switch = LINEAR_SCAN_MAX_K;
        let mut scratch = Vec::new();
        for n in [1usize, 15, 280, 100_100] {
            for k in [0, 1, 5, 15, switch - 1, switch, switch + 1, n] {
                if k > n {
                    continue;
                }
                // One seed at 100 100: the reference's own scan is the
                // slow part there.
                let seeds: &[u64] = if n > 1_000 { &[42] } else { &[1, 42, 1009] };
                for &seed in seeds {
                    let mut reference = Rng::seed_from_u64(seed);
                    let expected = floyd_by_scan(&mut reference, n, k);
                    let mut rng = Rng::seed_from_u64(seed);
                    assert_eq!(distinct_indices(&mut rng, n, k), expected, "n={n} k={k}");
                    // Same draws, so the streams stay in step afterwards.
                    assert_eq!(rng.next_u64(), reference.next_u64());
                    // The buffer-reusing form agrees, whatever it held.
                    distinct_indices_into(&mut Rng::seed_from_u64(seed), n, k, &mut scratch);
                    assert_eq!(scratch, expected, "n={n} k={k} into");
                }
            }
        }
    }

    #[test]
    fn distinct_indices_stay_linear_at_scale() {
        // A million of 1 000 100, the shape of the 1M preset's client
        // placement: the output scan made ~5·10¹¹ compares here.
        let (n, k) = (1_000_100, 1_000_000);
        let start = std::time::Instant::now();
        let picks = distinct_indices(&mut Rng::seed_from_u64(3), n, k);
        let elapsed = start.elapsed();
        assert_eq!(picks.len(), k);
        let mut seen = vec![false; n];
        for &i in &picks {
            assert!(!std::mem::replace(&mut seen[i], true), "duplicate {i}");
        }
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "sampling took {elapsed:?}"
        );
    }
}

#[cfg(test)]
mod hash_tests {
    use super::hash::{FastHashMap, FastHashSet, FxHasher};
    use std::hash::{Hash, Hasher};

    #[test]
    fn hashing_is_deterministic_and_spreads() {
        let h = |v: u64| {
            let mut hasher = FxHasher::default();
            v.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(42), h(42), "same input, same hash");
        let distinct: std::collections::HashSet<u64> = (0..10_000).map(h).collect();
        assert_eq!(distinct.len(), 10_000, "no collisions on small ints");
    }

    #[test]
    fn fast_collections_behave_like_std() {
        let mut m: FastHashMap<(u32, u32), u64> = FastHashMap::default();
        m.insert((1, 2), 10);
        m.insert((1, 2), 20);
        assert_eq!(m.get(&(1, 2)), Some(&20));
        assert_eq!(m.len(), 1);
        let mut s: FastHashSet<u128> = FastHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }
}
