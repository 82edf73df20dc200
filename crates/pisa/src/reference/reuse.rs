//! Hash-keyed LRU stack distance, as first written.
//!
//! Table 1 of the paper: "for a given distance δ, probability of reusing one
//! data element/instruction before accessing δ other unique data
//! elements/instructions". That is the classic *stack distance*: the number
//! of distinct elements touched since the previous access to the same
//! element. We compute it exactly in `O(log n)` per access with the
//! Bennett–Kruskal/Olken algorithm: a Fenwick tree over access timestamps
//! marks which timestamps are the *most recent* access of their element;
//! the stack distance of an access is the count of marked timestamps after
//! the element's previous access.
//!
//! The tree here spans every timestamp of the stream, and each stream
//! keeps its own key → timestamp map; [`crate::reuse::LruStack`] is the
//! live-set-sized production form.

use napel_ir::fxhash::FxHashMap;

use crate::reuse::ReuseHistogram;

/// Exact LRU stack-distance tracker over an arbitrary key space.
///
/// # Example
///
/// ```
/// use napel_pisa::reference::StackDistance;
///
/// let mut s = StackDistance::new();
/// assert_eq!(s.access(10), None);      // cold
/// assert_eq!(s.access(20), None);      // cold
/// assert_eq!(s.access(10), Some(1));   // one distinct element in between
/// assert_eq!(s.access(10), Some(0));   // immediate reuse
/// ```
#[derive(Debug, Clone, Default)]
pub struct StackDistance {
    /// Fenwick tree over timestamps; `tree[t] = 1` iff timestamp `t` is the
    /// most recent access of its element.
    tree: Vec<u32>,
    /// Last access timestamp (1-based) of each element.
    last: FxHashMap<u64, usize>,
    /// Next timestamp to assign (1-based).
    clock: usize,
}

impl StackDistance {
    /// Creates a tracker that grows as accesses arrive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tracker pre-sized for `n` accesses (avoids regrowth).
    pub fn with_capacity(n: usize) -> Self {
        StackDistance {
            tree: vec![0; n + 1],
            last: FxHashMap::default(),
            clock: 0,
        }
    }

    /// Number of distinct elements seen.
    pub fn distinct(&self) -> usize {
        self.last.len()
    }

    /// Records an access to `key`, returning its stack distance (`None` for
    /// first touch). Distance 0 means immediate re-access.
    pub fn access(&mut self, key: u64) -> Option<u64> {
        self.clock += 1;
        let t = self.clock;
        if t >= self.tree.len() {
            self.grow(t);
        }
        let dist = match self.last.insert(key, t) {
            None => None,
            Some(prev) => {
                // Distinct elements touched strictly after prev, before t.
                let count = self.prefix(t - 1) - self.prefix(prev);
                self.update(prev, -1);
                Some(count as u64)
            }
        };
        self.update(t, 1);
        dist
    }

    fn grow(&mut self, need: usize) {
        // At least double (a large `with_capacity` keeps paying off after
        // the first regrowth instead of snapping back to `need`-sized).
        let new_len = (need + 1)
            .next_power_of_two()
            .max(self.tree.len().saturating_mul(2))
            .max(1024);
        // Rebuild the Fenwick from the surviving marks in `last` with the
        // linear construction: scatter the point values, then push each
        // node's partial sum to its parent once — O(m + n), not one
        // O(log n) `update` per mark.
        self.tree = vec![0; new_len];
        for &t in self.last.values() {
            self.tree[t] += 1;
        }
        for i in 1..new_len {
            let parent = i + (i & i.wrapping_neg());
            if parent < new_len {
                self.tree[parent] += self.tree[i];
            }
        }
    }

    #[inline]
    fn update(&mut self, mut i: usize, delta: i32) {
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    #[inline]
    fn prefix(&self, mut i: usize) -> u32 {
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// Convenience: a stack-distance tracker feeding a histogram.
#[derive(Debug, Clone, Default)]
pub struct ReuseAnalyzer {
    stack: StackDistance,
    histogram: ReuseHistogram,
}

impl ReuseAnalyzer {
    /// Creates an analyzer that grows as needed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an analyzer pre-sized for `n` accesses.
    pub fn with_capacity(n: usize) -> Self {
        ReuseAnalyzer {
            stack: StackDistance::with_capacity(n),
            histogram: ReuseHistogram::new(),
        }
    }

    /// Records an access to `key`.
    #[inline]
    pub fn access(&mut self, key: u64) {
        let d = self.stack.access(key);
        self.histogram.record(d);
    }

    /// The accumulated histogram.
    pub fn histogram(&self) -> &ReuseHistogram {
        &self.histogram
    }

    /// Number of distinct keys observed (the footprint in elements).
    pub fn distinct(&self) -> usize {
        self.stack.distinct()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(n²) reference implementation: distinct elements since last access.
    fn naive_distances(keys: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::with_capacity(keys.len());
        for (i, &k) in keys.iter().enumerate() {
            let prev = keys[..i].iter().rposition(|&p| p == k);
            out.push(prev.map(|p| {
                let mut set = std::collections::HashSet::new();
                for &mid in &keys[p + 1..i] {
                    set.insert(mid);
                }
                set.len() as u64
            }));
        }
        out
    }

    #[test]
    fn matches_naive_on_random_stream() {
        // Deterministic pseudo-random keys.
        let mut x = 12345u64;
        let keys: Vec<u64> = (0..500)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % 40
            })
            .collect();
        let expected = naive_distances(&keys);
        let mut s = StackDistance::new();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(s.access(k), expected[i], "mismatch at access {i}");
        }
    }

    #[test]
    fn sequential_scan_is_all_cold() {
        let mut s = StackDistance::new();
        for k in 0..100 {
            assert_eq!(s.access(k), None);
        }
        assert_eq!(s.distinct(), 100);
    }

    #[test]
    fn repeated_scan_distance_equals_working_set() {
        let mut s = StackDistance::new();
        for k in 0..10 {
            s.access(k);
        }
        for k in 0..10 {
            assert_eq!(s.access(k), Some(9), "cyclic scan reuse distance");
        }
    }

    #[test]
    fn growth_preserves_correctness() {
        // Start tiny and force several regrowths.
        let mut s = StackDistance::with_capacity(2);
        let keys: Vec<u64> = (0..3000).map(|i| i % 7).collect();
        let expected = naive_distances(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(s.access(k), expected[i], "mismatch at access {i}");
        }
    }

    #[test]
    fn regrowth_on_long_stream_matches_preallocated() {
        // A long pseudo-random stream with an ever-expanding key universe:
        // the zero-capacity tracker regrows several times while thousands
        // of live marks survive each rebuild, and must agree with a
        // tracker that never regrows, on every single access.
        const N: u64 = 50_000;
        let mut grown = StackDistance::with_capacity(0);
        let mut fixed = StackDistance::with_capacity(N as usize + 1);
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..N {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mix cold misses (growing universe) with reuse of hot keys.
            let k = (x >> 33) % (i / 2 + 16);
            assert_eq!(grown.access(k), fixed.access(k), "mismatch at access {i}");
        }
        assert_eq!(grown.distinct(), fixed.distinct());
    }

    #[test]
    fn analyzer_combines_stack_and_histogram() {
        let mut a = ReuseAnalyzer::new();
        for _ in 0..3 {
            for k in 0..4 {
                a.access(k);
            }
        }
        assert_eq!(a.distinct(), 4);
        assert_eq!(a.histogram().total(), 12);
        assert_eq!(a.histogram().cold(), 4);
        // Warm accesses all have distance 3 -> bucket 2.
        assert!((a.histogram().pdf(2) - 8.0 / 12.0).abs() < 1e-12);
    }
}
