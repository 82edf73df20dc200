//! Reuse-distance (LRU stack distance) analysis.
//!
//! Table 1 of the paper: "for a given distance δ, probability of reusing one
//! data element/instruction before accessing δ other unique data
//! elements/instructions". That is the classic *stack distance*: the number
//! of distinct elements touched since the previous access to the same
//! element. We compute it exactly in `O(log n)` per access with the
//! Bennett–Kruskal/Olken algorithm: a Fenwick tree over access timestamps
//! marks which timestamps are the *most recent* access of their element;
//! the stack distance of an access is the count of marked timestamps after
//! the element's previous access ([`LruStack`]).
//!
//! Distances are summarized in power-of-two buckets
//! ([`ReuseHistogram`]); cold (first-touch) accesses are tracked separately.

/// Number of power-of-two distance buckets (bucket `b` holds distances in
/// `(2^(b−1), 2^b]`, bucket 0 holds distance ≤ 1).
pub const NUM_BUCKETS: usize = 24;

/// Histogram of reuse distances in power-of-two buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseHistogram {
    buckets: [u64; NUM_BUCKETS],
    cold: u64,
    total: u64,
    sum_log2: u64,
}

impl ReuseHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        ReuseHistogram {
            buckets: [0; NUM_BUCKETS],
            cold: 0,
            total: 0,
            sum_log2: 0,
        }
    }

    /// Records one access with the given stack distance (`None` = cold).
    #[inline]
    pub fn record(&mut self, distance: Option<u64>) {
        self.total += 1;
        match distance {
            None => self.cold += 1,
            Some(d) => {
                let b = bucket_of(d);
                self.buckets[b] += 1;
                self.sum_log2 += b as u64;
            }
        }
    }

    /// Total accesses recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cold (first-touch) accesses.
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// Probability that an access reuses its element within distance
    /// `2^bucket` — the paper's per-δ reuse probability (cold accesses count
    /// as "not reused").
    pub fn cdf(&self, bucket: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hits: u64 = self.buckets[..=bucket.min(NUM_BUCKETS - 1)].iter().sum();
        hits as f64 / self.total as f64
    }

    /// Probability mass of exactly bucket `b`.
    pub fn pdf(&self, bucket: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.buckets[bucket.min(NUM_BUCKETS - 1)] as f64 / self.total as f64
    }

    /// Fraction of accesses that are cold.
    pub fn cold_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.cold as f64 / self.total as f64
        }
    }

    /// Mean log₂ reuse distance over warm accesses (0 if none).
    pub fn mean_log2(&self) -> f64 {
        let warm = self.total - self.cold;
        if warm == 0 {
            0.0
        } else {
            self.sum_log2 as f64 / warm as f64
        }
    }

    /// Smallest bucket whose CDF reaches `q` (e.g. 0.5 for the median
    /// log₂-distance), or `NUM_BUCKETS` if never reached (mostly cold).
    ///
    /// One running prefix sum — O(B), not O(B²) of recomputing `cdf(b)`
    /// from scratch per bucket — with bit-identical results: the running
    /// sum is the same exact `u64` sum `cdf` would divide by `total`.
    pub fn quantile_bucket(&self, q: f64) -> usize {
        if self.total == 0 {
            // `cdf` is identically 0.0 here; preserve its comparison.
            return if 0.0 >= q { 0 } else { NUM_BUCKETS };
        }
        let mut hits = 0u64;
        for b in 0..NUM_BUCKETS {
            hits += self.buckets[b];
            if hits as f64 / self.total as f64 >= q {
                return b;
            }
        }
        NUM_BUCKETS
    }

    /// Fraction of accesses that would miss an ideal fully-associative LRU
    /// cache of `2^bucket` entries: warm accesses beyond the bucket plus
    /// every cold access (0 for an empty histogram).
    pub fn miss_fraction(&self, bucket: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        1.0 - self.cdf(bucket)
    }
}

impl Default for ReuseHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a distance (`d = 0` or `1` → bucket 0).
#[inline]
fn bucket_of(d: u64) -> usize {
    if d <= 1 {
        0
    } else {
        (64 - (d - 1).leading_zeros() as usize).min(NUM_BUCKETS - 1)
    }
}

/// Exact LRU stack distances over dense ids, in memory proportional to
/// the number of distinct ids rather than the length of the stream.
///
/// Ids are small integers handed out in first-touch order (the profiler
/// interns element addresses, lines and `pc`s); any `u32` works, but the
/// tracker keeps one slot per id up to the largest seen.
///
/// It is the Bennett–Kruskal scheme of [`crate::reference::StackDistance`]
/// with three changes:
///
/// - **The clock is sized to the live set.** Each id's latest access holds
///   a mark at its timestamp. When the clock reaches the capacity (about
///   twice the number of marks), the marks are renumbered `1..=live` in
///   their existing order. That changes no count of marks between two
///   timestamps, hence no distance, and each renumbering is paid for by the
///   at least capacity/2 accesses before the next.
/// - **One query per access.** With `live` marks in total, the distance of
///   a re-access is `live − prefix(prev)`, the marks after `prev`.
/// - **Marks are a bitset.** A Fenwick tree counts the marks of each 64-bit
///   word, and a masked `popcount` finishes a prefix inside its word, so
///   the tree is 64× shorter than the clock. An immediate re-access of the
///   most recent id (distance 0) touches neither.
///
/// ```
/// use napel_pisa::reuse::LruStack;
///
/// let mut s = LruStack::new();
/// assert_eq!(s.access(0), None);      // cold
/// assert_eq!(s.access(1), None);      // cold
/// assert_eq!(s.access(0), Some(1));   // one distinct id in between
/// assert_eq!(s.access(0), Some(0));   // immediate reuse
/// ```
#[derive(Debug, Clone, Default)]
pub struct LruStack {
    /// Timestamp of each id's latest access; 0 = never accessed.
    last: Vec<u32>,
    /// The id that took each timestamp (timestamp 0 is never used).
    owner: Vec<u32>,
    /// Bit `t` is set iff timestamp `t` is its id's latest access.
    marks: Vec<u64>,
    /// 1-based Fenwick tree over the per-word mark counts of `marks`.
    tree: Vec<u32>,
    /// Latest timestamp handed out.
    clock: u32,
    /// Number of marks: distinct ids seen.
    live: u32,
}

impl LruStack {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct ids seen.
    pub fn distinct(&self) -> usize {
        self.live as usize
    }

    /// Records an access to `id`, returning its stack distance (`None` for
    /// first touch). Distance 0 means immediate re-access.
    #[inline]
    pub fn access(&mut self, id: u32) -> Option<u64> {
        let i = id as usize;
        if i >= self.last.len() {
            self.last.resize(i + 1, 0);
        }
        let prev = self.last[i];
        if prev == 0 {
            self.push(id);
            self.live += 1;
            return None;
        }
        if prev == self.clock {
            return Some(0);
        }
        let distance = self.live - self.prefix(prev as usize);
        self.flip(prev as usize, false);
        self.push(id);
        Some(u64::from(distance))
    }

    /// Gives `id` the next timestamp, renumbering first if the clock is full.
    #[inline]
    fn push(&mut self, id: u32) {
        if self.clock as usize + 1 >= self.owner.len() {
            self.renumber();
        }
        self.clock += 1;
        let t = self.clock as usize;
        self.last[id as usize] = self.clock;
        self.owner[t] = id;
        self.flip(t, true);
    }

    /// Sets (`on`) or clears the mark at timestamp `t`.
    #[inline]
    fn flip(&mut self, t: usize, on: bool) {
        let w = t >> 6;
        self.marks[w] ^= 1 << (t & 63);
        let mut i = w + 1;
        while i < self.tree.len() {
            if on {
                self.tree[i] += 1;
            } else {
                self.tree[i] -= 1;
            }
            i += i & i.wrapping_neg();
        }
    }

    /// Marks at timestamps `≤ t`.
    #[inline]
    fn prefix(&self, t: usize) -> u32 {
        let w = t >> 6;
        let mut sum = (self.marks[w] & (u64::MAX >> (63 - (t & 63)))).count_ones();
        let mut i = w;
        while i > 0 {
            sum += self.tree[i];
            i &= i - 1;
        }
        sum
    }

    /// Moves the marks onto timestamps `1..=m` in their existing order and
    /// sizes the clock to at least twice that.
    #[cold]
    fn renumber(&mut self) {
        // Each mark moves to a timestamp no later than its own, so one
        // forward pass compacts `owner` in place.
        let mut m = 0;
        for w in 0..self.marks.len() {
            let mut bits = self.marks[w];
            while bits != 0 {
                let old = w << 6 | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                m += 1;
                let id = self.owner[old];
                self.owner[m] = id;
                self.last[id as usize] = m as u32;
            }
        }
        let cap = (2 * (m + 1)).next_power_of_two().max(64);
        if cap > self.owner.len() {
            self.owner.resize(cap, 0);
        }
        let words = self.owner.len() / 64;
        self.marks.clear();
        self.marks.resize(words, 0);
        for t in 1..=m {
            self.marks[t >> 6] |= 1 << (t & 63);
        }
        // Linear Fenwick construction: word counts, then each node's sum
        // pushed once to its parent.
        self.tree.clear();
        self.tree.push(0);
        self.tree.extend(self.marks.iter().map(|w| w.count_ones()));
        for i in 1..=words {
            let parent = i + (i & i.wrapping_neg());
            if parent <= words {
                self.tree[parent] += self.tree[i];
            }
        }
        self.clock = m as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::StackDistance;

    /// Pseudo-random ids in `0..universe(i)` for access `i`.
    fn ids(n: usize, universe: impl Fn(usize) -> u64) -> Vec<u32> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) % universe(i)) as u32
            })
            .collect()
    }

    #[test]
    fn matches_the_reference_stack() {
        let mut scans = Vec::new();
        for rep in 0..50u32 {
            for k in 0..(10 + rep) {
                scans.extend([k, k, k]);
            }
        }
        for keys in [
            // 40 ids: the clock wraps every few dozen accesses.
            ids(5_000, |_| 40),
            // An ever-expanding universe mixes cold misses with reuse, so
            // the capacity doubles repeatedly between renumberings.
            ids(50_000, |i| i as u64 / 2 + 16),
            // Immediate re-accesses between growing scans.
            scans,
            // Sparse ids.
            vec![7, 1_000_000, 7, 3, 1_000_000, 7],
        ] {
            let mut fast = LruStack::new();
            let mut oracle = StackDistance::new();
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(
                    fast.access(k),
                    oracle.access(u64::from(k)),
                    "mismatch at access {i}"
                );
            }
            assert_eq!(fast.distinct(), oracle.distinct());
        }
    }

    #[test]
    fn renumbering_keeps_the_clock_near_the_live_set() {
        let mut s = LruStack::new();
        for i in 0..100_000u32 {
            s.access(i % 10);
        }
        assert_eq!(s.distinct(), 10);
        assert!(s.owner.len() <= 64, "clock grew to {}", s.owner.len());
    }

    #[test]
    fn histogram_buckets() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(5), 3);
        assert_eq!(bucket_of(1 << 22), 22);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn histogram_cdf_monotone_and_bounded() {
        let mut h = ReuseHistogram::new();
        for d in [0u64, 1, 1, 3, 9, 100, 5000] {
            h.record(Some(d));
        }
        h.record(None);
        h.record(None);
        let mut prev = 0.0;
        for b in 0..NUM_BUCKETS {
            let c = h.cdf(b);
            assert!(c >= prev && c <= 1.0);
            prev = c;
        }
        // Cold accesses keep the CDF below 1.
        assert!((h.cdf(NUM_BUCKETS - 1) - 7.0 / 9.0).abs() < 1e-12);
        assert!((h.cold_fraction() - 2.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_bucket_finds_median() {
        let mut h = ReuseHistogram::new();
        for _ in 0..10 {
            h.record(Some(1)); // bucket 0
        }
        for _ in 0..10 {
            h.record(Some(1000)); // bucket 10
        }
        assert_eq!(h.quantile_bucket(0.5), 0);
        assert_eq!(h.quantile_bucket(0.9), 10);
        assert_eq!(h.quantile_bucket(1.1), NUM_BUCKETS);
    }
}
