//! Property tests for the profiler against reference implementations.

use proptest::prelude::*;

use napel_ir::{Emitter, Inst, MultiTrace, Opcode, ThreadedTraceSink, TraceSink, NO_ADDR, NO_REG};
use napel_pisa::reference::{self, StackDistance};
use napel_pisa::reuse::LruStack;
use napel_pisa::{feature_names, ApplicationProfile, ProfileObserver};

/// O(n²) reference stack distance.
fn naive_distance(keys: &[u64], i: usize) -> Option<u64> {
    let k = keys[i];
    let prev = keys[..i].iter().rposition(|&p| p == k)?;
    let mut set = std::collections::HashSet::new();
    for &mid in &keys[prev + 1..i] {
        set.insert(mid);
    }
    Some(set.len() as u64)
}

/// A register operand: absent, dense (as an emitter numbers them), sparse
/// around the point where the ILP analyzer's flat register table stops
/// growing (4096 + 2 per instruction), or just below `NO_REG`.
fn reg(bits: u64) -> u32 {
    let v = (bits >> 2) as u32;
    match bits & 3 {
        0 => NO_REG,
        1 => v % 48,
        2 => 4_000 + (v % 64) * 97,
        _ => u32::MAX - 1 - v % 8,
    }
}

/// A `pc`: small, mid-range, or just below `u32::MAX`.
fn pc(bits: u64) -> u32 {
    let v = (bits >> 2) as u32;
    match bits & 3 {
        0 => u32::MAX - 1 - v % 4,
        1 => 4090 + v % 12,
        _ => v % 24,
    }
}

/// An address: low memory, above 2^61, just below `NO_ADDR`, line-strided
/// above 2^62, or none. Byte offsets vary within the element.
fn addr(bits: u64) -> u64 {
    let k = (bits >> 8) % 160;
    let byte = bits & 7;
    match (bits >> 4) % 5 {
        0 => 0x1000 + 8 * k + byte,
        1 => (1 << 61) + 8 * k + byte,
        2 => u64::MAX - 8 - 8 * k - byte,
        3 => (1 << 62) + 64 * k,
        _ => NO_ADDR,
    }
}

/// A hand-built instruction from raw bits: any opcode (loads and stores
/// weighted up), with any operand, including ones no emitter produces
/// (addresses on compute ops, memory ops without one).
fn inst((op, a, b, c): (usize, u64, u64, u64)) -> Inst {
    let op = match op {
        0..=11 => Opcode::ALL[op],
        12 | 13 => Opcode::Load,
        _ => Opcode::Store,
    };
    Inst {
        pc: pc(a),
        op,
        size: (a >> 40) as u8,
        dst: reg(a >> 8),
        srcs: [reg(b), reg(b >> 32)],
        addr: addr(c),
    }
}

proptest! {
    #[test]
    fn stack_distance_matches_naive(keys in prop::collection::vec(0u64..30, 1..300)) {
        let mut s = StackDistance::new();
        for i in 0..keys.len() {
            prop_assert_eq!(s.access(keys[i]), naive_distance(&keys, i), "at access {}", i);
        }
        let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
        prop_assert_eq!(s.distinct(), distinct.len());
    }

    #[test]
    fn lru_stack_matches_naive(keys in prop::collection::vec(0u64..70, 1..600)) {
        let mut s = LruStack::new();
        for i in 0..keys.len() {
            prop_assert_eq!(s.access(keys[i] as u32), naive_distance(&keys, i), "at access {}", i);
        }
    }

    #[test]
    fn observer_matches_reference_on_hand_built_streams(
        insts in prop::collection::vec((0usize..16, any::<u64>(), any::<u64>(), any::<u64>()), 1..2500),
        threads in 1usize..5,
    ) {
        // Thread-major split of one stream; with ~40 distinct pcs and
        // ~640 elements, every reuse stack renumbers many times.
        let per_thread = insts.len().div_ceil(threads);
        let mut trace = MultiTrace::new(threads);
        for (i, &bits) in insts.iter().enumerate() {
            trace.thread_sink(i / per_thread).record(inst(bits));
        }
        let mut observer = ProfileObserver::new();
        observer.begin(threads);
        for (t, lane) in trace.iter().enumerate() {
            for i in lane.iter() {
                observer.record(t, *i);
            }
        }
        let fused = observer.finish();
        let oracle = reference::profile(&trace);
        for (name, (a, b)) in feature_names().iter().zip(fused.values().iter().zip(oracle.values())) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{}: {} vs {}", name, a, b);
        }
    }

    #[test]
    fn profile_features_are_finite_and_consistent(
        ops in prop::collection::vec((0u8..4, 0u64..512), 1..400),
        threads in 1usize..4,
    ) {
        // Build an arbitrary (but well-formed) trace from an op script.
        let mut trace = MultiTrace::new(threads);
        for t in 0..threads {
            let mut e = Emitter::new(trace.thread_sink(t));
            let mut last = e.imm(0);
            for &(kind, addr) in &ops {
                match kind {
                    0 => last = e.load(1, addr * 8, 8),
                    1 => e.store(2, addr * 8, 8, last),
                    2 => last = e.fadd(3, last, last),
                    _ => e.branch(4),
                }
            }
        }
        let p = ApplicationProfile::of(&trace);
        prop_assert_eq!(p.values().len(), napel_pisa::feature_names().len());
        for (name, v) in napel_pisa::feature_names().iter().zip(p.values()) {
            prop_assert!(v.is_finite(), "{} is {}", name, v);
        }
        // CDFs are monotone in the bucket index.
        for prefix in ["reuse.elem.all.cdf", "reuse.line64.all.cdf", "reuse.inst.cdf"] {
            let mut prev = -1.0;
            for b in 0..napel_pisa::NUM_REUSE_BUCKETS {
                let v = p.value(&format!("{prefix}.b{b}"));
                prop_assert!(v + 1e-12 >= prev, "{prefix} not monotone at b{b}");
                prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
                prev = v;
            }
        }
        // Traffic curves are monotone non-increasing.
        let mut prev = f64::INFINITY;
        for b in 0..napel_pisa::NUM_REUSE_BUCKETS {
            let v = p.value(&format!("traffic.line64.read.b{b}"));
            prop_assert!(v <= prev + 1e-12);
            prev = v;
        }
        prop_assert_eq!(p.value("threads"), threads as f64);
    }

    #[test]
    fn ilp_windows_are_monotone(
        ops in prop::collection::vec((0u8..3, 0u64..64), 1..300)
    ) {
        let mut trace = MultiTrace::new(1);
        let mut e = Emitter::new(trace.thread_sink(0));
        let mut last = e.imm(0);
        for &(kind, addr) in &ops {
            match kind {
                0 => last = e.load(1, addr * 8, 8),
                1 => last = e.fmul(2, last, last),
                _ => e.store(3, addr * 8, 8, last),
            }
        }
        drop(e);
        let p = ApplicationProfile::of(&trace);
        let ilps: Vec<f64> =
            ["w32", "w64", "w128", "w256", "inf"].iter().map(|w| p.value(&format!("ilp.{w}"))).collect();
        for pair in ilps.windows(2) {
            prop_assert!(pair[0] <= pair[1] + 1e-9, "larger window exposes no less ILP: {ilps:?}");
        }
        // ILP cannot exceed the instruction count and is at least... positive.
        prop_assert!(ilps[4] >= 1.0 - 1e-9, "unbounded ILP is at least 1");
    }
}
