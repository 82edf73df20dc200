//! Instruction-level parallelism on an ideal machine.
//!
//! Table 1 of the paper lists "ILP — instruction-level parallelism on an
//! ideal machine" as a profile feature. The ideal machine executes every
//! instruction in one cycle, limited only by true dependences (through
//! registers and through memory) and, optionally, a finite scheduling
//! window: instruction *i* may not start before instruction *i − w* has
//! finished. ILP is then `N / schedule_length`. PISA reports ILP for several
//! window sizes; [`IlpAnalyzer::WINDOWS`] mirrors that.
//!
//! All window sizes are tracked in one pass with a single dependence map
//! whose values are per-window depth vectors — this code runs for every
//! dynamic instruction, so map operations are minimized and Fx-hashed.

use napel_ir::fxhash::FxHashMap;
use napel_ir::Inst;

/// Number of analyzed windows.
const NUM_WINDOWS: usize = 5;

/// Streaming ILP analyzer over a dynamic instruction stream.
#[derive(Debug, Clone, Default)]
pub struct IlpAnalyzer {
    /// Completion depth of the latest write to each register, per window.
    reg_depth: FxHashMap<u32, [u64; NUM_WINDOWS]>,
    /// Completion depth of the latest store to each 8-byte element.
    mem_depth: FxHashMap<u64, [u64; NUM_WINDOWS]>,
    /// Ring buffers of the completion times of the last `w` instructions,
    /// one per finite window.
    rings: Vec<Vec<u64>>,
    ring_pos: [usize; NUM_WINDOWS],
    critical_path: [u64; NUM_WINDOWS],
    total: u64,
}

impl IlpAnalyzer {
    /// Scheduling-window sizes analyzed, smallest to largest; `None` is the
    /// unbounded ideal machine.
    pub const WINDOWS: [Option<usize>; NUM_WINDOWS] =
        [Some(32), Some(64), Some(128), Some(256), None];

    /// Creates a fresh analyzer.
    pub fn new() -> Self {
        IlpAnalyzer {
            reg_depth: FxHashMap::default(),
            mem_depth: FxHashMap::default(),
            rings: Self::WINDOWS
                .iter()
                .map(|w| vec![0u64; w.unwrap_or(0)])
                .collect(),
            ring_pos: [0; NUM_WINDOWS],
            critical_path: [0; NUM_WINDOWS],
            total: 0,
        }
    }

    /// Observes one instruction.
    #[inline]
    pub fn observe(&mut self, inst: &Inst) {
        self.total += 1;
        let mut ready = [0u64; NUM_WINDOWS];
        for r in inst.src_regs() {
            if let Some(d) = self.reg_depth.get(&r.0) {
                for w in 0..NUM_WINDOWS {
                    ready[w] = ready[w].max(d[w]);
                }
            }
        }
        if inst.op == napel_ir::Opcode::Load {
            if let Some(addr) = inst.mem_addr() {
                if let Some(d) = self.mem_depth.get(&(addr >> 3)) {
                    for w in 0..NUM_WINDOWS {
                        ready[w] = ready[w].max(d[w]); // RAW through memory
                    }
                }
            }
        }
        // Finite windows: cannot start before the instruction `w` back has
        // completed.
        let mut done = [0u64; NUM_WINDOWS];
        for w in 0..NUM_WINDOWS {
            let floor = if self.rings[w].is_empty() {
                0
            } else {
                self.rings[w][self.ring_pos[w]]
            };
            done[w] = ready[w].max(floor) + 1;
            if !self.rings[w].is_empty() {
                let pos = self.ring_pos[w];
                self.rings[w][pos] = done[w];
                self.ring_pos[w] = (pos + 1) % self.rings[w].len();
            }
            self.critical_path[w] = self.critical_path[w].max(done[w]);
        }
        if let Some(dst) = inst.dst_reg() {
            self.reg_depth.insert(dst.0, done);
        }
        if inst.op == napel_ir::Opcode::Store {
            if let Some(addr) = inst.mem_addr() {
                self.mem_depth.insert(addr >> 3, done);
            }
        }
    }

    /// ILP for each window in [`IlpAnalyzer::WINDOWS`] order. Returns zeros
    /// for an empty stream.
    pub fn ilp(&self) -> Vec<f64> {
        self.critical_path
            .iter()
            .map(|&cp| {
                if cp == 0 {
                    0.0
                } else {
                    self.total as f64 / cp as f64
                }
            })
            .collect()
    }

    /// Instructions observed.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use napel_ir::{Emitter, Trace};

    fn analyze(build: impl FnOnce(&mut Emitter<&mut Trace>)) -> IlpAnalyzer {
        let mut t = Trace::new();
        let mut e = Emitter::new(&mut t);
        build(&mut e);
        drop(e);
        let mut a = IlpAnalyzer::new();
        for i in t.iter() {
            a.observe(i);
        }
        a
    }

    #[test]
    fn independent_chain_has_high_ilp() {
        // 1000 independent loads: every window executes them fully parallel
        // (bounded by window size).
        let a = analyze(|e| {
            for i in 0..1000u64 {
                e.load(0, 8 * i, 8);
            }
        });
        let ilp = a.ilp();
        // Unbounded window: all in one cycle.
        assert!((ilp[4] - 1000.0).abs() < 1e-9, "{ilp:?}");
        // Window of 32: ~32 per cycle.
        assert!(ilp[0] > 25.0 && ilp[0] <= 32.0, "{ilp:?}");
        // Larger windows expose more parallelism.
        assert!(ilp[0] <= ilp[1] && ilp[1] <= ilp[2] && ilp[2] <= ilp[3] && ilp[3] <= ilp[4]);
    }

    #[test]
    fn dependent_chain_has_ilp_one() {
        let a = analyze(|e| {
            let mut acc = e.imm(0);
            for _ in 0..99 {
                acc = e.fadd(1, acc, acc);
            }
        });
        let ilp = a.ilp();
        for v in ilp {
            assert!(
                (v - 1.0).abs() < 1e-9,
                "serial chain must have ILP 1, got {v}"
            );
        }
    }

    #[test]
    fn memory_raw_dependence_serializes() {
        // store to X then load from X then store then load...: RAW chain.
        let a = analyze(|e| {
            let mut v = e.imm(0);
            for _ in 0..50 {
                e.store(1, 0x100, 8, v);
                v = e.load(2, 0x100, 8);
            }
        });
        let ilp = a.ilp();
        assert!(
            ilp[4] < 1.5,
            "memory RAW chain should serialize, got {}",
            ilp[4]
        );
    }

    #[test]
    fn disjoint_addresses_do_not_serialize() {
        let a = analyze(|e| {
            for i in 0..50u64 {
                let v = e.imm(0);
                e.store(1, 0x100 + 64 * i, 8, v);
            }
        });
        assert!(a.ilp()[4] > 40.0);
    }

    #[test]
    fn empty_stream_reports_zero() {
        let a = IlpAnalyzer::new();
        assert_eq!(a.ilp(), vec![0.0; 5]);
        assert_eq!(a.total(), 0);
    }
}
