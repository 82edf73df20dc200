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
//! All window sizes are tracked in one pass, and every table is flat: the
//! latest definition of each register sits in a table indexed by register
//! id, the latest store to each element in a table indexed by the
//! profiler's dense element id, and the finite windows are fixed
//! power-of-two rings. [`crate::reference::IlpAnalyzer`] is the same
//! machine over hash maps.

use napel_ir::fxhash::FxHashMap;
use napel_ir::{Inst, Opcode, NO_REG};

/// Number of analyzed windows.
const NUM_WINDOWS: usize = 5;

/// Completion depth of one value under each window.
type Depths = [u64; NUM_WINDOWS];

/// Lengths of the finite windows' rings, which share one array.
const RING_LENS: [usize; NUM_WINDOWS - 1] = [32, 64, 128, 256];
/// Offset of each ring in that array.
const RING_BASE: [usize; NUM_WINDOWS - 1] = [0, 32, 96, 224];
const RING_SLOTS: usize = RING_BASE[3] + RING_LENS[3];

/// Register ids up to `2 × instructions + REG_SLACK` go in the flat table:
/// an emitter numbers registers densely from 0, so the table stays
/// proportional to the stream however large a hand-built id is.
const REG_SLACK: u64 = 4096;

/// Streaming ILP analyzer over a dynamic instruction stream.
#[derive(Debug, Clone)]
pub struct IlpAnalyzer {
    /// Completion depths of the latest write to each register.
    regs: RegDepths,
    /// Completion depths of the latest store to each element, by element id.
    mem: Vec<Depths>,
    /// Completion times of the last `w` instructions, per finite window.
    rings: Box<[u64; RING_SLOTS]>,
    critical_path: Depths,
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
            regs: RegDepths::default(),
            mem: Vec::new(),
            rings: Box::new([0; RING_SLOTS]),
            critical_path: [0; NUM_WINDOWS],
            total: 0,
        }
    }

    /// Observes one instruction. `elem` is the dense id of the 8-byte
    /// element a load or store with an address touches (`None` otherwise);
    /// stores define it and loads depend on it.
    #[inline]
    pub fn observe(&mut self, inst: &Inst, elem: Option<u32>) {
        let mut ready = [0u64; NUM_WINDOWS];
        let mut depend = |d: &Depths| {
            for w in 0..NUM_WINDOWS {
                ready[w] = ready[w].max(d[w]);
            }
        };
        for &r in &inst.srcs {
            if r != NO_REG {
                if let Some(d) = self.regs.get(r) {
                    depend(d);
                }
            }
        }
        if inst.op == Opcode::Load {
            if let Some(d) = elem.and_then(|e| self.mem.get(e as usize)) {
                depend(d); // RAW through memory
            }
        }
        // Finite windows: cannot start before the instruction `w` back has
        // completed.
        let mut done = [0u64; NUM_WINDOWS];
        let slot = self.total as usize;
        for w in 0..NUM_WINDOWS - 1 {
            let i = RING_BASE[w] + (slot & (RING_LENS[w] - 1));
            done[w] = ready[w].max(self.rings[i]) + 1;
            self.rings[i] = done[w];
        }
        done[NUM_WINDOWS - 1] = ready[NUM_WINDOWS - 1] + 1;
        for (cp, d) in self.critical_path.iter_mut().zip(done) {
            *cp = (*cp).max(d);
        }
        self.total += 1;
        if inst.dst != NO_REG {
            self.regs.set(inst.dst, done, 2 * self.total + REG_SLACK);
        }
        if inst.op == Opcode::Store {
            if let Some(e) = elem {
                let e = e as usize;
                if e >= self.mem.len() {
                    self.mem.resize(e + 1, [0; NUM_WINDOWS]);
                }
                self.mem[e] = done;
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

impl Default for IlpAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

/// Latest-definition depths by register id. Invariant: ids below
/// `dense.len()` live in `dense` (all-zero = never defined, which no
/// definition produces), ids at or above it in `sparse`.
#[derive(Debug, Clone, Default)]
struct RegDepths {
    dense: Vec<Depths>,
    sparse: FxHashMap<u32, Depths>,
}

impl RegDepths {
    #[inline]
    fn get(&self, r: u32) -> Option<&Depths> {
        match self.dense.get(r as usize) {
            Some(d) => Some(d),
            None if self.sparse.is_empty() => None,
            None => self.sparse.get(&r),
        }
    }

    /// Records `r`'s depths, growing the flat table to cover `r` if `r`
    /// is below `limit`.
    #[inline]
    fn set(&mut self, r: u32, d: Depths, limit: u64) {
        let i = r as usize;
        if i >= self.dense.len() {
            if u64::from(r) >= limit {
                self.sparse.insert(r, d);
                return;
            }
            self.grow(i + 1);
        }
        self.dense[i] = d;
    }

    #[cold]
    fn grow(&mut self, need: usize) {
        let len = need.max(2 * self.dense.len());
        self.dense.resize(len, [0; NUM_WINDOWS]);
        let dense = &mut self.dense;
        self.sparse.retain(|&r, d| match dense.get_mut(r as usize) {
            Some(slot) => {
                *slot = *d;
                false
            }
            None => true,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huge_register_ids_stay_out_of_the_flat_table() {
        let mut a = IlpAnalyzer::new();
        let mut prev = NO_REG;
        for r in [u32::MAX - 1, 5, 1 << 30, 6] {
            a.observe(&Inst::compute(0, Opcode::IntAlu, r, [prev, NO_REG]), None);
            prev = r;
        }
        assert!(a.regs.dense.len() < 1 << 16, "{}", a.regs.dense.len());
        assert_eq!(a.ilp()[4], 1.0, "a serial chain through sparse ids");
    }

    #[test]
    fn growth_moves_sparse_ids_into_the_flat_table() {
        let mut rd = RegDepths::default();
        rd.set(9000, [7; NUM_WINDOWS], 0);
        assert!(rd.sparse.contains_key(&9000));
        rd.set(9500, [1; NUM_WINDOWS], 10_000);
        assert!(rd.sparse.is_empty());
        assert_eq!(rd.get(9000), Some(&[7; NUM_WINDOWS]));
    }

    #[test]
    fn empty_stream_reports_zero() {
        let a = IlpAnalyzer::new();
        assert_eq!(a.ilp(), vec![0.0; 5]);
        assert_eq!(a.total(), 0);
    }
}
