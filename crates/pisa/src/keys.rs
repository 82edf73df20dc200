//! Dense ids for the profiler's keys.
//!
//! Every reuse stream and the ILP memory table index flat arrays by id, so
//! each key is hashed once per access instead of once per analyzer. Ids
//! are handed out in first-touch order, so the number of ids equals the
//! number of distinct keys.

use napel_ir::fxhash::FxHashMap;

/// Ids for the 8-byte elements and 64-byte lines that memory accesses
/// touch. An element remembers its line's id, so a warm access costs one
/// hash probe for both granularities.
#[derive(Debug, Clone, Default)]
pub(crate) struct AddrIds {
    elems: FxHashMap<u64, u32>,
    lines: FxHashMap<u64, u32>,
    /// Line id of each element id.
    line_of: Vec<u32>,
}

impl AddrIds {
    /// The (element id, line id) of byte address `addr`.
    #[inline]
    pub(crate) fn ids(&mut self, addr: u64) -> (u32, u32) {
        let next = id_of(self.line_of.len());
        let elem = *self.elems.entry(addr >> 3).or_insert(next);
        if elem == next {
            let next_line = id_of(self.lines.len());
            self.line_of
                .push(*self.lines.entry(addr >> 6).or_insert(next_line));
        }
        (elem, self.line_of[elem as usize])
    }
}

/// Ids for `pc`s.
#[derive(Debug, Clone, Default)]
pub(crate) struct PcIds {
    map: FxHashMap<u32, u32>,
}

impl PcIds {
    /// The id of `pc`.
    #[inline]
    pub(crate) fn id(&mut self, pc: u32) -> u32 {
        let next = id_of(self.map.len());
        *self.map.entry(pc).or_insert(next)
    }
}

/// The next id after `n` others. Ids are `u32`: four billion distinct
/// keys would need far more memory than the tables hold.
#[inline]
fn id_of(n: usize) -> u32 {
    u32::try_from(n).expect("more than u32::MAX distinct profiler keys")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elements_share_their_line_id() {
        let mut ids = AddrIds::default();
        assert_eq!(ids.ids(0x100), (0, 0));
        assert_eq!(ids.ids(0x108), (1, 0));
        assert_eq!(ids.ids(0x140), (2, 1));
        assert_eq!(ids.ids(0x104), (0, 0), "same element, different byte");
        assert_eq!(ids.ids(u64::MAX - 7), (3, 2));
    }

    #[test]
    fn pcs_are_numbered_in_first_touch_order() {
        let mut ids = PcIds::default();
        let pcs = [7, u32::MAX - 1, 7, 0, 4096, u32::MAX - 1, 0];
        let got: Vec<u32> = pcs.iter().map(|&pc| ids.id(pc)).collect();
        assert_eq!(got, [0, 1, 0, 2, 3, 1, 2]);
    }
}
