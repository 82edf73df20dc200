//! The profiler's analyzers as first written: the oracle the fused
//! [`ProfileObserver`](crate::ProfileObserver) is tested against.
//!
//! Each analyzer here keys its own hash maps by raw address or `pc` and
//! sizes its stack-distance trees by stream length. The production
//! observer shares interned ids across analyzers, sizes its stacks by the
//! live set, keeps its ILP state in flat tables and reads the footprint off
//! the reuse streams' cold counts. [`profile`] assembles these analyzers
//! into an [`ApplicationProfile`] with the same layout, so the two can be
//! compared bit for bit.

mod footprint;
mod ilp;
mod reuse;
mod traffic;

pub use footprint::FootprintAnalyzer;
pub use ilp::IlpAnalyzer;
pub use reuse::{ReuseAnalyzer, StackDistance};
pub use traffic::{Granularity, TrafficAnalyzer, NUM_TRAFFIC_BUCKETS};

use napel_ir::MultiTrace;

use crate::mix::MixCounter;
use crate::profile::{ApplicationProfile, Parts};

/// Profiles `trace` with the reference analyzers, thread-major like
/// [`ApplicationProfile::of`].
pub fn profile(trace: &MultiTrace) -> ApplicationProfile {
    let mut mix = MixCounter::new();
    let mut ilp = IlpAnalyzer::new();
    let mut elem = TrafficAnalyzer::new(Granularity::Element);
    let mut line = TrafficAnalyzer::new(Granularity::Line64);
    let mut inst_reuse = ReuseAnalyzer::new();
    let mut footprint = FootprintAnalyzer::new();
    for thread in trace.iter() {
        for inst in thread.iter() {
            mix.observe(inst);
            ilp.observe(inst);
            elem.observe(inst);
            line.observe(inst);
            inst_reuse.access(u64::from(inst.pc));
            footprint.observe(inst);
        }
    }
    Parts {
        mix: &mix,
        ilp: ilp.ilp(),
        elem: [
            elem.read_histogram(),
            elem.write_histogram(),
            elem.combined_histogram(),
        ],
        line: [
            line.read_histogram(),
            line.write_histogram(),
            line.combined_histogram(),
        ],
        inst: inst_reuse.histogram(),
        footprint_bytes: [
            footprint.total_bytes(),
            footprint.read_bytes(),
            footprint.written_bytes(),
        ],
        static_insts: footprint.static_insts() as u64,
        threads: trace.num_threads(),
    }
    .assemble()
}
