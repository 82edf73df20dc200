//! Acceptance tests for the streaming trace pipeline.
//!
//! The contract under test (DESIGN.md §Streaming pipeline):
//!
//! 1. **Profiling equivalence** — for every Table 2 workload, streaming
//!    the kernel straight into a [`ProfileObserver`] yields an
//!    [`ApplicationProfile`] whose feature vector is *bit-identical*
//!    (`f64::to_bits`) to profiling the materialized trace, and to the
//!    `pisa::reference` analyzers' profile of it.
//! 2. **Simulation equivalence** — simulating from compact-encoded
//!    per-thread instruction streams ([`NmcSystem::run_streams`]) yields
//!    a [`SimReport`] equal field for field to simulating the
//!    materialized trace.
//! 3. **Campaign equivalence** — a full campaign over the streaming
//!    single-pass path produces the same labeled rows under the Serial
//!    and the Threaded executor, and under both trace-residency policies.
//! 4. **Residency** — the compact encoding stays at or under 8 bytes per
//!    instruction, at least 4× below the 32-byte materialized form.

use napel::core::campaign::{
    plan_jobs, ProfileCache, ResidentTrace, Serial, Threaded, TracePolicy,
};
use napel::core::collect::{collect_with, CollectionPlan};
use napel::ir::{EncodedTrace, EncodedTraceSink, MultiTrace, TeeSink};
use napel::pisa::{ApplicationProfile, ProfileObserver};
use napel::sim::{ArchConfig, NmcSystem};
use napel::workloads::{Scale, Workload};

/// Each workload's test-input trace at test scale, materialized once.
fn test_trace(w: Workload) -> MultiTrace {
    w.generate_test(Scale::tiny())
}

#[test]
fn streaming_profile_is_bit_identical_for_every_workload() {
    for w in Workload::ALL {
        let trace = test_trace(w);
        let of = ApplicationProfile::of(&trace);

        let mut observer = ProfileObserver::new();
        let params: Vec<f64> = w.spec().params.iter().map(|p| p.test).collect();
        w.generate_into(&params, Scale::tiny(), &mut observer);
        let streamed = observer.finish();

        assert_eq!(of.values().len(), streamed.values().len(), "{w}");
        for (name, (a, b)) in napel::pisa::feature_names()
            .iter()
            .zip(of.values().iter().zip(streamed.values()))
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{w}: feature `{name}` differs ({a} vs {b})"
            );
        }
    }
}

#[test]
fn fused_profile_equals_the_reference_analyzers_for_every_workload() {
    // The one-pass observer (interned keys, live-set-sized stacks, flat
    // ILP state, footprint from cold counts) against the analyzers as
    // first written.
    for w in Workload::ALL {
        let trace = test_trace(w);
        let mut observer = ProfileObserver::new();
        let params: Vec<f64> = w.spec().params.iter().map(|p| p.test).collect();
        w.generate_into(&params, Scale::tiny(), &mut observer);
        let fused = observer.finish();
        let oracle = napel::pisa::reference::profile(&trace);
        for (name, (a, b)) in napel::pisa::feature_names()
            .iter()
            .zip(fused.values().iter().zip(oracle.values()))
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{w}: feature `{name}` differs ({a} vs {b})"
            );
        }
    }
}

#[test]
fn streamed_simulation_is_field_identical_for_every_workload() {
    let arch = ArchConfig::paper_default();
    for w in Workload::ALL {
        let trace = test_trace(w);
        let enc = EncodedTrace::from_multi(&trace);
        let sys = NmcSystem::new(arch.clone());
        let materialized = sys.run(&trace);
        let streamed = sys.run_streams(
            (0..enc.num_threads())
                .map(|t| enc.thread_iter(t))
                .collect::<Vec<_>>(),
        );
        // `SimReport: PartialEq` compares every field (cycles, caches,
        // DRAM, energy, active PEs, vault traffic).
        assert_eq!(streamed, materialized, "{w}");
    }
}

#[test]
fn single_pass_tee_matches_two_pass_for_every_workload() {
    // The campaign's fused pass: one kernel execution feeding the
    // profiler and the encoder at once must reproduce both the two-pass
    // profile and the materialized trace exactly.
    for w in Workload::ALL {
        let trace = test_trace(w);
        let params: Vec<f64> = w.spec().params.iter().map(|p| p.test).collect();

        let mut observer = ProfileObserver::new();
        let mut enc = EncodedTraceSink::new();
        {
            let mut tee = TeeSink::new(&mut observer, &mut enc);
            w.generate_into(&params, Scale::tiny(), &mut tee);
        }
        let enc = enc.finish();
        let profile = observer.finish();

        assert_eq!(enc.decode(), trace, "{w}: encoded trace must round-trip");
        let of = ApplicationProfile::of(&trace);
        for (a, b) in of.values().iter().zip(profile.values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{w}");
        }
    }
}

#[test]
fn encoded_traces_stay_within_the_residency_budget() {
    for w in Workload::ALL {
        let trace = test_trace(w);
        let enc = EncodedTrace::from_multi(&trace);
        let per_inst = enc.encoded_bytes() as f64 / enc.total_insts().max(1) as f64;
        assert!(
            per_inst <= 8.0,
            "{w}: {per_inst:.2} encoded bytes/inst exceeds the 8-byte target"
        );
        assert!(
            enc.encoded_bytes() * 4 <= enc.materialized_bytes(),
            "{w}: {} encoded vs {} materialized bytes is under 4x",
            enc.encoded_bytes(),
            enc.materialized_bytes()
        );
    }
}

#[test]
fn campaign_rows_are_identical_across_executors_and_policies() {
    // Two workloads × the default architecture neighborhood, through the
    // real campaign entry point. Rows (features AND labels) must be
    // bit-identical across executor and trace-residency choices; floats
    // are compared via `LabeledRun: PartialEq` (exact equality).
    let plan = CollectionPlan {
        workloads: vec![Workload::Atax, Workload::Gesu],
        scale: Scale::tiny(),
        ..Default::default()
    };
    let serial = collect_with(&plan, &Serial);
    let threaded = collect_with(&plan, &Threaded::new(4));
    assert_eq!(serial.feature_names, threaded.feature_names);
    assert_eq!(
        serial.runs, threaded.runs,
        "threaded streaming campaign must match serial"
    );

    // Policy sweep via the cache: the rows a job produces do not depend
    // on how its trace stays resident.
    let jobs = plan_jobs(&plan);
    for policy in [TracePolicy::Encoded, TracePolicy::Regenerate] {
        let cache = ProfileCache::with_policy(&jobs, policy);
        for (job, expected) in jobs.iter().zip(&serial.runs) {
            let point = cache.profiled(job);
            let sys = NmcSystem::new(job.arch.clone());
            let report = match &point.trace {
                ResidentTrace::Encoded(enc) => sys.run_streams(
                    (0..enc.num_threads())
                        .map(|t| enc.thread_iter(t))
                        .collect::<Vec<_>>(),
                ),
                ResidentTrace::Regenerate => {
                    sys.run(&job.workload.generate(&job.coords, job.scale))
                }
            };
            let run = napel::core::features::LabeledRun::from_report_checked(
                job.workload,
                job.coords.clone(),
                &point.profile,
                &job.arch,
                &report,
            )
            .expect("schema");
            assert_eq!(&run, expected, "{policy:?} {}", job.describe());
        }
    }
}
