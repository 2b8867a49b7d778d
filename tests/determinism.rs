//! Reproducibility guarantees: the whole experiment stack is deterministic.

use greenness_core::{experiment, pipeline::PipelineKind, ExperimentSetup, PipelineConfig};
use greenness_power::WattsupMeter;

#[test]
fn identical_runs_produce_identical_reports() {
    let cfg = PipelineConfig::small(1);
    let setup = ExperimentSetup::default(); // noisy meter, fixed seed
    let a = experiment::run(PipelineKind::PostProcessing, &cfg, &setup).expect("run ok");
    let b = experiment::run(PipelineKind::PostProcessing, &cfg, &setup).expect("run ok");
    assert_eq!(a.metrics.execution_time_s, b.metrics.execution_time_s);
    assert_eq!(a.metrics.energy_j, b.metrics.energy_j);
    assert_eq!(a.profile.samples, b.profile.samples);
    assert_eq!(a.timeline.len(), b.timeline.len());
}

#[test]
fn meter_seed_changes_profile_but_not_truth() {
    let cfg = PipelineConfig::small(1);
    let s1 = ExperimentSetup::default();
    let s2 = ExperimentSetup {
        meter: WattsupMeter {
            seed: 77,
            ..WattsupMeter::default()
        },
        ..ExperimentSetup::default()
    };
    let a = experiment::run(PipelineKind::InSitu, &cfg, &s1).expect("run ok");
    let b = experiment::run(PipelineKind::InSitu, &cfg, &s2).expect("run ok");
    // The underlying physics is identical...
    assert_eq!(a.metrics.energy_j, b.metrics.energy_j);
    assert_eq!(a.metrics.execution_time_s, b.metrics.execution_time_s);
    // ...but the instrument's accuracy noise differs.
    assert_ne!(a.profile.samples, b.profile.samples);
}

#[test]
fn noiseless_profile_integrates_to_timeline_energy() {
    let cfg = PipelineConfig::small(2);
    let r = experiment::run(
        PipelineKind::PostProcessing,
        &cfg,
        &ExperimentSetup::noiseless(),
    )
    .expect("run ok");
    // Integer-watt rounding plus the dropped partial final interval bound
    // the integration error.
    let covered = r.profile.len() as f64 * r.profile.period_s;
    let truth = r.timeline.energy_between(
        greenness_platform::SimTime::ZERO,
        greenness_platform::SimTime::from_secs_f64(covered),
    );
    assert!((r.profile.energy_j() - truth.system_j()).abs() <= 0.5 * r.profile.len() as f64 + 1e-6);
}

#[test]
fn all_pipelines_are_deterministic() {
    let cfg = PipelineConfig::small(2);
    let setup = ExperimentSetup::noiseless();
    for kind in [
        PipelineKind::PostProcessing,
        PipelineKind::InSitu,
        PipelineKind::InTransit,
    ] {
        let a = experiment::run(kind, &cfg, &setup).expect("run ok");
        let b = experiment::run(kind, &cfg, &setup).expect("run ok");
        assert_eq!(a.metrics.energy_j, b.metrics.energy_j, "{kind:?}");
        assert_eq!(a.output.bytes_written, b.output.bytes_written, "{kind:?}");
    }
}

/// The cluster sweep's emitted artifacts — manifest, journal, metrics —
/// are byte-identical for any worker count and for repeated runs of the
/// same fault seed: per-job fault schedules derive from job *keys*, never
/// from worker identity or completion order.
#[test]
fn cluster_sweep_artifacts_are_byte_identical_across_workers_and_reruns() {
    use greenness_core::{cluster_sweep, grid, sweep};
    use greenness_faults::FaultPlan;
    let setup = cluster_sweep::ClusterSetup {
        faults: Some(FaultPlan::with_seed(5)),
        trace: true,
        ..cluster_sweep::ClusterSetup::default()
    };
    let run = |workers: usize| {
        let results = cluster_sweep::run_cluster_sweep(
            cluster_sweep::cluster_jobs(None),
            &setup,
            workers,
            &sweep::silent_progress(),
        )
        .expect("cluster sweep runs");
        (
            cluster_sweep::cluster_manifest_json(&setup, &results),
            grid::journal(&results).expect("traced sweep has a journal"),
            grid::metrics_json(&results).expect("traced sweep has metrics"),
        )
    };
    let serial = run(1);
    let wide = run(8);
    let again = run(8);
    assert_eq!(serial.0, wide.0, "manifest depends on worker count");
    assert_eq!(serial.1, wide.1, "journal depends on worker count");
    assert_eq!(serial.2, wide.2, "metrics depend on worker count");
    assert_eq!(
        wide.0, again.0,
        "manifest not reproducible for a fixed seed"
    );
    assert_eq!(wide.1, again.1, "journal not reproducible for a fixed seed");
    assert_eq!(wide.2, again.2, "metrics not reproducible for a fixed seed");
    // Pinned across commits, not just across runs of one build.
    let digest =
        |s: &str| greenness_trace::hash::hex(&greenness_trace::hash::blake2s256(s.as_bytes()));
    assert_eq!(
        digest(&serial.0),
        "21aacc4a256100bf13098a609b165e602a175af46685b7e81f1422a10b8c3998"
    );
    assert_eq!(
        digest(&serial.1),
        "3fc3fa2afd92013dd860bc67126dbd4f2e4db525d7fc78348111b5ce79ad6663"
    );
    assert_eq!(
        digest(&serial.2),
        "0ed463478e54c8eb96414e4bddac25adfd43fe530e6ebe446ae8cbbbbbe60129"
    );
}
