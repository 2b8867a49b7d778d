//! The sweep executor's headline guarantee: results are bit-identical for
//! any worker count, because every job's RNG seed derives from its key —
//! never from worker identity or execution order.

use greenness_core::grid;
use greenness_core::sweep::{self, JobResult, SweepJob};
use greenness_core::{ExperimentSetup, PipelineConfig};
use greenness_trace::hash::{blake2s256, hex};

/// A small but non-trivial grid: three cases × two pipelines, six jobs.
fn small_grid(setup: &ExperimentSetup) -> Vec<SweepJob> {
    let configs: Vec<_> = [(1u32, 1u64), (2, 2), (3, 8)]
        .into_iter()
        .map(|(n, interval)| (n, PipelineConfig::small(interval)))
        .collect();
    sweep::config_grid(setup, &configs)
}

fn run_with(workers: usize, setup: &ExperimentSetup) -> Vec<JobResult> {
    sweep::run_sweep(small_grid(setup), workers, &sweep::silent_progress()).expect("sweep ok")
}

/// Every numeric field that could conceivably drift under reordering.
fn fingerprint(results: &[JobResult]) -> Vec<(usize, String, u64, [u64; 5], usize)> {
    results
        .iter()
        .map(|r| {
            (
                r.id,
                r.key.clone(),
                r.seed,
                [
                    r.report.metrics.execution_time_s.to_bits(),
                    r.report.metrics.average_power_w.to_bits(),
                    r.report.metrics.peak_power_w.to_bits(),
                    r.report.metrics.energy_j.to_bits(),
                    r.report.metrics.work_units as u64,
                ],
                r.report.profile.len(),
            )
        })
        .collect()
}

#[test]
fn results_are_bit_identical_across_worker_counts() {
    // The default setup has a *noisy* meter — the strongest test: the noise
    // stream itself must be schedule-independent.
    let setup = ExperimentSetup::default();
    let serial = run_with(1, &setup);
    let baseline = fingerprint(&serial);
    for workers in [2usize, 4, 8] {
        let parallel = run_with(workers, &setup);
        assert_eq!(
            baseline,
            fingerprint(&parallel),
            "results diverged between 1 and {workers} workers"
        );
        // Profiles (the noisy sampled power traces) must match sample by
        // sample, not just in the aggregate.
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(
                a.report.profile.samples, b.report.profile.samples,
                "{}",
                a.key
            );
        }
    }
}

#[test]
fn manifest_is_byte_identical_across_worker_counts() {
    let setup = ExperimentSetup::default();
    let serial = sweep::manifest_json(&run_with(1, &setup));
    for workers in [2usize, 4, 8] {
        let parallel = sweep::manifest_json(&run_with(workers, &setup));
        assert_eq!(
            serial.as_bytes(),
            parallel.as_bytes(),
            "manifest diverged at {workers} workers"
        );
    }
}

#[test]
fn traced_journals_and_metrics_are_byte_identical_across_worker_counts() {
    // The observability layer inherits the guarantee: the assembled sweep
    // journal and metrics registry are byte-for-byte schedule-independent.
    let setup = ExperimentSetup {
        trace: true,
        ..ExperimentSetup::default()
    };
    let serial = run_with(1, &setup);
    let journal = grid::journal(&serial).expect("traced sweep has a journal");
    let metrics = grid::metrics_json(&serial).expect("traced sweep has metrics");
    assert!(journal.starts_with("{\"schema\":\"greenness-trace/v1\"}\n"));
    // Pinned across commits, not just across worker counts: a change to the
    // grid runner's framing must not move a byte of these artifacts.
    let digest = |s: &str| hex(&blake2s256(s.as_bytes()));
    assert_eq!(
        digest(&sweep::manifest_json(&serial)),
        "d20dd0fbaaeacff21d6c0f15b67f162fd81ea727783ca73ed4e40fe1c5f89ef4"
    );
    assert_eq!(
        digest(&journal),
        "b5cde494f993b41728bb2b4116d8cd4ae72ac06a80c008b79176b684dc9a9d29"
    );
    assert_eq!(
        digest(&metrics),
        "a14969432f7bd59c660ebdc4d028f76151b40eaa57191ba7ef5102de162c731f"
    );
    for workers in [2usize, 8] {
        let parallel = run_with(workers, &setup);
        assert_eq!(
            journal.as_bytes(),
            grid::journal(&parallel).expect("journal").as_bytes(),
            "journal diverged at {workers} workers"
        );
        assert_eq!(
            metrics.as_bytes(),
            grid::metrics_json(&parallel).expect("metrics").as_bytes(),
            "metrics diverged at {workers} workers"
        );
    }
}

#[test]
fn comparisons_preserve_submission_order() {
    let setup = ExperimentSetup::noiseless();
    for workers in [1usize, 4] {
        let cases = sweep::comparisons(&run_with(workers, &setup));
        assert_eq!(
            cases.iter().map(|c| c.case).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }
}

#[test]
fn oversubscription_and_excess_workers_are_safe() {
    // More workers than jobs must clamp, not deadlock or skew results.
    let setup = ExperimentSetup::noiseless();
    let few =
        sweep::run_sweep(small_grid(&setup), 64, &sweep::silent_progress()).expect("sweep ok");
    assert_eq!(fingerprint(&few), fingerprint(&run_with(1, &setup)));
}

#[test]
fn parallel_executor_matches_direct_sequential_runs() {
    // The executor must reproduce exactly what a plain `experiment::run`
    // loop would produce with per-job reseeding — no hidden coupling.
    let setup = ExperimentSetup::noiseless();
    let results = run_with(4, &setup);
    for r in &results {
        // Re-run the same job alone in a one-job, one-worker sweep.
        let same = small_grid(&setup)
            .into_iter()
            .find(|j| j.key() == r.key)
            .expect("job exists");
        let direct = sweep::run_sweep(vec![same], 1, &sweep::silent_progress())
            .expect("sweep ok")
            .remove(0);
        assert_eq!(direct.seed, r.seed, "{}", r.key);
        assert_eq!(
            direct.report.metrics.energy_j.to_bits(),
            r.report.metrics.energy_j.to_bits(),
            "{}",
            r.key
        );
    }
}
