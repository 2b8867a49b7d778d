//! The paper's experiment grid: 3 case studies × pipeline kinds ×
//! hardware/interval variants (Figures 4–11, Tables II–III), every cell an
//! independent run. The `repro` and `greenness` binaries, the integration
//! tests, the serve layer and the extension studies all submit through here.
//!
//! * a [`SweepJob`] is one pipeline run: `(case, PipelineKind,
//!   PipelineConfig, ExperimentSetup)`;
//! * [`run_sweep`] runs a batch through [`grid::run_grid`] and returns it in
//!   submission order;
//! * every job derives its RNG seed from its own *job key*, never from
//!   worker identity or execution order, so a sweep is **bit-identical for
//!   any worker count, including 1** (`tests/parallel_determinism.rs`);
//! * [`manifest_json`] renders the per-job manifest `repro_out/manifest.json`;
//!   [`grid::journal`] and [`grid::metrics_json`] the traced artifacts.

use greenness_faults::{fnv1a64, splitmix64};
use greenness_trace::MetricsRegistry;

use crate::compare::CaseComparison;
use crate::config::PipelineConfig;
use crate::experiment::{run, ExperimentSetup, PipelineReport};
use crate::grid::{self, quoted, run_grid, GridResult};
use crate::pipeline::{PipelineError, PipelineKind};

pub use crate::grid::{silent_progress, Progress, SweepError};

/// One cell of the experiment grid.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Case-study number the job belongs to (1–3 for the paper grid;
    /// synthetic grids may use other values).
    pub case: u32,
    /// Which pipeline to run.
    pub kind: PipelineKind,
    /// The workload.
    pub cfg: PipelineConfig,
    /// The measurement rig. The meter seed in here acts as the sweep-level
    /// *base* seed; the job reseeds it via [`SweepJob::derived_seed`].
    pub setup: ExperimentSetup,
}

impl SweepJob {
    /// The job's stable identity: every field that distinguishes one grid
    /// cell from another, and nothing about *how* the grid is executed.
    pub fn key(&self) -> String {
        format!(
            "case{}/{}/{}",
            self.case,
            self.kind.label(),
            self.group_tail()
        )
    }

    /// The identity shared by both pipeline kinds of one grid cell —
    /// everything in the key except the pipeline kind. Comparison pairing
    /// matches on `(case, group)`.
    pub fn group(&self) -> String {
        format!("case{}/{}", self.case, self.group_tail())
    }

    fn group_tail(&self) -> String {
        format!("{}/{}", self.cfg.label, self.setup.spec.name)
    }

    /// Seed for this job's meter noise, derived from the job key and the
    /// sweep's base seed only. Worker identity and execution order never
    /// enter, which is what makes sweeps schedule-independent.
    pub fn derived_seed(&self) -> u64 {
        splitmix64(fnv1a64(self.key().as_bytes()) ^ self.setup.meter.seed)
    }

    /// Run the job (on whatever thread the executor picked).
    fn execute(&self) -> Result<PipelineReport, PipelineError> {
        let mut setup = self.setup.clone();
        setup.meter.seed = self.derived_seed();
        // Fault schedules reseed the same way meter noise does: from the job
        // key and the sweep-level base plan only, never from scheduling.
        setup.faults = setup.faults.map(|plan| plan.derive(&self.key()));
        run(self.kind, &self.cfg, &setup)
    }
}

/// One finished grid cell, in submission order.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Index of the job in the submitted batch (the manifest's primary key).
    pub id: usize,
    /// The job's stable identity string.
    pub key: String,
    /// The key minus the pipeline kind (shared by a post/in-situ pair).
    pub group: String,
    /// The meter seed the job actually ran with.
    pub seed: u64,
    /// Case-study number (copied from the job).
    pub case: u32,
    /// Pipeline kind (copied from the job).
    pub kind: PipelineKind,
    /// Everything the instrumented run produced.
    pub report: PipelineReport,
}

impl GridResult for JobResult {
    fn id(&self) -> usize {
        self.id
    }
    fn key(&self) -> &str {
        &self.key
    }
    fn seed(&self) -> Option<u64> {
        Some(self.seed)
    }
    fn journal(&self) -> Option<&str> {
        self.report.journal.as_deref()
    }
    fn end_ns(&self) -> u64 {
        self.report.timeline.end().as_nanos()
    }
    fn metrics(&self) -> Option<&MetricsRegistry> {
        self.report.trace_metrics.as_ref()
    }
}

/// Execute `jobs` on `workers` threads and return results ordered by job id,
/// under the [`grid`](crate::grid) contract.
///
/// # Errors
/// [`SweepError::DuplicateKey`] when two jobs share a key;
/// [`SweepError::JobFailed`] when a job's pipeline run reported an error;
/// [`SweepError::JobPanicked`] when a job panicked (the lowest-id failure is
/// reported).
pub fn run_sweep(
    jobs: Vec<SweepJob>,
    workers: usize,
    on_done: Progress<'_>,
) -> Result<Vec<JobResult>, SweepError> {
    let reports = run_grid(&jobs, workers, on_done, SweepJob::key, SweepJob::execute)?;
    Ok(jobs
        .into_iter()
        .zip(reports)
        .enumerate()
        .map(|(id, (job, report))| JobResult {
            id,
            key: job.key(),
            group: job.group(),
            seed: job.derived_seed(),
            case: job.case,
            kind: job.kind,
            report,
        })
        .collect())
}

/// The standard figure grid: both measured pipelines over each requested
/// case study, in deterministic submission order (case-major, then
/// post-processing before in-situ — the column order of Figures 7–11).
pub fn case_grid(setup: &ExperimentSetup, cases: &[u32]) -> Vec<SweepJob> {
    let configs: Vec<_> = cases
        .iter()
        .map(|&n| (n, PipelineConfig::case_study(n)))
        .collect();
    config_grid(setup, &configs)
}

/// Same grid over an explicit `(case, cfg)` list — tests use scaled-down
/// configs, the extension studies use per-spec setups.
pub fn config_grid(setup: &ExperimentSetup, configs: &[(u32, PipelineConfig)]) -> Vec<SweepJob> {
    let mut jobs = Vec::with_capacity(configs.len() * 2);
    for (n, cfg) in configs {
        for kind in [PipelineKind::PostProcessing, PipelineKind::InSitu] {
            jobs.push(SweepJob {
                case: *n,
                kind,
                cfg: cfg.clone(),
                setup: setup.clone(),
            });
        }
    }
    jobs
}

/// Pair post-processing and in-situ results back into [`CaseComparison`]s,
/// in job-id order of the post-processing half. Jobs that lack a partner of
/// the other kind (e.g. in-transit runs) are skipped.
pub fn comparisons(results: &[JobResult]) -> Vec<CaseComparison> {
    let mut out = Vec::new();
    for r in results {
        if r.kind != PipelineKind::PostProcessing {
            continue;
        }
        let partner = results
            .iter()
            .find(|p| p.kind == PipelineKind::InSitu && p.group == r.group);
        if let Some(insitu) = partner {
            out.push(CaseComparison {
                case: r.case,
                post: r.report.clone(),
                insitu: insitu.report.clone(),
            });
        }
    }
    out
}

/// Render the structured per-job manifest (`repro_out/manifest.json`).
///
/// The output is a pure function of the job results: ids, keys, derived
/// seeds, metrics, per-phase accounting, and data-side outputs — nothing
/// about wall-clock, worker count, or host. Byte-identical manifests across
/// `--jobs` values are an acceptance gate (`tests/parallel_determinism.rs`).
pub fn manifest_json(results: &[JobResult]) -> String {
    grid::manifest_json("greenness-sweep-manifest/v1", &[], results, |r| {
        let (m, o) = (&r.report.metrics, &r.report.output);
        let phases: Vec<String> = r
            .report
            .phase_rows()
            .iter()
            .map(|row| {
                format!(
                    "{{\"phase\": \"{:?}\", \"time_s\": {:?}, \"time_pct\": {:?}, \
                     \"energy_j\": {:?}, \"avg_power_w\": {:?}}}",
                    row.phase,
                    row.duration.as_secs_f64(),
                    row.time_pct,
                    row.energy_j,
                    row.avg_power_w
                )
            })
            .collect();
        vec![
            ("id", r.id.to_string()),
            ("key", quoted(&r.key)),
            ("case", r.case.to_string()),
            ("pipeline", quoted(r.kind.label())),
            ("config", quoted(&r.report.config_label)),
            ("seed", r.seed.to_string()),
            ("execution_time_s", format!("{:?}", m.execution_time_s)),
            ("average_power_w", format!("{:?}", m.average_power_w)),
            ("peak_power_w", format!("{:?}", m.peak_power_w)),
            ("energy_j", format!("{:?}", m.energy_j)),
            ("work_units", format!("{:?}", m.work_units)),
            ("phases", format!("[{}]", phases.join(", "))),
            (
                "output",
                format!(
                    "{{\"io_steps\": {}, \"bytes_written\": {}, \"bytes_read\": {}, \
                     \"frames\": {}, \"verified\": {}}}",
                    o.io_steps,
                    o.bytes_written,
                    o.bytes_read,
                    o.frames.len(),
                    o.verified
                ),
            ),
            (
                "profile",
                format!(
                    "{{\"samples\": {}, \"avg_system_w\": {:?}}}",
                    r.report.profile.len(),
                    r.report.profile.average_system_w()
                ),
            ),
        ]
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;

    fn small_grid() -> Vec<SweepJob> {
        let setup = ExperimentSetup::noiseless();
        config_grid(
            &setup,
            &[
                (1, PipelineConfig::small(1)),
                (2, PipelineConfig::small(2)),
                (3, PipelineConfig::small(8)),
            ],
        )
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs = small_grid();
        let expected: Vec<String> = jobs.iter().map(SweepJob::key).collect();
        let results = run_sweep(jobs, 4, &silent_progress()).expect("sweep ok");
        let got: Vec<String> = results.iter().map(|r| r.key.clone()).collect();
        assert_eq!(got, expected);
        assert!(results.iter().enumerate().all(|(i, r)| r.id == i));
    }

    #[test]
    fn seeds_depend_on_key_not_schedule() {
        let jobs = small_grid();
        let direct: Vec<u64> = jobs.iter().map(SweepJob::derived_seed).collect();
        let serial = run_sweep(jobs.clone(), 1, &silent_progress()).expect("sweep ok");
        let wide = run_sweep(jobs, 3, &silent_progress()).expect("sweep ok");
        assert_eq!(serial.iter().map(|r| r.seed).collect::<Vec<_>>(), direct);
        assert_eq!(wide.iter().map(|r| r.seed).collect::<Vec<_>>(), direct);
        // Distinct keys get distinct seeds.
        let mut sorted = direct.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), direct.len());
    }

    #[test]
    fn progress_reports_every_job_exactly_once() {
        let seen = Mutex::new(Vec::new());
        let jobs = small_grid();
        let total = jobs.len();
        run_sweep(jobs, 2, &|done, of, key| {
            seen.lock().unwrap().push((done, of, key.to_string()));
        })
        .expect("sweep ok");
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), total);
        assert!(seen.iter().all(|(_, of, _)| *of == total));
        assert_eq!(seen.last().unwrap().0, total);
    }

    #[test]
    fn comparisons_pair_pipelines_per_case() {
        let results = run_sweep(small_grid(), 2, &silent_progress()).expect("sweep ok");
        let cmps = comparisons(&results);
        assert_eq!(
            cmps.iter().map(|c| c.case).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        for c in &cmps {
            assert!(c.post.metrics.energy_j > c.insitu.metrics.energy_j);
        }
    }

    #[test]
    fn manifest_is_schedule_invariant() {
        let a = manifest_json(&run_sweep(small_grid(), 1, &silent_progress()).expect("sweep ok"));
        let b = manifest_json(&run_sweep(small_grid(), 3, &silent_progress()).expect("sweep ok"));
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"schema\": \"greenness-sweep-manifest/v1\""));
    }

    #[test]
    fn traced_sweeps_are_schedule_invariant_and_untraced_emit_nothing() {
        let plain = run_sweep(small_grid(), 2, &silent_progress()).expect("sweep ok");
        assert!(grid::journal(&plain).is_none());
        assert!(grid::metrics_json(&plain).is_none());

        let traced_grid = || {
            let setup = ExperimentSetup {
                trace: true,
                ..ExperimentSetup::noiseless()
            };
            config_grid(&setup, &[(1, PipelineConfig::small(2))])
        };
        let serial = run_sweep(traced_grid(), 1, &silent_progress()).expect("sweep ok");
        let wide = run_sweep(traced_grid(), 2, &silent_progress()).expect("sweep ok");
        let (ja, jb) = (
            grid::journal(&serial).unwrap(),
            grid::journal(&wide).unwrap(),
        );
        assert_eq!(ja, jb, "journal must not depend on worker count");
        assert!(ja.starts_with("{\"schema\":\"greenness-trace/v1\"}\n"));
        assert_eq!(
            grid::metrics_json(&serial).unwrap(),
            grid::metrics_json(&wide).unwrap()
        );
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let setup = ExperimentSetup::noiseless();
        let job = SweepJob {
            case: 1,
            kind: PipelineKind::InSitu,
            cfg: PipelineConfig::small(1),
            setup,
        };
        let err = run_sweep(vec![job.clone(), job], 2, &silent_progress())
            .expect_err("duplicates must be rejected");
        assert!(matches!(err, SweepError::DuplicateKey { .. }));
        assert!(err.to_string().contains("unique keys"));
    }

    /// A job whose run fails deterministically: the device is far too small
    /// for the post-processing pipeline's snapshot writes. Since the serve
    /// panic sweep this surfaces as a `PipelineError`, not a panic.
    fn poisoned_job() -> SweepJob {
        let mut cfg = PipelineConfig::small(1);
        cfg.label = "poisoned".into();
        cfg.device_bytes = 16 * 1024;
        SweepJob {
            case: 9,
            kind: PipelineKind::PostProcessing,
            cfg,
            setup: ExperimentSetup::noiseless(),
        }
    }

    #[test]
    fn a_failing_job_fails_its_batch_as_a_value_not_a_panic() {
        let mut jobs = small_grid();
        jobs.insert(1, poisoned_job());
        let err = run_sweep(jobs, 3, &silent_progress()).expect_err("bad job must surface");
        match &err {
            SweepError::JobFailed { id, key, .. } => {
                assert_eq!(*id, 1);
                assert!(key.contains("poisoned"), "key {key}");
            }
            other => panic!("expected JobFailed, got {other:?}"),
        }
        assert!(err.to_string().contains("failed"));
    }

    #[test]
    fn a_failing_batch_does_not_poison_later_sweeps() {
        // The server-relevant guarantee: after a request's batch fails, the
        // next request's batch runs normally — no cascaded poisoning.
        let bad = run_sweep(vec![poisoned_job()], 1, &silent_progress());
        assert!(bad.is_err());
        let good = run_sweep(small_grid(), 2, &silent_progress()).expect("healthy batch runs");
        assert_eq!(good.len(), 6);
    }

    #[test]
    fn panic_and_lost_errors_render_their_ids() {
        // The panic-catch path in `run_pool` is exercised by the pool crate;
        // here we pin the rendered shapes the serve layer forwards.
        let p = SweepError::JobPanicked {
            id: 3,
            key: "k".into(),
            message: "boom".into(),
        };
        assert!(p.to_string().contains("panicked: boom"));
        let l = SweepError::JobLost {
            id: 4,
            key: "k".into(),
        };
        assert!(l.to_string().contains("without a result"));
    }
}
