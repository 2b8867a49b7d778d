//! The cluster sweep: three case-study workloads × three distributed
//! pipelines, in one deterministic grid.
//!
//! The paper's single-node verdict (in-situ wins because it shortens the
//! occupied window) gets its cluster-scale counterpart here: post-processing
//! vs in-situ vs overlapped in-transit staging, each over the paper's three
//! I/O cadences, with energy split per node class and the staging byte
//! channels reported separately. The `greenness cluster` subcommand renders
//! this sweep as the `greenness-cluster-manifest/v1` artifact.
//!
//! Determinism contract (pinned by `tests/determinism.rs`): job keys are
//! the only seed source — fault schedules derive per-job from the sweep
//! plan and each job runs on its own virtual cluster — so the manifest,
//! journal, and metrics are byte-identical for any `--jobs` value and
//! across repeated runs with the same `--fault-seed`.

use std::convert::Infallible;

use greenness_cluster::{
    run_cluster_traced, ClusterConfig, ClusterKind, ClusterReport, FaultSummary, StagingConfig,
};
use greenness_faults::FaultPlan;
use greenness_platform::SimTime;
use greenness_trace::{MetricsRegistry, Tracer, Value};

use crate::grid::{self, quoted, run_grid, GridResult, Progress, SweepError};

/// The paper's case-study numbers, grid order.
pub const CASES: [u32; 3] = [1, 2, 3];

/// The three pipelines, grid order.
pub const KINDS: [ClusterKind; 3] = [
    ClusterKind::PostProcessing,
    ClusterKind::InSitu,
    ClusterKind::InTransit,
];

/// One cell of the cluster grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterJob {
    /// Case-study number (1–3).
    pub case: u32,
    /// Which pipeline.
    pub kind: ClusterKind,
}

impl ClusterJob {
    /// Stable job key — the only per-job seed source.
    pub fn key(&self) -> String {
        format!("case{}:{}", self.case, self.kind.label())
    }
}

/// The full grid (or a kind-filtered slice of it), submission order.
pub fn cluster_jobs(kind: Option<ClusterKind>) -> Vec<ClusterJob> {
    let mut jobs = Vec::new();
    for case in CASES {
        for k in KINDS {
            if kind.map_or(true, |only| only == k) {
                jobs.push(ClusterJob { case, kind: k });
            }
        }
    }
    jobs
}

/// Sweep-wide knobs shared by every job.
#[derive(Debug, Clone, Default)]
pub struct ClusterSetup {
    /// Staging topology applied to the in-transit cells.
    pub staging: StagingConfig,
    /// Sweep-level fault plan; each job derives its own schedule from its
    /// key, so schedules are independent of job order and worker count.
    pub faults: Option<FaultPlan>,
    /// Capture per-job journals and metrics.
    pub trace: bool,
}

/// One finished cell: the cluster report plus trace artifacts.
#[derive(Debug, Clone)]
pub struct ClusterJobResult {
    /// Submission-order id (also the manifest order).
    pub id: usize,
    /// The job key.
    pub key: String,
    /// Case-study number.
    pub case: u32,
    /// Pipeline label.
    pub kind: &'static str,
    /// The distributed run's report.
    pub report: ClusterReport,
    /// Degraded-mode accounting for the run.
    pub summary: FaultSummary,
    /// Virtual end instant, nanoseconds (for the job span's end event).
    pub end_ns: u64,
    /// The job's journal (when traced).
    pub journal: Option<String>,
    /// The job's metrics registry (when traced).
    pub trace_metrics: Option<MetricsRegistry>,
}

impl GridResult for ClusterJobResult {
    fn id(&self) -> usize {
        self.id
    }
    fn key(&self) -> &str {
        &self.key
    }
    /// The cluster grid's `job` begin event carries no seed.
    fn seed(&self) -> Option<u64> {
        None
    }
    fn journal(&self) -> Option<&str> {
        self.journal.as_deref()
    }
    fn end_ns(&self) -> u64 {
        self.end_ns
    }
    fn metrics(&self) -> Option<&MetricsRegistry> {
        self.trace_metrics.as_ref()
    }
}

/// Execute one cell on a fresh virtual cluster.
fn execute(job: ClusterJob, setup: &ClusterSetup) -> ClusterJobResult {
    let key = job.key();
    let mut cfg = ClusterConfig::case_study(job.case);
    cfg.staging = setup.staging;
    let plan = setup.faults.map(|p| p.derive(&key));
    let tracer = if setup.trace {
        let t = Tracer::jsonl();
        t.begin(
            0,
            "run",
            vec![
                ("case", Value::from(job.case)),
                ("kind", Value::from(job.kind.label())),
            ],
        );
        t
    } else {
        Tracer::off()
    };
    let (report, summary) = run_cluster_traced(job.kind, &cfg, plan, &tracer)
        .expect("case-study cluster runs complete under plan-rate faults");
    let end_ns = SimTime::from_secs_f64(report.makespan_s).as_nanos();
    let (journal, trace_metrics) =
        grid::close_run(&tracer, end_ns, report.makespan_s, report.total_energy_j);
    ClusterJobResult {
        id: 0, // set from the submission index once the grid returns
        key,
        case: job.case,
        kind: job.kind.label(),
        report,
        summary,
        end_ns,
        journal,
        trace_metrics,
    }
}

/// Run the cluster grid on `workers` threads under the
/// [`grid`](crate::grid) contract; results come back in submission order.
///
/// # Errors
/// [`SweepError::DuplicateKey`] when two jobs share a key;
/// [`SweepError::JobPanicked`] when a job panicked (lowest id reported).
pub fn run_cluster_sweep(
    jobs: Vec<ClusterJob>,
    setup: &ClusterSetup,
    workers: usize,
    on_done: Progress<'_>,
) -> Result<Vec<ClusterJobResult>, SweepError> {
    let mut results = run_grid(&jobs, workers, on_done, ClusterJob::key, |job| {
        Ok::<_, Infallible>(execute(*job, setup))
    })?;
    for (id, r) in results.iter_mut().enumerate() {
        r.id = id;
    }
    Ok(results)
}

/// Render the structured cluster manifest (`repro_out/cluster.json`) — a
/// pure function of the setup and results.
pub fn cluster_manifest_json(setup: &ClusterSetup, results: &[ClusterJobResult]) -> String {
    let header = [
        ("staging_nodes", setup.staging.staging_nodes.to_string()),
        ("queue_depth", setup.staging.queue_depth.to_string()),
        ("wire_codec", quoted(setup.staging.wire_codec.label())),
        (
            "fault_seed",
            setup
                .faults
                .map_or_else(|| "null".to_string(), |plan| plan.seed.to_string()),
        ),
    ];
    grid::manifest_json("greenness-cluster-manifest/v1", &header, results, |r| {
        let (rep, f) = (&r.report, &r.summary);
        vec![
            ("id", r.id.to_string()),
            ("key", quoted(&r.key)),
            ("case", r.case.to_string()),
            ("kind", quoted(r.kind)),
            ("makespan_s", format!("{:?}", rep.makespan_s)),
            ("total_energy_j", format!("{:?}", rep.total_energy_j)),
            ("avg_power_w", format!("{:?}", rep.average_power_w)),
            ("compute_energy_j", format!("{:?}", rep.compute_energy_j)),
            ("io_energy_j", format!("{:?}", rep.io_energy_j)),
            ("viz_energy_j", format!("{:?}", rep.viz_energy_j)),
            ("fabric_bytes", rep.fabric_bytes.to_string()),
            ("pfs_bytes", rep.pfs_bytes.to_string()),
            ("bytes_out", rep.bytes_out.to_string()),
            ("staging_raw_bytes", rep.staging_raw_bytes.to_string()),
            ("image_hash", rep.image_hash.to_string()),
            ("verified", rep.verified.to_string()),
            (
                "faults",
                format!(
                    "{{\"total\": {}, \"storage\": {}, \"fabric_drops\": {}, \
                     \"fabric_delays\": {}, \"torn_renders\": {}, \"storage_retries\": {}, \
                     \"fabric_retries\": {}}}",
                    f.total_faults(),
                    f.storage_faults,
                    f.fabric_drops,
                    f.fabric_delays,
                    f.staging_torn_renders,
                    f.storage_retries,
                    f.fabric_retries
                ),
            ),
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_three_by_three() {
        let jobs = cluster_jobs(None);
        assert_eq!(jobs.len(), 9);
        let keys: Vec<String> = jobs.iter().map(ClusterJob::key).collect();
        assert_eq!(keys[0], "case1:post");
        assert_eq!(keys[8], "case3:intransit");
        let filtered = cluster_jobs(Some(ClusterKind::InTransit));
        assert_eq!(filtered.len(), 3);
        assert!(filtered.iter().all(|j| j.kind == ClusterKind::InTransit));
    }

    #[test]
    fn manifest_shape_is_stable() {
        let setup = ClusterSetup::default();
        let jobs = vec![ClusterJob {
            case: 1,
            kind: ClusterKind::InSitu,
        }];
        let results = run_cluster_sweep(jobs, &setup, 1, &|_, _, _| {}).unwrap();
        let manifest = cluster_manifest_json(&setup, &results);
        assert!(manifest.contains("\"schema\": \"greenness-cluster-manifest/v1\""));
        assert!(manifest.contains("\"key\": \"case1:insitu\""));
        assert!(manifest.contains("\"fault_seed\": null"));
        assert!(manifest.ends_with("  ]\n}\n"));
    }
}
