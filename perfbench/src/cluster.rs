//! `cluster_grid`: the nine cells of the cluster sweep (cases 1–3 × post,
//! in-situ, in-transit) with the in-transit cells staging over the
//! `delta-rle` wire codec.

use greenness_cluster::{run_cluster, ClusterConfig, ClusterKind, StagingConfig, WireCodec};
use greenness_core::cluster_sweep::{
    cluster_jobs, cluster_manifest_json, run_cluster_sweep, ClusterJob, ClusterJobResult,
    ClusterSetup, KINDS,
};

use crate::measure::{
    check_digest, grid_pass, run_timed, tally_pass, GridPass, Latency, Measured, Traced, WORKERS,
};
use crate::stats::Tally;

fn sweep_setup() -> ClusterSetup {
    ClusterSetup {
        staging: StagingConfig {
            wire_codec: WireCodec::DeltaRle,
            ..StagingConfig::default()
        },
        ..ClusterSetup::default()
    }
}

fn pass(jobs: &[ClusterJob], setup: &ClusterSetup) -> GridPass<ClusterJobResult> {
    grid_pass(|on_done| run_cluster_sweep(jobs.to_vec(), setup, WORKERS, on_done))
}

/// Every cell verified its integrity checks and the manifest digest is the
/// recorded one.
fn check_grid(
    setup: &ClusterSetup,
    results: &[ClusterJobResult],
    problems: &mut Vec<String>,
) -> bool {
    let before = problems.len();
    for r in results.iter().filter(|r| !r.report.verified) {
        problems.push(format!("{}: integrity checks failed", r.key));
    }
    check_digest(
        "cluster_grid.manifest",
        &cluster_manifest_json(setup, results),
        problems,
    );
    problems.len() == before
}

/// Set-up: the grid's jobs and staging, plus one warm-up run of each
/// pipeline on the reduced 4-node cluster (`ClusterConfig::small`), so code
/// pages and allocator arenas are warm before the first timed pass. Returns
/// whether the warm-up runs succeeded.
fn build_jobs() -> (Vec<ClusterJob>, ClusterSetup, bool) {
    let setup = sweep_setup();
    let mut small = ClusterConfig::small(4, 2);
    small.staging = setup.staging;
    let warm = KINDS.iter().all(|&kind| run_cluster(kind, &small).is_ok());
    (cluster_jobs(None), setup, warm)
}

/// The untraced workload: repeat full cluster-grid passes for `seconds`.
pub fn run(seconds: f64) -> Measured {
    let mut per_pass = Vec::new();
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let (setup, n_jobs) = (sweep_setup(), cluster_jobs(None).len());
    let mut warm = true;
    let (_, timings) = run_timed(
        seconds,
        || {
            let (jobs, setup, ok) = build_jobs();
            warm &= ok;
            (jobs, setup)
        },
        |(jobs, setup)| pass(jobs, setup),
        |(results, done)| {
            per_pass.push(done);
            tally_pass(&mut tally, &mut problems, n_jobs, &results, |r, p| {
                check_grid(&setup, r, p)
            });
        },
    );
    if !warm {
        problems.push("small-cluster warm-up runs failed".to_string());
    }
    Measured {
        timings,
        latency: Latency::Jobs(per_pass),
        tally,
        problems,
        regime: vec![
            ("workers", WORKERS.to_string()),
            ("jobs_per_pass", n_jobs.to_string()),
            ("wire_codec", setup.staging.wire_codec.label().to_string()),
        ],
    }
}

/// Traced slice: each cell run alone through `run_cluster` under a span
/// named for its pipeline, every in-transit cell once more with a raw wire
/// (the codec's cost is the ratio of the two walls), and one pooled pass
/// whose results the solo runs must reproduce.
pub fn traced() -> Traced {
    let setup = sweep_setup();
    let jobs = cluster_jobs(None);
    let mut t = Traced::default();
    let (pooled, _) = pass(&jobs, &setup);
    tally_pass(
        &mut t.tally,
        &mut t.problems,
        jobs.len(),
        &pooled,
        |r, p| check_grid(&setup, r, p),
    );
    let (mut wire_bytes, mut raw_bytes) = (0u64, 0u64);
    let (mut with_codec, mut without) = (0.0, 0.0);
    for (id, job) in jobs.iter().enumerate() {
        let id = id as u64;
        let mut cfg = ClusterConfig::case_study(job.case);
        cfg.staging = setup.staging;
        let name = match job.kind {
            ClusterKind::PostProcessing => "cluster.post",
            ClusterKind::InSitu => "cluster.insitu",
            ClusterKind::InTransit => "cluster.intransit",
        };
        t.spans.begin(id, name);
        let report = run_cluster(job.kind, &cfg);
        let secs = t.spans.end();
        let Ok(report) = report else {
            t.problems.push(format!("{}: solo run failed", job.key()));
            continue;
        };
        if let Ok(results) = &pooled {
            let pooled = &results[id as usize].report;
            if pooled.total_energy_j.to_bits() != report.total_energy_j.to_bits()
                || pooled.image_hash != report.image_hash
            {
                t.problems.push(format!(
                    "{}: solo run differs from the pooled sweep",
                    job.key()
                ));
            }
        }
        if job.kind == ClusterKind::InTransit {
            with_codec += secs;
            wire_bytes += report.fabric_bytes;
            raw_bytes += report.staging_raw_bytes;
            cfg.staging.wire_codec = WireCodec::None;
            t.spans.begin(id, "codec.none");
            let raw = run_cluster(job.kind, &cfg);
            without += t.spans.end();
            if raw.is_err() {
                t.problems
                    .push(format!("{}: raw-wire run failed", job.key()));
            }
        }
    }
    let self_times = t.spans.self_times();
    let total = |name: &str| self_times.get(name).copied().unwrap_or(0.0);
    t.values.extend([
        ("cluster.post_s", total("cluster.post")),
        ("cluster.insitu_s", total("cluster.insitu")),
        ("cluster.intransit_s", total("cluster.intransit")),
        ("codec.wire_ratio", with_codec / without),
        ("codec.ratio", wire_bytes as f64 / raw_bytes.max(1) as f64),
    ]);
    t.regime = vec![
        ("cluster_grid.traced_workers", "1".to_string()),
        ("cluster_grid.pool_workers", WORKERS.to_string()),
    ];
    t
}
