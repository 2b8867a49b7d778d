//! `paper_grid`: the paper's §IV-C grid (cases 1–3 × post, in-situ) at full
//! scale through the sweep executor, and its traced single-threaded
//! rebuild from the public calls `pipeline::run_with_faults` makes.

use std::hint::black_box;
use std::time::Instant;

use greenness_core::pipeline::PipelineKind;
use greenness_core::sweep::{
    self, case_grid, config_grid, run_sweep, silent_progress, JobResult, SweepJob,
};
use greenness_core::{experiment, ExperimentSetup, PipelineConfig};
use greenness_heatsim::{Grid, HeatSolver};
use greenness_platform::{Activity, Node, Phase};
use greenness_pool::run_pool;
use greenness_power::{GreenMetrics, PowerProfile};
use greenness_storage::{FileSystem, FsConfig, MemBlockDevice};
use greenness_viz::{encode_ppm, render_field};

use crate::measure::{
    check_digest, grid_pass, run_timed, tally_pass, GridPass, Latency, Measured, Traced, WORKERS,
};
use crate::spans::Spans;
use crate::stats::Tally;

/// Energy savings of in-situ over post-processing the paper reports for
/// cases 1–3, percent, to one decimal.
const PAPER_SAVINGS: [&str; 3] = ["41.0", "29.9", "11.0"];

/// The paper's case studies.
const CASES: [u32; 3] = [1, 2, 3];

/// Set-up: the grid's jobs, plus one warm-up pass of the same grid at small
/// scale (64², the paper's I/O cadences) on the same pool, so code pages,
/// allocator arenas and the pool are warm before the first timed pass.
/// Returns the jobs and whether the warm-up pass succeeded.
fn build_jobs() -> (Vec<SweepJob>, bool) {
    let setup = ExperimentSetup::default();
    let small = [
        (1, PipelineConfig::small(1)),
        (2, PipelineConfig::small(2)),
        (3, PipelineConfig::small(8)),
    ];
    let warm = run_sweep(config_grid(&setup, &small), WORKERS, &silent_progress()).is_ok();
    (case_grid(&setup, &CASES), warm)
}

/// Check one finished grid: every post run verified its snapshots, the
/// case savings are the paper's, and the manifest digest is the recorded
/// one. Failed checks are appended to `problems`.
fn check_grid(results: &[JobResult], problems: &mut Vec<String>) -> bool {
    let before = problems.len();
    for r in results {
        if r.kind == PipelineKind::PostProcessing && !r.report.output.verified {
            problems.push(format!("{}: snapshot read-back not verified", r.key));
        }
    }
    let savings: Vec<String> = sweep::comparisons(results)
        .iter()
        .map(|c| format!("{:.1}", c.energy_savings_pct()))
        .collect();
    if savings != PAPER_SAVINGS {
        problems.push(format!(
            "case savings {savings:?} != paper {PAPER_SAVINGS:?}"
        ));
    }
    check_digest(
        "paper_grid.manifest",
        &sweep::manifest_json(results),
        problems,
    );
    problems.len() == before
}

/// One grid pass on `workers` threads.
fn pass(jobs: &[SweepJob], workers: usize) -> GridPass<JobResult> {
    grid_pass(|on_done| run_sweep(jobs.to_vec(), workers, on_done))
}

/// The untraced workload: repeat full grid passes for `seconds`.
pub fn run(seconds: f64) -> Measured {
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let mut per_pass = Vec::new();
    let jobs_per_pass = 2 * CASES.len();
    let mut warm = true;
    let (_, timings) = run_timed(
        seconds,
        || {
            let (jobs, ok) = build_jobs();
            warm &= ok;
            jobs
        },
        |jobs| pass(jobs, WORKERS),
        |(results, done)| {
            per_pass.push(done);
            tally_pass(
                &mut tally,
                &mut problems,
                jobs_per_pass,
                &results,
                check_grid,
            );
        },
    );
    if !warm {
        problems.push("small-scale warm-up grid failed".to_string());
    }
    Measured {
        timings,
        latency: Latency::Jobs(per_pass),
        tally,
        problems,
        regime: vec![
            ("workers", WORKERS.to_string()),
            ("jobs_per_pass", jobs_per_pass.to_string()),
            (
                "scale",
                "paper (512x512, 50 steps, 128 KiB chunks)".to_string(),
            ),
        ],
    }
}

/// FNV-1a 64, byte at a time: the snapshot checksum `core::pipeline` takes
/// at write time and again at read-back.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Byte and work counters of the traced rebuild.
#[derive(Debug, Default)]
struct Counts {
    steps: u64,
    serialize_bytes: u64,
    frames: u64,
    activities: u64,
    bytes_written: u64,
    bytes_read: u64,
}

/// Write `data` in `chunk`-byte pieces, each followed by an fsync — the
/// `write_chunked` loop of `core::pipeline`, one `storage.write` span per
/// chunk.
#[allow(clippy::too_many_arguments)]
fn write_chunked(
    spans: &mut Spans,
    id: u64,
    node: &mut Node,
    fs: &mut FileSystem<MemBlockDevice>,
    name: &str,
    data: &[u8],
    chunk: usize,
    phase: Phase,
) -> Result<u64, String> {
    let mut off = 0usize;
    while off < data.len() {
        let end = (off + chunk).min(data.len());
        spans
            .time(id, "storage.write", || {
                fs.write(node, name, off as u64, &data[off..end], phase)
                    .and_then(|()| fs.fsync_with_retry(node, name, phase))
            })
            .map_err(|e| format!("storage write {name}: {e}"))?;
        off = end;
    }
    Ok(data.len() as u64)
}

/// Rebuild one grid job from public calls, with a span around each. Returns
/// the run's energy and whether post-processing read-back verified.
fn traced_job(
    job: &SweepJob,
    id: u64,
    spans: &mut Spans,
    n: &mut Counts,
) -> Result<(f64, bool), String> {
    let cfg = &job.cfg;
    let mut setup = job.setup.clone();
    setup.meter.seed = job.derived_seed();
    spans.begin(id, "job");
    let (mut node, mut fs, mut solver) = spans
        .time(id, "core.job_setup", || {
            let mut node = Node::new(setup.spec.clone());
            node.set_monitoring_overhead_w(setup.monitoring_overhead_w);
            let fs = FileSystem::format(
                MemBlockDevice::with_capacity_bytes(cfg.device_bytes),
                FsConfig::default(),
            );
            let initial = Grid::from_fn(cfg.grid_nx, cfg.grid_ny, |x, y| {
                0.3 * (-((x - 0.5).powi(2) + (y - 0.4).powi(2)) * 40.0).exp()
            });
            HeatSolver::new(initial, cfg.solver.clone()).map(|solver| (node, fs, solver))
        })
        .map_err(|e| format!("solver config rejected: {e}"))?;
    let cells = (cfg.grid_nx * cfg.grid_ny) as u64;
    let pixels = (cfg.render.width * cfg.render.height) as u64;
    let mut checksums: Vec<(String, u64)> = Vec::new();
    let mut verified = true;

    for step in 1..=cfg.timesteps {
        spans.time(id, "heatsim.step", || solver.step());
        n.steps += 1;
        spans.time(id, "platform.execute", || {
            node.execute(cfg.sim_cost.activity(cells), Phase::Simulation)
        });
        n.activities += 1;
        if step % cfg.io_interval != 0 {
            continue;
        }
        match job.kind {
            PipelineKind::PostProcessing => {
                let bytes = spans.time(id, "heatsim.serialize", || solver.grid().to_bytes());
                n.serialize_bytes += bytes.len() as u64;
                let name = format!("snap{step:04}");
                let sum = spans.time(id, "core.verify", || fnv1a(&bytes));
                checksums.push((name.clone(), sum));
                n.bytes_written += write_chunked(
                    spans,
                    id,
                    &mut node,
                    &mut fs,
                    &name,
                    &bytes,
                    cfg.chunk_bytes,
                    Phase::Write,
                )?;
            }
            PipelineKind::InSitu => {
                spans.time(id, "platform.execute", || {
                    node.execute(
                        Activity::MemTraffic {
                            bytes: cfg.snapshot_bytes(),
                        },
                        Phase::Visualization,
                    );
                    node.execute(cfg.render_cost.activity(pixels), Phase::Visualization)
                });
                n.activities += 2;
                let image = spans.time(id, "viz.render", || {
                    render_field(solver.grid(), &cfg.render)
                });
                n.frames += 1;
                let ppm = spans.time(id, "viz.encode", || encode_ppm(&image));
                n.bytes_written += write_chunked(
                    spans,
                    id,
                    &mut node,
                    &mut fs,
                    &format!("frame{step:04}.ppm"),
                    &ppm,
                    cfg.chunk_bytes,
                    Phase::ImageWrite,
                )?;
            }
            PipelineKind::InTransit => return Err("paper grid has no in-transit jobs".to_string()),
        }
    }

    spans.time(id, "storage.sync", || {
        fs.sync(&mut node, Phase::CacheControl);
        fs.drop_caches();
    });

    if job.kind == PipelineKind::PostProcessing {
        for (name, checksum) in &checksums {
            let bytes = spans
                .time(id, "storage.read", || {
                    let size = fs.size(name)?;
                    let mut out = Vec::with_capacity(size as usize);
                    while (out.len() as u64) < size {
                        let part = fs.read(
                            &mut node,
                            name,
                            out.len() as u64,
                            cfg.chunk_bytes as u64,
                            Phase::Read,
                        )?;
                        out.extend_from_slice(&part);
                    }
                    Ok(out)
                })
                .map_err(|e: greenness_storage::FsError| format!("storage read {name}: {e}"))?;
            n.bytes_read += bytes.len() as u64;
            if spans.time(id, "core.verify", || fnv1a(&bytes)) != *checksum {
                verified = false;
            }
            let grid = spans
                .time(id, "heatsim.serialize", || {
                    Grid::from_bytes(cfg.grid_nx, cfg.grid_ny, &bytes)
                })
                .ok_or_else(|| format!("snapshot {name} has the wrong shape"))?;
            n.serialize_bytes += bytes.len() as u64;
            spans.time(id, "platform.execute", || {
                node.execute(cfg.render_cost.activity(pixels), Phase::Visualization)
            });
            n.activities += 1;
            black_box(spans.time(id, "viz.render", || render_field(&grid, &cfg.render)));
            n.frames += 1;
        }
    }

    node.finish_trace();
    let timeline = node.into_timeline();
    let energy_j = spans.time(id, "power.measure", || {
        let metrics = GreenMetrics::from_timeline(&timeline, cfg.work_units());
        black_box(PowerProfile::measure(&timeline, &setup.meter));
        metrics.energy_j
    });
    drop((fs, solver, timeline));
    spans.end();
    Ok((energy_j, verified))
}

/// Layer spans whose self times are reported, with their metric names.
const LAYERS: [(&str, &str); 11] = [
    ("heatsim.step", "heatsim.step_s"),
    ("heatsim.serialize", "heatsim.serialize_s"),
    ("viz.render", "viz.render_s"),
    ("viz.encode", "viz.encode_s"),
    ("core.verify", "core.verify_s"),
    ("core.job_setup", "core.job_setup_s"),
    ("storage.write", "storage.write_s"),
    ("storage.read", "storage.read_s"),
    ("storage.sync", "storage.sync_s"),
    ("platform.execute", "platform.execute_s"),
    ("power.measure", "power.measure_s"),
];

/// One untraced pass of the grid's jobs on the sweep's pool (`run_pool`,
/// the executor `run_sweep` uses, with the call `run_sweep` makes per job),
/// each job timed on its worker. Returns the pass's wall seconds and the
/// sum of job busy seconds; since a worker runs one job at a time, the sum
/// is at most workers × wall. Each job's energy must equal `want`'s.
fn pooled_busy(jobs: &[SweepJob], want: &[f64], t: &mut Traced) -> (f64, f64) {
    let run_job = |i: usize| {
        let job = &jobs[i];
        let mut setup = job.setup.clone();
        setup.meter.seed = job.derived_seed();
        let t0 = Instant::now();
        let report = experiment::run(job.kind, &job.cfg, &setup);
        (
            report.map(|r| r.metrics.energy_j),
            t0.elapsed().as_secs_f64(),
        )
    };
    let mut busy = 0.0;
    let t0 = Instant::now();
    run_pool(jobs.len(), WORKERS, &run_job, &mut |i, outcome| {
        let energy = match outcome {
            Ok((Ok(energy), secs)) => {
                busy += secs;
                Some(energy)
            }
            _ => None,
        };
        let ok = energy.is_some_and(|e| want.get(i).is_some_and(|w| w.to_bits() == e.to_bits()));
        t.tally.record(ok);
        if !ok {
            t.problems.push(format!(
                "{}: pooled run energy {energy:?} J differs from the rebuild",
                jobs[i].key()
            ));
        }
    });
    (t0.elapsed().as_secs_f64(), busy)
}

/// Traced slice: one traced single-threaded rebuild of the grid, one
/// untraced single-threaded sweep (the baseline for tracing overhead and
/// the bit-for-bit energy check), and one untraced pass on the pool with
/// per-job busy time (pool idle time and efficiency).
pub fn traced() -> Traced {
    let jobs = case_grid(&ExperimentSetup::default(), &CASES);
    let mut t = Traced::default();
    let mut n = Counts::default();
    let mut job_walls = Vec::new();
    let mut energies = Vec::new();
    let t0 = Instant::now();
    for (id, job) in jobs.iter().enumerate() {
        match traced_job(job, id as u64, &mut t.spans, &mut n) {
            Ok((energy, verified)) => {
                t.tally.record(verified);
                if !verified {
                    t.problems
                        .push(format!("{}: traced read-back not verified", job.key()));
                }
                energies.push(energy);
            }
            Err(e) => {
                t.tally.record(false);
                t.problems.push(format!("{}: {e}", job.key()));
                energies.push(f64::NAN);
            }
        }
        job_walls.push(
            t.spans
                .spans()
                .iter()
                .rev()
                .find(|s| s.name == "job")
                .map_or(0.0, |s| s.secs()),
        );
    }
    let traced_wall = t0.elapsed().as_secs_f64();

    let (serial, serial_done) = pass(&jobs, 1);
    let serial_wall = serial_done.last().copied().unwrap_or(0.0) * 1e-3;
    tally_pass(
        &mut t.tally,
        &mut t.problems,
        jobs.len(),
        &serial,
        check_grid,
    );
    // Recomposition check: the rebuild must reproduce experiment::run.
    if let Ok(results) = &serial {
        for (r, traced) in results.iter().zip(&energies) {
            if r.report.metrics.energy_j.to_bits() != traced.to_bits() {
                t.problems.push(format!(
                    "{}: traced energy {traced:?} J != experiment::run {:?} J",
                    r.key, r.report.metrics.energy_j
                ));
            }
        }
    }
    let (pool_wall, busy) = pooled_busy(&jobs, &energies, &mut t);

    // Layer self times must cover nearly all of each job's wall.
    let spans = t.spans.spans();
    let mut covered = vec![0.0; jobs.len()];
    for s in spans.iter().filter(|s| s.name != "job") {
        covered[s.id as usize] += s.secs();
    }
    let coverage = covered
        .iter()
        .zip(&job_walls)
        .map(|(c, w)| if *w > 0.0 { c / w } else { 0.0 })
        .fold(f64::INFINITY, f64::min);
    if coverage < 0.90 {
        t.problems.push(format!(
            "layer spans cover only {:.1}% of a traced job",
            coverage * 100.0
        ));
    }

    let self_times = t.spans.self_times();
    for (span, metric) in LAYERS {
        t.values
            .insert(metric, self_times.get(span).copied().unwrap_or(0.0));
    }
    t.values.extend([
        ("heatsim.steps", n.steps as f64),
        ("heatsim.serialize_bytes", n.serialize_bytes as f64),
        ("viz.frames", n.frames as f64),
        ("storage.bytes_written", n.bytes_written as f64),
        ("storage.bytes_read", n.bytes_read as f64),
        ("platform.activities", n.activities as f64),
        ("pool.idle_s", WORKERS as f64 * pool_wall - busy),
        ("pool.efficiency", busy / (WORKERS as f64 * pool_wall)),
        ("trace.overhead_ratio", traced_wall / serial_wall),
        ("trace.coverage", coverage),
    ]);
    t.regime = vec![
        ("paper_grid.traced_workers", "1".to_string()),
        ("paper_grid.pool_workers", WORKERS.to_string()),
        ("paper_grid.jobs", jobs.len().to_string()),
        ("paper_grid.traced_wall_s", format!("{traced_wall}")),
        ("paper_grid.serial_wall_s", format!("{serial_wall}")),
        ("paper_grid.pool_wall_s", format!("{pool_wall}")),
        ("paper_grid.pool_busy_s", format!("{busy}")),
    ];
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rebuild reproduces `experiment::run` bit for bit at small scale
    /// for both pipelines.
    #[test]
    fn traced_rebuild_matches_experiment_run_at_small_scale() {
        let setup = ExperimentSetup::default();
        for interval in [1, 8] {
            for kind in [PipelineKind::PostProcessing, PipelineKind::InSitu] {
                let job = SweepJob {
                    case: 1,
                    kind,
                    cfg: PipelineConfig::small(interval),
                    setup: setup.clone(),
                };
                let mut run_setup = setup.clone();
                run_setup.meter.seed = job.derived_seed();
                let want = experiment::run(kind, &job.cfg, &run_setup).expect("runs");
                let mut spans = Spans::default();
                let (energy, verified) =
                    traced_job(&job, 0, &mut spans, &mut Counts::default()).expect("rebuild runs");
                assert!(verified);
                assert_eq!(
                    energy.to_bits(),
                    want.metrics.energy_j.to_bits(),
                    "{kind:?} interval {interval}"
                );
            }
        }
    }
}
