//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each bench prints the *virtual-domain* outcome of the ablation once
//! (the scientific result), then times the host-side cost of the code path.

use criterion::{criterion_group, criterion_main, Criterion};
use greenness_core::{experiment, pipeline::PipelineKind, ExperimentSetup, PipelineConfig};
use greenness_platform::{AccessPattern, Activity, HardwareSpec, Node, Phase};
use greenness_storage::{FileSystem, FsConfig, MemBlockDevice};
use greenness_viz::stride_sample;
use std::hint::black_box;
use std::sync::Once;

static PRINTED: Once = Once::new();

/// Cold vs warm reads: why the paper's `sync; drop_caches` discipline
/// matters. Without the drop, the post-processing read phase is served from
/// RAM and the I/O cost evaporates.
fn ablate_page_cache(c: &mut Criterion) {
    let run = |drop_caches: bool| -> f64 {
        let mut node = Node::new(HardwareSpec::table1());
        let mut fs = FileSystem::format(
            MemBlockDevice::with_capacity_bytes(16 * 1024 * 1024),
            FsConfig::default(),
        );
        let data = vec![7u8; 1024 * 1024];
        fs.write(&mut node, "f", 0, &data, Phase::Write).unwrap();
        fs.sync(&mut node, Phase::CacheControl);
        if drop_caches {
            fs.drop_caches();
        }
        let t0 = node.now();
        fs.read(&mut node, "f", 0, data.len() as u64, Phase::Read)
            .unwrap();
        (node.now() - t0).as_secs_f64()
    };
    PRINTED.call_once(|| {
        println!(
            "[ablate_page_cache] 1 MiB read: cold {:.3}s vs warm {:.6}s of virtual time",
            run(true),
            run(false)
        );
    });
    c.bench_function("ablate_page_cache_cold_read", |b| {
        b.iter(|| black_box(run(true)))
    });
}

/// On-disk write cache on/off: the mechanism behind Table III's cheap
/// random writes.
fn ablate_write_cache(c: &mut Criterion) {
    let run = |cache: bool| -> f64 {
        let mut spec = HardwareSpec::table1();
        if !cache {
            spec.disk = spec.disk.without_write_cache();
        }
        let node = Node::new(spec);
        let (secs, _) = node.cost_of(Activity::DiskWrite {
            bytes: 256 * 1024 * 1024,
            pattern: AccessPattern::Random {
                op_bytes: 4096,
                queue_depth: 32,
            },
            buffered: false,
        });
        secs
    };
    println!(
        "[ablate_write_cache] 256 MiB random write: cached {:.1}s vs uncached {:.1}s of virtual time",
        run(true),
        run(false)
    );
    c.bench_function("ablate_write_cache_model", |b| {
        b.iter(|| black_box((run(true), run(false))))
    });
}

/// NCQ queue-depth sweep for random reads.
fn ablate_ncq(c: &mut Criterion) {
    let run = |qd: u32| -> f64 {
        let node = Node::new(HardwareSpec::table1());
        let (secs, _) = node.cost_of(Activity::DiskRead {
            bytes: 256 * 1024 * 1024,
            pattern: AccessPattern::Random {
                op_bytes: 4096,
                queue_depth: qd,
            },
            buffered: false,
        });
        secs
    };
    let sweep: Vec<(u32, f64)> = [1, 2, 4, 8, 16, 32].iter().map(|&q| (q, run(q))).collect();
    println!("[ablate_ncq] 256 MiB random read vs queue depth: {sweep:.1?}");
    c.bench_function("ablate_ncq_sweep", |b| {
        b.iter(|| {
            for qd in [1u32, 2, 4, 8, 16, 32] {
                black_box(run(qd));
            }
        })
    });
}

/// DVFS: frequency scaling trades time for power on the compute phase —
/// one of the "alternative techniques" the paper's §V-C points at for
/// static-energy reduction.
fn ablate_dvfs(c: &mut Criterion) {
    let run = |scale: f64| -> (f64, f64) {
        let mut spec = HardwareSpec::table1();
        spec.cpu = spec.cpu.with_freq_scale(scale);
        let node = Node::new(spec);
        let (secs, draw) = node.cost_of(Activity::compute(1.0e12, 16));
        (secs, draw.system_w() * secs)
    };
    let sweep: Vec<(f64, f64, f64)> = [1.0, 0.8, 0.6, 0.5]
        .iter()
        .map(|&s| (s, run(s).0, run(s).1))
        .collect();
    println!("[ablate_dvfs] 1 Tflop at freq scale (scale, secs, joules): {sweep:.1?}");
    c.bench_function("ablate_dvfs_sweep", |b| {
        b.iter(|| {
            for s in [1.0, 0.8, 0.6, 0.5] {
                black_box(run(s));
            }
        })
    });
}

/// Data sampling: how stride decimation shrinks snapshot I/O volume (the
/// dynamic-energy optimization, refs [21]–[23]).
fn ablate_sampling(c: &mut Criterion) {
    let field = greenness_heatsim::Grid::from_fn(256, 256, |x, y| (x * 7.0).sin() + y);
    let volumes: Vec<(usize, u64)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&s| (s, stride_sample(&field, s).snapshot_bytes()))
        .collect();
    println!("[ablate_sampling] snapshot bytes vs stride: {volumes:?}");
    c.bench_function("ablate_sampling_stride4", |b| {
        b.iter(|| black_box(stride_sample(&field, 4)))
    });
}

/// Host-side parallelism of the real solver (row bands on the pool).
fn ablate_parallelism(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_parallelism");
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("solver_256x256_{threads}thr"), |b| {
            b.iter(|| {
                let g = greenness_heatsim::Grid::from_fn(256, 256, |x, y| x * y);
                let mut s = greenness_heatsim::HeatSolver::new(
                    g,
                    greenness_core::PipelineConfig::default_solver(256, 256),
                )
                .expect("stable config");
                s.set_jobs(threads);
                s.run(10);
                black_box(s.grid().total())
            })
        });
    }
    group.finish();
}

/// Compression codecs on real solver output: ratio + host throughput.
fn ablate_compression(c: &mut Criterion) {
    use greenness_codec::{quant::Quant16, transpose::TransposeRle, Codec};
    let field = {
        let mut s = greenness_heatsim::HeatSolver::new(
            greenness_heatsim::Grid::from_fn(256, 256, |x, y| {
                0.3 * (-((x - 0.5).powi(2) + (y - 0.4).powi(2)) * 40.0).exp()
            }),
            greenness_core::PipelineConfig::default_solver(256, 256),
        )
        .expect("stable config");
        s.run(20);
        s.grid().clone()
    };
    let bytes = field.to_bytes();
    let lossless = TransposeRle.encode(&bytes).len();
    let quant = Quant16.encode(&bytes).len();
    println!(
        "[ablate_compression] 256x256 snapshot: raw {} B, lossless {} B ({:.2}x), quant16 {} B ({:.2}x)",
        bytes.len(),
        lossless,
        bytes.len() as f64 / lossless as f64,
        quant,
        bytes.len() as f64 / quant as f64,
    );
    let mut group = c.benchmark_group("ablate_compression");
    group.bench_function("transpose_rle_encode", |b| {
        b.iter(|| black_box(TransposeRle.encode(&bytes)))
    });
    group.bench_function("quant16_encode", |b| {
        b.iter(|| black_box(Quant16.encode(&bytes)))
    });
    group.finish();
}

/// RAID-0 member sweep: streaming time vs static disk power.
fn ablate_raid(c: &mut Criterion) {
    let run = |members: u32| -> (f64, f64) {
        let mut spec = HardwareSpec::table1();
        spec.disk = spec.disk.raid0(members);
        let node = Node::new(spec);
        let (secs, draw) = node.cost_of(Activity::DiskRead {
            bytes: 4 * 1024 * 1024 * 1024,
            pattern: AccessPattern::Sequential,
            buffered: false,
        });
        (secs, draw.disk_w)
    };
    let sweep: Vec<(u32, f64, f64)> = [1, 2, 4, 8]
        .iter()
        .map(|&m| {
            let (t, w) = run(m);
            (m, t, w)
        })
        .collect();
    println!("[ablate_raid] 4 GiB stream (members, secs, disk W): {sweep:.1?}");
    c.bench_function("ablate_raid_sweep", |b| {
        b.iter(|| {
            for m in [1u32, 2, 4, 8] {
                black_box(run(m));
            }
        })
    });
}

/// Cluster compute-node scaling (the multi-node future-work study).
fn ablate_cluster_scaling(c: &mut Criterion) {
    use greenness_cluster::{run_cluster, ClusterConfig, ClusterKind};
    let mut group = c.benchmark_group("ablate_cluster_scaling");
    for nodes in [2usize, 4] {
        group.bench_function(format!("post_processing_{nodes}nodes"), |b| {
            b.iter(|| {
                let mut cfg = ClusterConfig::small(nodes, 2);
                cfg.timesteps = 4;
                black_box(run_cluster(ClusterKind::PostProcessing, &cfg).unwrap())
            })
        });
    }
    group.finish();
}

/// Pipeline variants (sampling / compression / DVFS / image DB).
fn ablate_variants(c: &mut Criterion) {
    use greenness_core::variants::{run_variant, CodecChoice, Variant};
    let mut cfg = PipelineConfig::small(1);
    cfg.timesteps = 4;
    let mut group = c.benchmark_group("ablate_variants");
    let variants = [
        ("sampled4", Variant::SampledPost { stride: 4 }),
        (
            "quant16",
            Variant::CompressedPost {
                codec: CodecChoice::Quantized,
            },
        ),
        ("dvfs08", Variant::DvfsSim { freq_scale: 0.8 }),
        ("imagedb2", Variant::ImageDatabase { views: 2 }),
    ];
    for (name, v) in variants {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut node = Node::new(HardwareSpec::table1());
                black_box(run_variant(v, &mut node, &cfg))
            })
        });
    }
    group.finish();
}

/// End-to-end pipeline experiment at small scale — the unit of work the
/// figure benches repeat.
fn ablate_pipeline_end_to_end(c: &mut Criterion) {
    let cfg = PipelineConfig::small(1);
    let setup = ExperimentSetup::noiseless();
    c.bench_function("pipeline_small_post_processing", |b| {
        b.iter(|| black_box(experiment::run(PipelineKind::PostProcessing, &cfg, &setup)))
    });
    c.bench_function("pipeline_small_insitu", |b| {
        b.iter(|| black_box(experiment::run(PipelineKind::InSitu, &cfg, &setup)))
    });
    c.bench_function("pipeline_small_intransit", |b| {
        b.iter(|| black_box(experiment::run(PipelineKind::InTransit, &cfg, &setup)))
    });
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets = ablate_page_cache, ablate_write_cache, ablate_ncq, ablate_dvfs,
        ablate_sampling, ablate_parallelism, ablate_compression, ablate_raid,
        ablate_cluster_scaling, ablate_variants, ablate_pipeline_end_to_end
}
criterion_main!(ablations);
