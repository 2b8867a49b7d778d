//! Bench-trajectory suite: the `greenness bench` harness must stay
//! reproducible for its numbers to mean anything across commits.
//!
//! Five properties are pinned here:
//!
//! * the emitted `BENCH_7.json` is parseable, schema-tagged
//!   `greenness-bench/v1`, and structurally complete;
//! * workload counters (checksums + work tallies) are identical across
//!   `--jobs` values — only wall-clock may vary between runs;
//! * the fast stencil path (including the row-parallel step at any `jobs`
//!   value) is bit-for-bit the naive reference on arbitrary grids,
//!   including the thinnest legal slabs;
//! * the blocked single-pass transpose encoder is bit-for-bit the retained
//!   strided reference on arbitrary payloads;
//! * an invalid solver config handed to either binary, or an unknown
//!   `repro` artifact, is a *usage* error: exit 2 with a structured
//!   message, before any work runs; an unwritable grid output exits 1.

use std::process::Command;

use greenness_bench::perf::{run_suite, suite_json, BenchConfig};
use greenness_codec::transpose::TransposeRle;
use greenness_codec::Codec;
use greenness_core::PipelineConfig;
use greenness_heatsim::{Boundary, Grid, HeatSolver};
use greenness_serve::json::Json;
use proptest::prelude::*;

fn quick() -> BenchConfig {
    BenchConfig {
        reps: 1,
        quick: true,
        jobs: 1,
    }
}

#[test]
fn bench_json_is_schema_valid_and_complete() {
    let cfg = quick();
    let suite = run_suite(&cfg).expect("quick suite completes");
    let text = suite_json(&cfg, &suite);
    let doc = Json::parse(&text).expect("bench output is valid JSON");

    assert_eq!(
        doc.get("schema"),
        Some(&Json::Str("greenness-bench/v1".into()))
    );
    assert_eq!(doc.get("bench_id"), Some(&Json::Str("BENCH_7".into())));
    let Some(Json::Arr(benches)) = doc.get("benches") else {
        panic!("benches must be an array");
    };
    assert_eq!(
        benches.len(),
        10,
        "5 stencil + 2 codec + 1 serve + 2 fleet workloads"
    );
    for b in benches {
        for key in ["name", "workload", "median_wall_s", "throughput", "unit"] {
            assert!(b.get(key).is_some(), "bench entry missing {key}");
        }
        let Some(Json::Obj(counters)) = b.get("counters") else {
            panic!("counters must be an object");
        };
        assert!(
            counters.iter().any(|(k, _)| k == "checksum"),
            "every workload must checksum its output"
        );
    }
    // The trajectory's headline numbers: the fast stencil must actually be
    // faster than the retained naive reference on the same workload.
    for key in ["stencil_speedup_dirichlet", "stencil_speedup_neumann"] {
        let speedup = doc
            .get("derived")
            .and_then(|d| d.get(key))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("derived.{key} missing"));
        assert!(speedup > 1.0, "{key} = {speedup}");
    }
    // The threaded-scaling ratio only needs to exist and be sane: on a
    // 1-core CI host thread overhead can push it below 1.0, and that is an
    // honest number, not a regression.
    let scaling = doc
        .get("derived")
        .and_then(|d| d.get("stencil_threaded_scaling"))
        .and_then(Json::as_f64)
        .expect("derived.stencil_threaded_scaling missing");
    assert!(scaling.is_finite() && scaling > 0.0, "scaling = {scaling}");
}

#[test]
fn counters_are_identical_across_jobs_values() {
    let a = run_suite(&quick()).expect("suite completes at jobs=1");
    let b = run_suite(&BenchConfig { jobs: 8, ..quick() }).expect("suite completes at jobs=8");
    for (ma, mb) in a.benches.iter().zip(&b.benches) {
        assert_eq!(ma.name, mb.name);
        assert_eq!(
            ma.counters, mb.counters,
            "{}: counters must not depend on --jobs",
            ma.name
        );
    }
}

proptest! {
    /// The interior fast path + boundary peeling in `HeatSolver::step` must
    /// reproduce the naive reference exactly — same expression tree, same
    /// rounding — on every shape, boundary, and step count. `Grid` requires
    /// at least one interior cell (>= 3x3), so the thinnest slabs exercised
    /// are 3xN and Nx3: every interior cell is then also boundary-adjacent,
    /// the shape most likely to expose a peeling bug.
    #[test]
    fn fast_stencil_matches_reference_bit_for_bit(shape in any::<u64>(), steps_seed in any::<u64>()) {
        let m = 3 + (shape >> 8) as usize % 10;
        let n = 3 + (shape >> 16) as usize % 10;
        let (nx, ny) = match shape % 3 {
            0 => (3, n),
            1 => (m, 3),
            _ => (m, n),
        };
        let boundary = if shape & 8 == 0 {
            Boundary::Dirichlet(0.25)
        } else {
            Boundary::Neumann
        };
        let steps = 1 + steps_seed % 4;

        let mut cfg = PipelineConfig::default_solver(nx, ny);
        cfg.boundary = boundary;
        let field = Grid::from_fn(nx, ny, |x, y| {
            0.5 + 0.25 * (x * 6.0).sin() * (y * 4.0).cos()
        });
        let mut fast = HeatSolver::new(field.clone(), cfg.clone()).expect("stable config");
        let mut threaded = HeatSolver::new(field.clone(), cfg.clone()).expect("stable config");
        threaded.set_jobs(8);
        let mut naive = HeatSolver::new(field, cfg).expect("stable config");
        for _ in 0..steps {
            fast.step();
            threaded.step();
            naive.step_reference();
        }
        prop_assert_eq!(
            &fast.grid().to_bytes()[..],
            &naive.grid().to_bytes()[..],
            "divergence on {}x{} after {} step(s)", nx, ny, steps
        );
        prop_assert_eq!(
            &threaded.grid().to_bytes()[..],
            &naive.grid().to_bytes()[..],
            "jobs=8 divergence on {}x{} after {} step(s)", nx, ny, steps
        );
    }

    /// The cache-blocked single-pass transpose in `TransposeRle::encode`
    /// must emit the exact bytes of the retained strided reference — the
    /// pinned energy goldens hash these streams — at every length,
    /// including lengths that are not a multiple of the 8-value tile.
    #[test]
    fn blocked_transpose_matches_reference_bit_for_bit(values in proptest::collection::vec(-1e12f64..1e12, 0..200)) {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let codec = TransposeRle;
        let fast = codec.encode(&bytes);
        let reference = codec.encode_reference(&bytes).expect("aligned input");
        prop_assert_eq!(&fast, &reference);
        prop_assert_eq!(codec.decode(&fast).expect("round trip"), bytes);
    }
}

/// Drive the real binaries: a CFL-violating or non-finite solver override
/// must be rejected as a usage error (exit 2, structured message) by both
/// front ends, without running the workload.
#[test]
fn invalid_solver_config_is_a_usage_error_in_both_binaries() {
    let cases: [(&str, &[&str]); 3] = [
        (
            env!("CARGO_BIN_EXE_greenness"),
            &["case", "1", "--alpha", "nan"],
        ),
        (
            env!("CARGO_BIN_EXE_greenness"),
            &["case", "2", "--dt", "1e9"],
        ),
        (env!("CARGO_BIN_EXE_repro"), &["--alpha", "-1.0", "table1"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} {args:?} must exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("invalid solver config"),
            "{bin} {args:?} stderr: {stderr}"
        );
    }
}

/// An unknown artifact name is a usage error like any other: `repro`
/// exits 2 and lists what it can regenerate, instead of panicking.
#[test]
fn unknown_repro_artifact_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "bogus"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "got {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown artifact 'bogus'") && stderr.contains("fig10"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no artifact may run first");
}

/// A grid output path that cannot be written is reported with exit 1 once
/// the grid has run, not a panic (exit 101).
#[test]
fn unwritable_grid_output_is_an_error_not_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_greenness"))
        .args(["cluster", "--kind", "insitu", "-j", "1"])
        .args(["--metrics", "/nonexistent-dir/metrics.json"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "got {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot write /nonexistent-dir/metrics.json"),
        "stderr: {stderr}"
    );
}
