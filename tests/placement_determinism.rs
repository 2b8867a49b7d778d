//! Determinism suite for the placement sweep: the journal, the metrics
//! file, and the manifest are *byte-identical* regardless of worker count,
//! and repeated runs under the same fault seed reproduce exactly. This is
//! the property that makes the committed placement goldens meaningful —
//! any nondeterminism (thread scheduling, ambient randomness, wall-clock
//! leakage) would show up here as a single flipped byte.

use greenness_core::placement::{
    self, PlacementJob, PlacementScale, PlacementSetup, PlacementWorkload, PolicyKind,
};
use greenness_core::{grid, sweep};
use greenness_faults::FaultPlan;
use greenness_trace::hash::{blake2s256, hex};

fn traced_setup(fault_seed: Option<u64>) -> PlacementSetup {
    PlacementSetup {
        trace: true,
        faults: fault_seed.map(FaultPlan::with_seed),
        ..PlacementSetup::default()
    }
}

fn artifacts(setup: &PlacementSetup, workers: usize) -> (String, String, String) {
    let results = placement::run_placement(
        placement::placement_grid(),
        setup,
        workers,
        &sweep::silent_progress(),
    )
    .expect("placement grid runs");
    (
        grid::journal(&results).expect("journal recorded"),
        grid::metrics_json(&results).expect("metrics recorded"),
        placement::placement_manifest_json(PlacementScale::Small, &results),
    )
}

/// BLAKE2s of an artifact, hex: pins its bytes across commits.
fn digest(s: &str) -> String {
    hex(&blake2s256(s.as_bytes()))
}

/// Worker-count invariance: `--jobs 1` and `--jobs 8` produce the same
/// journal, metrics, and manifest, byte for byte.
#[test]
fn artifacts_are_worker_count_invariant() {
    let setup = traced_setup(None);
    let (j1, m1, man1) = artifacts(&setup, 1);
    let (j8, m8, man8) = artifacts(&setup, 8);
    assert_eq!(j1, j8, "journal must not depend on worker count");
    assert_eq!(m1, m8, "metrics must not depend on worker count");
    assert_eq!(man1, man8, "manifest must not depend on worker count");
    // Pinned across commits, not just across worker counts.
    assert_eq!(
        digest(&j1),
        "9b4af38bbfd55fffc6308f9d590130fd67ba408dca8b889f415654b510b884b8"
    );
    assert_eq!(
        digest(&m1),
        "bb03cd4eed75cddf5a0af7ae6502986b1ad32b297d6f9af81675dc9a6d2a5d30"
    );
    assert_eq!(
        digest(&man1),
        "ea6ded9306dbdda3126da9ec8f58b89c6a727ea11716811163c5f06d33c3388a"
    );
}

/// Fault-seed reproducibility: the same seed gives byte-identical
/// artifacts across repeated runs *and* across worker counts, and a
/// different seed genuinely changes the outcome (the suite would be
/// vacuous if the injectors never fired).
#[test]
fn fault_seeded_runs_reproduce_exactly() {
    let setup = traced_setup(Some(42));
    let (j_a, m_a, man_a) = artifacts(&setup, 8);
    let (j_b, m_b, man_b) = artifacts(&setup, 3);
    assert_eq!(j_a, j_b, "same seed, different schedule: journal diverged");
    assert_eq!(m_a, m_b, "same seed, different schedule: metrics diverged");
    assert_eq!(
        man_a, man_b,
        "same seed, different schedule: manifest diverged"
    );

    assert_eq!(
        digest(&j_a),
        "30c23b006171a72ee6a7e5548ee96558a5943a324728c7be5f0e4c011ebe45f7"
    );
    assert_eq!(
        digest(&m_a),
        "04bdf6faa468cac2275d9c1f1db91a59c4876461789969c8fc2512fc879be79e"
    );
    assert_eq!(
        digest(&man_a),
        "3429f735394d293d181238f2e038d65c8a03a36167df55a08a45efc72b43be50"
    );

    let (_, _, man_other) = artifacts(&traced_setup(Some(43)), 8);
    assert_ne!(
        man_a, man_other,
        "a different fault seed must perturb the run"
    );
}

/// Tracing is observation, not perturbation: energies and virtual times
/// are bit-identical with and without the tracer attached.
#[test]
fn tracing_does_not_perturb_the_run() {
    let jobs = vec![
        PlacementJob {
            workload: PlacementWorkload::RandomAccess,
            policy: PolicyKind::FreqRecency,
        },
        PlacementJob {
            workload: PlacementWorkload::SeqScan,
            policy: PolicyKind::Noop,
        },
    ];
    let traced = placement::run_placement(
        jobs.clone(),
        &traced_setup(None),
        2,
        &sweep::silent_progress(),
    )
    .expect("traced run");
    let untraced = placement::run_placement(
        jobs,
        &PlacementSetup::default(),
        2,
        &sweep::silent_progress(),
    )
    .expect("untraced run");
    for (t, u) in traced.iter().zip(untraced.iter()) {
        assert_eq!(t.key, u.key);
        assert_eq!(
            t.energy_j.to_bits(),
            u.energy_j.to_bits(),
            "{}: tracing changed the energy",
            t.key
        );
        assert_eq!(
            t.end_ns, u.end_ns,
            "{}: tracing changed virtual time",
            t.key
        );
        assert_eq!(
            t.read_energy_j.to_bits(),
            u.read_energy_j.to_bits(),
            "{}: tracing changed read-phase energy",
            t.key
        );
    }
}

/// Per-job seeds depend on the workload only, never the policy: every
/// policy must face the identical access stream, or the policy comparison
/// measures luck instead of placement.
#[test]
fn access_seed_is_policy_blind() {
    for w in PlacementWorkload::ALL {
        let seeds: Vec<u64> = PolicyKind::ALL
            .iter()
            .map(|&p| {
                PlacementJob {
                    workload: w,
                    policy: p,
                }
                .access_seed()
            })
            .collect();
        assert!(
            seeds.windows(2).all(|s| s[0] == s[1]),
            "{}: access seed varies by policy",
            w.label()
        );
    }
}
