//! What one workload run hands back to the reporter, and the helpers every
//! workload uses to fill it: repeated set-up, timed passes, and the output
//! digests recorded in `expected.json`.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use greenness_core::sweep::Progress;
use greenness_serve::json::Json;
use greenness_trace::hash::{blake2s256, hex};

use crate::spans::Spans;
use crate::stats::{LatencyHistogram, Tally};
use crate::sys::cpu_time_s;

/// Worker threads every workload may use besides its one caller.
pub const WORKERS: usize = 2;

/// Host latency samples of one run.
#[derive(Debug, Clone)]
pub enum Latency {
    /// One sample per request.
    Requests(LatencyHistogram),
    /// Per pass, the completion time of each grid job counted from the start
    /// of the pass, milliseconds.
    Jobs(Vec<Vec<f64>>),
}

/// An untraced workload run.
#[derive(Debug)]
pub struct Measured {
    /// Set-up and pass timings.
    pub timings: Timings,
    /// Latency samples.
    pub latency: Latency,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Failed output checks, one line each. Non-empty means the run failed.
    pub problems: Vec<String>,
    /// Regime facts for the result file (workers, request counts…).
    pub regime: Vec<(&'static str, String)>,
}

/// A traced workload slice: per-layer values plus the spans behind them.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Failed checks.
    pub problems: Vec<String>,
    /// The recorded spans.
    pub spans: Spans,
    /// Regime facts for the result file.
    pub regime: Vec<(&'static str, String)>,
}

/// Share of the elapsed run that repeated set-ups may take.
const SETUP_SHARE: f64 = 0.05;

/// Per-repetition set-up seconds, and per-pass wall and process-CPU seconds.
#[derive(Debug, Default)]
pub struct Timings {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host wall seconds per pass.
    pub wall_s: Vec<f64>,
    /// Process user+sys CPU seconds per pass.
    pub cpu_s: Vec<f64>,
}

/// Set up, then run `pass` over the set-up state until `seconds` have
/// elapsed (at least once), timing each pass in wall and process-CPU
/// seconds. Each pass's output goes to `check` outside the timed interval,
/// so no output accumulates over the run. Between passes, while set-up has
/// taken under 5 % of the run, the state is dropped and set up again, timed,
/// and the next passes run on the new state: the set-up median then samples
/// the same host conditions as the passes, not only the first moment of the
/// run, and only one set-up state is ever alive.
pub fn run_timed<S, T>(
    seconds: f64,
    mut setup: impl FnMut() -> S,
    mut pass: impl FnMut(&mut S) -> T,
    mut check: impl FnMut(T),
) -> (S, Timings) {
    let start = Instant::now();
    let mut t = Timings::default();
    let mut timed_setup = |t: &mut Timings| {
        let t0 = Instant::now();
        let state = setup();
        t.setup_s.push(t0.elapsed().as_secs_f64());
        state
    };
    let mut state = timed_setup(&mut t);
    loop {
        let (t0, c0) = (Instant::now(), cpu_time_s());
        let out = pass(&mut state);
        t.cpu_s.push(cpu_time_s() - c0);
        t.wall_s.push(t0.elapsed().as_secs_f64());
        check(out);
        if start.elapsed().as_secs_f64() >= seconds {
            return (state, t);
        }
        if t.setup_s.iter().sum::<f64>() < SETUP_SHARE * start.elapsed().as_secs_f64() {
            drop(state);
            state = timed_setup(&mut t);
        }
    }
}

/// One grid pass: the sweep's results, and each job's completion time since
/// the pass started, in milliseconds.
pub type GridPass<R> = (Result<Vec<R>, String>, Vec<f64>);

/// Run one grid sweep, recording job completion times through the sweep's
/// progress callback.
pub fn grid_pass<R, E: std::fmt::Display>(
    sweep: impl FnOnce(Progress<'_>) -> Result<Vec<R>, E>,
) -> GridPass<R> {
    let t0 = Instant::now();
    let done = Mutex::new(Vec::new());
    let on_done = |_: usize, _: usize, _: &str| {
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        // A push leaves the vector valid at every step.
        done.lock().unwrap_or_else(PoisonError::into_inner).push(ms);
    };
    let results = sweep(&on_done).map_err(|e| e.to_string());
    (
        results,
        done.into_inner().unwrap_or_else(PoisonError::into_inner),
    )
}

/// Account one grid pass of `n` jobs: every job counts as attempted, a
/// failed sweep fails all of them, and a failed output `check` fails every
/// job of the pass.
pub fn tally_pass<R>(
    tally: &mut Tally,
    problems: &mut Vec<String>,
    n: usize,
    results: &Result<Vec<R>, String>,
    check: impl FnOnce(&[R], &mut Vec<String>) -> bool,
) {
    match results {
        Ok(results) => {
            for _ in results {
                tally.record(true);
            }
            if !check(results, problems) {
                tally.fail(results.len() as u64);
            }
        }
        Err(e) => {
            for _ in 0..n {
                tally.record(false);
            }
            problems.push(format!("sweep failed: {e}"));
        }
    }
}

/// BLAKE2s-256 of `text`, hex.
pub fn digest(text: &str) -> String {
    hex(&blake2s256(text.as_bytes()))
}

/// The digest recorded for `name` in `expected.json`.
pub fn expected_digest(name: &str) -> String {
    let doc = Json::parse(include_str!("../expected.json")).expect("expected.json parses");
    doc.get(name)
        .and_then(Json::as_str)
        .unwrap_or("missing from expected.json")
        .to_string()
}

/// Compare `text`'s digest with the recorded one; on mismatch, note it in
/// `problems` and return `false`.
pub fn check_digest(name: &str, text: &str, problems: &mut Vec<String>) -> bool {
    let (got, want) = (digest(text), expected_digest(name));
    if got != want {
        problems.push(format!("{name} digest {got} != recorded {want}"));
    }
    got == want
}
