//! The one grid runner. The pipeline [`sweep`](crate::sweep), the
//! [`placement`](crate::placement) grid and the
//! [`cluster_sweep`](crate::cluster_sweep) all run here: unique job keys,
//! jobs on the `greenness-pool` work-stealing pool, results in submission
//! order, the lowest-id failure reported, and one assembly each for the
//! traced journal, the metrics file and the manifest framing. Every output
//! is a pure function of the results, so it is byte-identical for any
//! worker count.

use std::fmt::Display;

use greenness_pool::run_pool;
use greenness_trace::{escape_json, MetricsRegistry, Tracer};

/// Progress notification passed to the `on_done` callback of a grid run:
/// `(jobs finished so far, total jobs, key of the job that just finished)`.
pub type Progress<'a> = &'a (dyn Fn(usize, usize, &str) + Sync);

/// No-op progress callback for callers that don't report.
pub fn silent_progress() -> impl Fn(usize, usize, &str) + Sync {
    |_, _, _| {}
}

/// Why a grid batch could not produce a complete result set.
///
/// The runner never panics on caller input: a job that panics is caught on
/// its worker thread and reported as a value, so one bad batch fails only its
/// own caller — a long-lived server keeps serving, and the pool state (which
/// is all per-call) cannot be poison-cascaded into later batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// Two submitted jobs share a key; they would silently collapse into one
    /// manifest entry.
    DuplicateKey {
        /// The colliding key.
        key: String,
    },
    /// A job panicked while executing; the rest of the batch still ran.
    JobPanicked {
        /// Job id (submission index).
        id: usize,
        /// The job's key.
        key: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A job's run reported an error (bad solver config, device too
    /// small…); the rest of the batch still ran.
    JobFailed {
        /// Job id (submission index).
        id: usize,
        /// The job's key.
        key: String,
        /// The job's error, rendered.
        message: String,
    },
    /// A job neither returned nor reported a panic (a worker died without
    /// delivering — should be unreachable).
    JobLost {
        /// Job id (submission index).
        id: usize,
        /// The job's key.
        key: String,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::DuplicateKey { key } => {
                write!(f, "sweep jobs must have unique keys; '{key}' repeats")
            }
            SweepError::JobPanicked { id, key, message } => {
                write!(f, "sweep job {id} ({key}) panicked: {message}")
            }
            SweepError::JobFailed { id, key, message } => {
                write!(f, "sweep job {id} ({key}) failed: {message}")
            }
            SweepError::JobLost { id, key } => {
                write!(f, "sweep job {id} ({key}) finished without a result")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Execute `jobs` on `workers` threads and return their outputs in
/// submission order.
///
/// `key` names each job; `execute` runs one on whatever worker picked it.
/// `workers` is clamped to `1..=jobs.len()`. `on_done` fires on the
/// *calling* thread as successful results arrive (arrival order is
/// scheduling-dependent; the returned `Vec` is not).
///
/// # Errors
/// [`SweepError::DuplicateKey`] when two jobs share a key (the smallest such
/// key is reported); otherwise the lowest-id failure:
/// [`SweepError::JobFailed`] when `execute` returned `Err`,
/// [`SweepError::JobPanicked`] when it panicked. The remaining jobs still
/// run either way.
pub fn run_grid<J, R, E>(
    jobs: &[J],
    workers: usize,
    on_done: Progress<'_>,
    key: impl Fn(&J) -> String,
    execute: impl Fn(&J) -> Result<R, E> + Sync,
) -> Result<Vec<R>, SweepError>
where
    J: Sync,
    R: Send,
    E: Display + Send,
{
    let keys: Vec<String> = jobs.iter().map(key).collect();
    let mut sorted: Vec<&String> = keys.iter().collect();
    sorted.sort();
    if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(SweepError::DuplicateKey {
            key: pair[0].clone(),
        });
    }

    let total = jobs.len();
    let mut slots: Vec<Option<R>> = (0..total).map(|_| None).collect();
    let mut failures: Vec<(usize, bool, String)> = Vec::new();
    let mut finished = 0usize;
    run_pool(
        total,
        workers,
        &|idx| execute(&jobs[idx]),
        &mut |idx, outcome| match outcome {
            Ok(Ok(result)) => {
                finished += 1;
                on_done(finished, total, &keys[idx]);
                slots[idx] = Some(result);
            }
            Ok(Err(e)) => failures.push((idx, false, e.to_string())),
            Err(message) => failures.push((idx, true, message)),
        },
    );

    if let Some((id, panicked, message)) = failures.into_iter().min_by_key(|(id, _, _)| *id) {
        let key = keys[id].clone();
        return Err(if panicked {
            SweepError::JobPanicked { id, key, message }
        } else {
            SweepError::JobFailed { id, key, message }
        });
    }
    slots
        .into_iter()
        .zip(keys)
        .enumerate()
        .map(|(id, (slot, key))| slot.ok_or(SweepError::JobLost { id, key }))
        .collect()
}

/// Close a job's `run` span: the `run.end_s` and `energy.system_j` gauges, a
/// `run` metrics snapshot and the span's end event at `end_ns`; then drain
/// the tracer into the job's journal and metrics (both `None` when off).
pub fn close_run(
    tracer: &Tracer,
    end_ns: u64,
    end_s: f64,
    energy_j: f64,
) -> (Option<String>, Option<MetricsRegistry>) {
    tracer.gauge("run.end_s", end_s);
    tracer.gauge("energy.system_j", energy_j);
    tracer.snapshot("run");
    tracer.end(end_ns, "run", Vec::new());
    tracer
        .drain()
        .map_or((None, None), |out| (Some(out.journal), Some(out.metrics)))
}

/// What the shared journal and metrics assembly read from a finished cell.
pub trait GridResult {
    /// Submission index.
    fn id(&self) -> usize;
    /// The job's stable identity string.
    fn key(&self) -> &str;
    /// Seed echoed on the `job` begin event; `None` leaves the field out.
    fn seed(&self) -> Option<u64>;
    /// The job's headerless journal, when it ran traced.
    fn journal(&self) -> Option<&str>;
    /// Virtual end instant, nanoseconds (the `job` end event's `t_ns`).
    fn end_ns(&self) -> u64;
    /// The job's metrics registry, when it ran traced.
    fn metrics(&self) -> Option<&MetricsRegistry>;
}

/// Assemble the grid-level event journal: the `greenness-trace/v1` schema
/// header, then each traced job's journal wrapped in a `job` span, in job-id
/// order. Per-job journals use job-local virtual time (every job starts at
/// t = 0); the `job` begin event marks the clock reset for consumers.
/// Returns `None` when no job was traced.
pub fn journal<R: GridResult>(results: &[R]) -> Option<String> {
    if results.iter().all(|r| r.journal().is_none()) {
        return None;
    }
    let mut s = greenness_trace::journal_header();
    for r in results {
        let Some(journal) = r.journal() else {
            continue;
        };
        s.push_str(&format!(
            "{{\"t_ns\":0,\"ev\":\"begin\",\"name\":\"job\",\"job\":{},\"key\":{}",
            r.id(),
            quoted(r.key())
        ));
        if let Some(seed) = r.seed() {
            s.push_str(&format!(",\"seed\":{seed}"));
        }
        s.push_str("}\n");
        s.push_str(journal);
        s.push_str(&format!(
            "{{\"t_ns\":{},\"ev\":\"end\",\"name\":\"job\",\"job\":{}}}\n",
            r.end_ns(),
            r.id()
        ));
    }
    Some(s)
}

/// Render the grid-level metrics file (`greenness-metrics/v1`): one
/// registry per traced job, labeled by job key, in job-id order. Returns
/// `None` when no job was traced.
pub fn metrics_json<R: GridResult>(results: &[R]) -> Option<String> {
    let entries: Vec<(String, MetricsRegistry)> = results
        .iter()
        .filter_map(|r| r.metrics().map(|m| (r.key().to_string(), m.clone())))
        .collect();
    if entries.is_empty() {
        None
    } else {
        Some(greenness_trace::metrics_file_json(&entries))
    }
}

/// One `"name": value` line of a manifest; `value` is already JSON.
pub type Field = (&'static str, String);

/// A JSON string literal: `s` quoted and escaped.
pub fn quoted(s: &str) -> String {
    format!("\"{}\"", escape_json(s))
}

/// Frame a grid manifest: the `schema` line, the grid's own `header`
/// fields, then one object per result holding the `fields` it maps to, in
/// job-id order.
pub fn manifest_json<R>(
    schema: &str,
    header: &[Field],
    results: &[R],
    fields: impl Fn(&R) -> Vec<Field>,
) -> String {
    let mut s = format!("{{\n  \"schema\": \"{schema}\",\n");
    for (name, value) in header {
        s.push_str(&format!("  \"{name}\": {value},\n"));
    }
    s.push_str("  \"jobs\": [\n");
    let jobs: Vec<String> = results
        .iter()
        .map(|r| {
            let lines: Vec<String> = fields(r)
                .iter()
                .map(|(name, value)| format!("      \"{name}\": {value}"))
                .collect();
            format!("    {{\n{}\n    }}", lines.join(",\n"))
        })
        .collect();
    s.push_str(&jobs.join(",\n"));
    if !jobs.is_empty() {
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(j: &u32) -> String {
        format!("job{j}")
    }

    #[test]
    fn the_lowest_id_failure_is_reported_and_panics_are_values() {
        let jobs: Vec<u32> = (0..6).collect();
        let out = run_grid(&jobs, 3, &silent_progress(), key, |&j| {
            if j == 2 {
                panic!("boom");
            }
            if j >= 4 {
                return Err(format!("bad {j}"));
            }
            Ok(j)
        });
        assert_eq!(
            out,
            Err(SweepError::JobPanicked {
                id: 2,
                key: "job2".into(),
                message: "boom".into()
            })
        );
        let failed = run_grid(&jobs, 2, &silent_progress(), key, |&j| {
            if j % 3 == 1 {
                Err(format!("bad {j}"))
            } else {
                Ok(j)
            }
        });
        assert_eq!(
            failed,
            Err(SweepError::JobFailed {
                id: 1,
                key: "job1".into(),
                message: "bad 1".into()
            })
        );
    }

    #[test]
    fn manifest_framing_separates_entries_with_commas() {
        let fields = |n: &u32| vec![("n", n.to_string()), ("s", quoted("a\"b"))];
        assert_eq!(
            manifest_json("x/v1", &[("h", "1".into())], &[1u32, 2], fields),
            "{\n  \"schema\": \"x/v1\",\n  \"h\": 1,\n  \"jobs\": [\n    {\n      \"n\": 1,\n      \
             \"s\": \"a\\\"b\"\n    },\n    {\n      \"n\": 2,\n      \"s\": \"a\\\"b\"\n    }\n  ]\n}\n"
        );
        assert_eq!(
            manifest_json("x/v1", &[], &[] as &[u32], fields),
            "{\n  \"schema\": \"x/v1\",\n  \"jobs\": [\n  ]\n}\n"
        );
    }
}
