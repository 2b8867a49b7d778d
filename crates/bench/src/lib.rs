//! # greenness-bench
//!
//! The benchmark harness and the command-line plumbing shared by the
//! `repro` binary (which regenerates every table and figure of the paper)
//! and the `greenness` binary's grid commands (`sweep`, `placement`,
//! `cluster`).
//!
//! All grid execution goes through `greenness_core::grid`, the
//! deterministic work-stealing runner: results, manifests, journals and
//! metrics files are bit-identical for any `--jobs` value.

pub mod perf;

use greenness_core::grid::{self, GridResult, Progress, SweepError};
use greenness_faults::FaultPlan;

/// Default worker count: one per available core, capped by the job count
/// inside the executor.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run one grid, logging `[tag] i/n done: key` per finished job and then the
/// host wall time to stderr, behind `log_prefix`. A failed grid prints
/// `{what} failed: …` and exits 1.
pub fn run_logged<R>(
    log_prefix: &str,
    tag: &str,
    what: &str,
    run: impl FnOnce(Progress<'_>) -> Result<Vec<R>, SweepError>,
) -> Vec<R> {
    let t0 = std::time::Instant::now();
    let results = run(&|done, total, key| eprintln!("[{tag}] {done}/{total} done: {key}"))
        .unwrap_or_else(|e| {
            eprintln!("{log_prefix}{what} failed: {e}");
            std::process::exit(1);
        });
    eprintln!(
        "{log_prefix}grid finished in {:.2} s host wall-clock",
        t0.elapsed().as_secs_f64()
    );
    results
}

/// The flags every grid command shares: `--jobs N` (or `-j N`),
/// `--trace PATH`, `--metrics PATH` and `--fault-seed N`, each also in its
/// `--flag=value` form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridFlags {
    /// Worker threads for the grid.
    pub jobs: usize,
    /// Where to write the grid's `greenness-trace/v1` journal.
    pub trace: Option<String>,
    /// Where to write the grid's `greenness-metrics/v1` file.
    pub metrics: Option<String>,
    /// Base seed of the grid's fault plan.
    pub fault_seed: Option<u64>,
}

/// Why the shared grid flags could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// The named flag ended the argument list without its value.
    MissingValue(String),
    /// A value did not parse; the message names what was expected.
    Invalid(String),
}

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlagError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            FlagError::Invalid(message) => f.write_str(message),
        }
    }
}

/// `(flag, value)` pairs taken out of an argument list, in order.
pub type FlagValues = Vec<(String, String)>;

/// Take every `--flag value` / `--flag=value` naming one of `flags` out of
/// `args`, in order, and return them with the other arguments, also in
/// order. The one flag scanner every grid command parses with.
///
/// # Errors
/// [`FlagError::MissingValue`] when such a flag ends `args` without a value.
pub fn take_flags(args: &[String], flags: &[&str]) -> Result<(FlagValues, Vec<String>), FlagError> {
    let (mut taken, mut rest) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => (flag, Some(value)),
            _ => (arg.as_str(), None),
        };
        if !flags.contains(&flag) {
            rest.push(arg.clone());
            continue;
        }
        let value = match inline {
            Some(value) => value.to_string(),
            None => it
                .next()
                .cloned()
                .ok_or_else(|| FlagError::MissingValue(flag.to_string()))?,
        };
        taken.push((flag.to_string(), value));
    }
    Ok((taken, rest))
}

/// Parse a flag's value, naming `what` was expected when it does not parse.
///
/// # Errors
/// [`FlagError::Invalid`] with the message `invalid {what}: {value}`.
pub fn parse_value<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, FlagError> {
    value
        .parse()
        .map_err(|_| FlagError::Invalid(format!("invalid {what}: {value}")))
}

impl GridFlags {
    /// Split the shared grid flags out of `args`. Every other argument is
    /// returned, in order, for the subcommand's own parser.
    ///
    /// # Errors
    /// [`FlagError`] when a flag lacks its value or a value does not parse.
    pub fn parse(args: &[String]) -> Result<(GridFlags, Vec<String>), FlagError> {
        let grid = ["--jobs", "-j", "--trace", "--metrics", "--fault-seed"];
        let (taken, rest) = take_flags(args, &grid)?;
        let mut flags = GridFlags {
            jobs: default_jobs(),
            trace: None,
            metrics: None,
            fault_seed: None,
        };
        for (flag, value) in taken {
            match flag.as_str() {
                "--trace" => flags.trace = Some(value),
                "--metrics" => flags.metrics = Some(value),
                "--fault-seed" => flags.fault_seed = Some(parse_value(&value, "fault seed")?),
                _ => flags.jobs = parse_value(&value, "worker count")?,
            }
        }
        Ok((flags, rest))
    }

    /// Either output flag turns on per-job tracing.
    pub fn traced(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    /// The grid's base fault plan; each job derives its own schedule from
    /// it and its key.
    pub fn faults(&self) -> Option<FaultPlan> {
        self.fault_seed.map(FaultPlan::with_seed)
    }

    /// Write a finished grid's outputs: `manifest` to `manifest_path` (under
    /// `./repro_out/`), then the journal and metrics file where the flags
    /// ask for them. Each write is logged to stderr behind `log_prefix`; a
    /// path that cannot be written exits 1 with the error.
    pub fn write_outputs<R: GridResult>(
        &self,
        log_prefix: &str,
        manifest_path: &str,
        manifest: &str,
        results: &[R],
    ) {
        // The flags that name these files also turned tracing on, so a
        // journal and metrics file exist whenever a path asks for one.
        let write = |path: &str, contents: &str| {
            let written =
                std::fs::create_dir_all("repro_out").and_then(|()| std::fs::write(path, contents));
            if let Err(e) = written {
                eprintln!("{log_prefix}cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("{log_prefix}wrote {path}");
        };
        write(manifest_path, manifest);
        if let Some(path) = &self.trace {
            write(path, &grid::journal(results).unwrap_or_default());
        }
        if let Some(path) = &self.metrics {
            write(path, &grid::metrics_json(results).unwrap_or_default());
        }
    }
}

#[cfg(test)]
mod tests {
    use greenness_core::sweep;
    use greenness_core::ExperimentSetup;

    use super::*;

    #[test]
    fn parallel_case_runs_are_ordered_and_complete() {
        // Scaled-down smoke test of the parallel runner path.
        let setup = ExperimentSetup::noiseless();
        let configs: Vec<_> = [(1u32, 1u64), (2, 2), (3, 8)]
            .into_iter()
            .map(|(n, interval)| (n, greenness_core::PipelineConfig::small(interval)))
            .collect();
        let jobs = sweep::config_grid(&setup, &configs);
        let results = sweep::run_sweep(jobs, 4, &sweep::silent_progress()).expect("sweep ok");
        let cases = sweep::comparisons(&results);
        assert_eq!(
            cases.iter().map(|c| c.case).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        for c in &cases {
            assert!(c.post.metrics.energy_j > 0.0);
        }
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn grid_flags_take_both_forms_and_pass_the_rest_through_in_order() {
        let raw =
            args("--scale paper -j 3 --trace=t --kind=post --metrics m --fault-seed=11 fig10");
        let (flags, rest) = GridFlags::parse(&raw).unwrap();
        let want = GridFlags {
            jobs: 3,
            trace: Some("t".into()),
            metrics: Some("m".into()),
            fault_seed: Some(11),
        };
        assert_eq!(flags, want);
        assert_eq!(rest, args("--scale paper --kind=post fig10"));
        let (taken, rest) = take_flags(&rest, &["--kind", "--scale"]).unwrap();
        let pairs = [("--scale", "paper"), ("--kind", "post")];
        assert_eq!(taken, pairs.map(|(f, v)| (f.to_string(), v.to_string())));
        assert_eq!(rest, args("fig10"));
    }

    #[test]
    fn grid_flag_errors_name_the_flag_or_the_value() {
        for (raw, message) in [
            ("--trace", "--trace needs a value"),
            ("--jobs=2 -j", "-j needs a value"),
            ("-j x", "invalid worker count: x"),
            ("--fault-seed=-1", "invalid fault seed: -1"),
        ] {
            let err = GridFlags::parse(&args(raw)).unwrap_err();
            assert_eq!(err.to_string(), message);
        }
    }
}
