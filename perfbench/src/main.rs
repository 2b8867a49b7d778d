//! The repo benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_grid|query_hot|query_cold|cluster_grid> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload runs untraced for `--seconds` and the
//! end-to-end metrics are reported. With `--trace 1` every workload runs a
//! traced slice (the named one repeats its slice for `--seconds`) and the
//! per-layer metrics are reported. Outputs are checked before any number is
//! printed; the last stdout line is the JSON result, and a fuller result
//! file (with the regime) lands in `perfbench/out/`. See
//! `perfbench/README.md` for the workloads and metrics.

mod cluster;
mod gen;
mod measure;
mod paper;
mod query;
mod spans;
mod stats;
mod sys;

use std::collections::BTreeMap;
use std::time::Instant;

use greenness_trace::escape_json;

use measure::{Latency, Measured, Traced};
use stats::{median, Tally};

/// The workloads, in report order.
const WORKLOADS: [&str; 4] = ["paper_grid", "query_hot", "query_cold", "cluster_grid"];

/// End-to-end metrics reported with tracing off, with units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics reported by the traced run, with units.
const PER_LAYER: [(&str, &str); 41] = [
    ("heatsim.step_s", "s"),
    ("heatsim.steps", "count"),
    ("heatsim.serialize_s", "s"),
    ("heatsim.serialize_bytes", "bytes"),
    ("viz.render_s", "s"),
    ("viz.frames", "count"),
    ("viz.encode_s", "s"),
    ("core.verify_s", "s"),
    ("core.job_setup_s", "s"),
    ("storage.write_s", "s"),
    ("storage.read_s", "s"),
    ("storage.sync_s", "s"),
    ("storage.bytes_written", "bytes"),
    ("storage.bytes_read", "bytes"),
    ("platform.execute_s", "s"),
    ("platform.activities", "count"),
    ("power.measure_s", "s"),
    ("pool.idle_s", "s"),
    ("pool.efficiency", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("serve.parse_s", "s"),
    ("serve.hit_s", "s"),
    ("serve.hit_ratio", "ratio"),
    ("fleet.route_s", "s"),
    ("fleet.router_s", "s"),
    ("serve.miss_s", "s"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.rejected", "count"),
    ("serve.op.run_s", "s"),
    ("serve.op.compare_s", "s"),
    ("serve.op.sweep_s", "s"),
    ("serve.op.whatif_s", "s"),
    ("serve.op.advisor_s", "s"),
    ("steer.op_s", "s"),
    ("steer.ops", "count"),
    ("cluster.post_s", "s"),
    ("cluster.insitu_s", "s"),
    ("cluster.intransit_s", "s"),
    ("codec.wire_ratio", "ratio"),
    ("codec.ratio", "ratio"),
];

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{value}'"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed wants an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| usage("--seconds wants a non-negative number")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace wants 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// The end-to-end metric values of an untraced run. A latency percentile
/// that cannot be reported is a problem, and reads 0.
fn end_to_end(m: &Measured, problems: &mut Vec<String>) -> BTreeMap<&'static str, f64> {
    let (p50, p99) = match &m.latency {
        Latency::Requests(h) => (h.percentile_ms(0.5), h.percentile_ms(0.99)),
        // A grid pass has 6 or 9 jobs, far fewer than the 1000 a p99 with
        // ten samples beyond it needs: p50 is the median job completion and
        // p99 the last one (the pass's straggler), each a median over passes.
        Latency::Jobs(passes) => {
            let per_pass = |f: fn(&[f64]) -> Option<f64>| {
                median(&passes.iter().filter_map(|p| f(p)).collect::<Vec<_>>())
            };
            (
                per_pass(median),
                per_pass(|p| p.iter().copied().reduce(f64::max)),
            )
        }
    };
    let mut latency = |name: &str, v: Option<f64>| {
        v.unwrap_or_else(|| {
            problems.push(format!("{name}: too few samples to report"));
            0.0
        })
    };
    BTreeMap::from([
        ("setup_s", median(&m.timings.setup_s).unwrap_or(0.0)),
        ("wall_s", median(&m.timings.wall_s).unwrap_or(0.0)),
        ("cpu_s", median(&m.timings.cpu_s).unwrap_or(0.0)),
        ("peak_rss_mb", sys::peak_rss_mb()),
        ("latency_p50_ms", latency("latency_p50_ms", p50)),
        ("latency_p99_ms", latency("latency_p99_ms", p99)),
    ])
}

/// Run every workload's traced slice; the named workload repeats its slice
/// until `seconds` have passed and reports the mean over repeats.
fn traced_suite(args: &Args) -> Report {
    let t0 = Instant::now();
    let mut values = BTreeMap::new();
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let mut regime = Vec::new();
    std::fs::create_dir_all(OUT_DIR).ok();
    for workload in WORKLOADS {
        let slice = || match workload {
            "paper_grid" => paper::traced(),
            "query_hot" => query::traced_hot(args.seed),
            "query_cold" => query::traced_cold(args.seed),
            _ => cluster::traced(),
        };
        let started = Instant::now();
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut repeats = 0usize;
        loop {
            let t: Traced = slice();
            if repeats == 0 {
                let path = format!("{OUT_DIR}/spans-{workload}-seed{}.jsonl", args.seed);
                if std::fs::write(&path, t.spans.to_jsonl()).is_err() {
                    problems.push(format!("could not write {path}"));
                }
                regime.extend(t.regime.iter().map(|(k, v)| (k.to_string(), v.clone())));
            }
            for (k, v) in &t.values {
                *sums.entry(k).or_insert(0.0) += v;
            }
            tally.add(t.tally);
            problems.extend(t.problems);
            repeats += 1;
            if workload != args.workload || started.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
        values.extend(sums.into_iter().map(|(k, v)| (k, v / repeats as f64)));
        regime.push((format!("{workload}.traced_repeats"), repeats.to_string()));
    }
    regime.push((
        "traced_wall_s".to_string(),
        t0.elapsed().as_secs_f64().to_string(),
    ));
    Report {
        values,
        units: &PER_LAYER,
        tally,
        problems,
        regime,
        series: Vec::new(),
    }
}

/// Where result files and span dumps go (inside the benchmark's directory,
/// ignored by git).
const OUT_DIR: &str = "perfbench/out";

fn json_str(s: &str) -> String {
    format!("\"{}\"", escape_json(s))
}

fn json_metrics(values: &BTreeMap<&'static str, f64>, units: &[(&str, &str)]) -> String {
    let body: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            // A value that was not measured already failed the run; keep the
            // line valid JSON anyway.
            let v = values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// What a run reports, before it is printed.
struct Report {
    values: BTreeMap<&'static str, f64>,
    units: &'static [(&'static str, &'static str)],
    tally: Tally,
    problems: Vec<String>,
    regime: Vec<(String, String)>,
    /// Per-pass and per-repetition samples behind the medians.
    series: Vec<(&'static str, Vec<f64>)>,
}

fn untraced(args: &Args) -> Report {
    let m = match args.workload {
        "paper_grid" => paper::run(args.seconds),
        "query_hot" => query::run_hot(args.seed, args.seconds),
        "query_cold" => query::run_cold(args.seed, query::COLD_REQUESTS, args.seconds),
        _ => cluster::run(args.seconds),
    };
    let mut problems = m.problems.clone();
    let values = end_to_end(&m, &mut problems);
    let mut regime: Vec<(String, String)> = m
        .regime
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    if let Latency::Requests(h) = &m.latency {
        regime.push(("latency_samples".to_string(), h.len().to_string()));
    }
    regime.push(("passes".to_string(), m.timings.wall_s.len().to_string()));
    regime.push((
        "setup_repetitions".to_string(),
        m.timings.setup_s.len().to_string(),
    ));
    Report {
        values,
        units: &END_TO_END,
        tally: m.tally,
        problems,
        regime,
        series: vec![
            ("setup_s", m.timings.setup_s),
            ("wall_s", m.timings.wall_s),
            ("cpu_s", m.timings.cpu_s),
        ],
    }
}

fn main() {
    let args = parse_args();
    let Report {
        values,
        units,
        tally,
        mut problems,
        mut regime,
        series,
    } = if args.trace {
        traced_suite(&args)
    } else {
        untraced(&args)
    };
    for (name, _) in units {
        if !values.get(name).is_some_and(|v| v.is_finite()) {
            problems.push(format!("{name} was not measured"));
        }
    }
    if tally.attempted == 0 {
        problems.push("no operation was attempted".to_string());
    }
    let correct = problems.is_empty() && tally.failed == 0;

    regime.splice(
        0..0,
        [
            ("nproc".to_string(), sys::nproc().to_string()),
            ("rustc".to_string(), sys::rustc_version()),
            ("commit".to_string(), sys::git_commit()),
            ("workload".to_string(), args.workload.to_string()),
            ("seed".to_string(), args.seed.to_string()),
            ("seconds".to_string(), args.seconds.to_string()),
            ("traced".to_string(), args.trace.to_string()),
        ],
    );
    let regime_json = format!(
        "{{{}}}",
        regime
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let metrics_json = json_metrics(&values, units);

    for p in &problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    for (name, unit) in units {
        println!(
            "{name:<24} {:>14} {unit}",
            values.get(name).copied().unwrap_or(0.0)
        );
    }
    println!("{:<24} {:>14} ratio", "failed_frac", tally.failed_frac());
    println!("regime {regime_json}");

    let series_json: Vec<String> = series
        .iter()
        .map(|(name, xs)| {
            let xs: Vec<String> = xs.iter().map(f64::to_string).collect();
            format!("{}: [{}]", json_str(name), xs.join(", "))
        })
        .collect();
    let file = format!(
        "{{\"schema\": \"greenness-perfbench/v1\", \"regime\": {regime_json}, \"correct\": {correct}, \
         \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \"problems\": [{}], \"metrics\": {metrics_json}, \
         \"series\": {{{}}}}}\n",
        tally.attempted,
        tally.failed,
        tally.failed_frac(),
        problems.iter().map(|p| json_str(p)).collect::<Vec<_>>().join(", "),
        series_json.join(", ")
    );
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, file))
        .is_err()
    {
        eprintln!("perfbench: could not write {path}");
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        tally.attempted, tally.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_serve::json::Json;

    fn names(section: &str) -> Vec<String> {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        match doc.get(section) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {section} list"),
        }
    }

    /// The workloads `BENCHMARK.json` gates. `query_hot` still runs on
    /// request and in the traced suite, but its timings follow the host's
    /// speed phases too closely to hold any bound (see `README.md`).
    const GATED: [&str; 3] = ["paper_grid", "query_cold", "cluster_grid"];

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layers);
        assert_eq!(names("workloads"), GATED);
        assert!(GATED.iter().all(|w| WORKLOADS.contains(w)));
    }

    #[test]
    fn a_new_seed_changes_requests_but_not_metric_names() {
        let run = |seed| {
            let m = query::run_cold(seed, 40, 0.0);
            let mut problems = Vec::new();
            let names: Vec<&str> = end_to_end(&m, &mut problems).into_keys().collect();
            (gen::cold_requests(seed, 40), names)
        };
        let (reqs1, names1) = run(1);
        let (reqs2, names2) = run(2);
        assert_ne!(reqs1, reqs2);
        assert_eq!(names1, names2);
        let mut want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        want.sort_unstable();
        assert_eq!(names1, want);
    }
}
