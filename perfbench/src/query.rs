//! The two query workloads: `query_hot` (cache-hit read path through a
//! 4-shard fleet) and `query_cold` (miss-compute-insert-evict write path
//! plus steering sessions on one service). Both are closed loops with one
//! caller: the next request is sent when the previous reply is back.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use greenness_fleet::{Fleet, FleetConfig, Ring};
use greenness_serve::protocol::parse_request;
use greenness_serve::{Disposition, Service, ServiceConfig, SCHEMA};

use crate::gen::{
    body_of, cold_catalogue, cold_requests, hot_requests, id_of, Op, COLD_CACHE_BYTES,
};
use crate::measure::{check_digest, run_timed, Latency, Measured, Traced, WORKERS};
use crate::stats::{ok_envelope, LatencyHistogram, Tally};

/// `query_hot` requests per pass (about one second of hits).
pub const HOT_REQUESTS: usize = 100_000;
/// Requests in one traced `query_hot` slice.
const HOT_TRACED_REQUESTS: usize = 50_000;
/// `query_cold` requests per pass (a few seconds of misses).
pub const COLD_REQUESTS: usize = 1_000;

/// Every reply envelope starts with this, followed by the echoed id.
const REPLY_HEAD: &str = "{\"schema\":\"greenness-serve/v1\",\"id\":";

/// Everything a reply carries after the echoed id.
fn after_id<'a>(reply: &'a str, id: &str) -> Option<&'a str> {
    reply.strip_prefix(REPLY_HEAD)?.strip_prefix(id)
}

/// Drop the one history-dependent token of steering replies: whether a
/// what-if delta came from the engine's delta cache. The numbers are
/// identical either way; only the flag reflects earlier sessions.
fn normalize(tail: &str) -> String {
    tail.replace("cached=true", "cached=*")
        .replace("cached=false", "cached=*")
}

/// Per-body reference replies (everything after the id), filled from the
/// first reply seen for each body; later replies must match.
#[derive(Debug, Default)]
struct References {
    by_body: HashMap<String, String>,
}

impl References {
    /// Check `reply` for the request `line`; records the reference on first
    /// sight. `false` when the reply is not an ok envelope for this request
    /// or differs from the reference.
    fn check(&mut self, line: &str, reply: &str) -> bool {
        let Some(tail) = after_id(reply, id_of(line)) else {
            return false;
        };
        if !ok_envelope(reply) {
            return false;
        }
        let tail = normalize(tail);
        match self.by_body.get(body_of(line)) {
            Some(want) => *want == tail,
            None => {
                self.by_body.insert(body_of(line).to_string(), tail);
                true
            }
        }
    }

    /// Digest text over `bodies`, in the given order.
    fn log(&self, bodies: impl Iterator<Item = String>) -> String {
        bodies
            .map(|b| {
                let tail = self.by_body.get(&b).map_or("<missing>", String::as_str);
                format!("{b}\n{tail}\n")
            })
            .collect()
    }
}

// ---------------------------------------------------------------- hot ---

struct Hot {
    fleet: Fleet,
    lines: Vec<String>,
    /// Per request, the reply tail (after the id) every hit must carry.
    want: Vec<usize>,
    tails: Vec<String>,
    /// Reply text of each distinct body, sorted by body, for the digest.
    log: String,
    problems: Vec<String>,
}

fn hot_config() -> FleetConfig {
    FleetConfig {
        jobs: WORKERS,
        ..FleetConfig::default()
    }
}

/// Build the inputs and the fleet, and warm every shard's cache: each
/// distinct request is sent until the router replicates it to all of its
/// candidate shards.
fn hot_setup(seed: u64) -> Hot {
    let lines = hot_requests(seed, HOT_REQUESTS);
    let fleet = Fleet::new(hot_config());
    let mut index: HashMap<&str, usize> = HashMap::new();
    let mut want = Vec::with_capacity(lines.len());
    let mut tails: Vec<String> = Vec::new();
    let mut problems = Vec::new();
    for line in &lines {
        let body = body_of(line);
        let k = match index.get(body) {
            Some(&k) => k,
            None => {
                let mut first: Option<String> = None;
                for _ in 0..=fleet.config().hot_threshold {
                    let out = fleet.handle_line(line);
                    let tail = after_id(&out.line, id_of(line)).map(str::to_string);
                    if !ok_envelope(&out.line) || tail.is_none() {
                        problems.push(format!("warm-up failed for {line}: {}", out.line));
                    } else if first.is_none() {
                        first = tail;
                    } else if first != tail {
                        problems.push(format!("warm-up replies differ for {line}"));
                    }
                }
                tails.push(first.unwrap_or_default());
                index.insert(body, tails.len() - 1);
                tails.len() - 1
            }
        };
        want.push(k);
    }
    let mut sorted: Vec<(&str, usize)> = index.into_iter().collect();
    sorted.sort();
    let log = sorted
        .iter()
        .map(|(b, k)| format!("{b}\n{}\n", tails[*k]))
        .collect();
    Hot {
        fleet,
        lines,
        want,
        tails,
        log,
        problems,
    }
}

/// The untraced `query_hot` workload.
pub fn run_hot(seed: u64, seconds: f64) -> Measured {
    let mut latency = LatencyHistogram::default();
    let mut tally = Tally::default();
    let mut hits = 0u64;
    let mut problems = Vec::new();
    let (hot, timings) = run_timed(
        seconds,
        || {
            let mut hot = hot_setup(seed);
            problems.append(&mut hot.problems);
            hot
        },
        |hot| {
            for (line, &k) in hot.lines.iter().zip(&hot.want) {
                let t0 = Instant::now();
                let out = hot.fleet.handle_line(line);
                latency.record(t0.elapsed());
                hits += u64::from(out.disposition == Disposition::Hit);
                tally.record(after_id(&out.line, id_of(line)) == Some(hot.tails[k].as_str()));
            }
        },
        |()| {},
    );
    check_digest("query_hot.responses", &hot.log, &mut problems);
    if tally.failed > 0 {
        problems.push(format!(
            "{} replies differ from the warm-up reference",
            tally.failed
        ));
    }
    Measured {
        timings,
        latency: Latency::Requests(latency),
        tally,
        problems,
        regime: vec![
            (
                "workers",
                format!("{WORKERS} per shard (sweep handler), 1 caller, closed loop"),
            ),
            ("shards", hot_config().shards.to_string()),
            ("requests_per_pass", HOT_REQUESTS.to_string()),
            ("distinct_requests", hot.tails.len().to_string()),
            ("requests", tally.attempted.to_string()),
            ("cache_hits", hits.to_string()),
        ],
    }
}

/// Traced `query_hot` slice: per request, spans around a standalone
/// `parse_request`, the ring lookup, the fleet call, and the owning shard's
/// own `Service::handle_line` on the same line. All share the request id.
pub fn traced_hot(seed: u64) -> Traced {
    let Hot {
        fleet,
        lines,
        want,
        tails,
        log,
        problems,
    } = hot_setup(seed);
    let mut t = Traced {
        problems,
        ..Traced::default()
    };
    check_digest("query_hot.responses", &log, &mut t.problems);
    let cfg = hot_config();
    let ring = Ring::new(cfg.ring_seed, cfg.shards, cfg.vnodes);
    let (mut parse, mut route, mut router, mut hit) = (0.0, 0.0, 0.0, 0.0);
    let (mut hits, mut misses, mut shard_hits) = (0u64, 0u64, 0u64);
    for (i, (line, &k)) in lines
        .iter()
        .zip(&want)
        .take(HOT_TRACED_REQUESTS)
        .enumerate()
    {
        let id = i as u64;
        let s = &mut t.spans;
        s.begin(id, "request");
        s.begin(id, "serve.parse");
        let key = parse_request(line).map(|r| r.cache_key);
        parse += s.end();
        if let Ok(key) = key {
            s.begin(id, "fleet.route");
            black_box(ring.route(&key));
            route += s.end();
        }
        s.begin(id, "fleet.handle");
        let out = fleet.handle_line(line);
        let fleet_s = s.end();
        let shard = out.shard.and_then(|sh| fleet.shard_service(sh));
        let shard_s = match shard {
            Some(service) => {
                s.begin(id, "serve.handle");
                let own = service.handle_line(line);
                let secs = s.end();
                if own.disposition == Disposition::Hit {
                    shard_hits += 1;
                    hit += secs;
                }
                secs
            }
            None => 0.0,
        };
        s.end();
        router += fleet_s - shard_s;
        match out.disposition {
            Disposition::Hit => hits += 1,
            Disposition::Miss => misses += 1,
            _ => {}
        }
        t.tally
            .record(after_id(&out.line, id_of(line)) == Some(tails[k].as_str()));
    }
    let n = t.tally.attempted.max(1) as f64;
    t.values.extend([
        ("serve.parse_s", parse / n),
        ("fleet.route_s", route / n),
        ("fleet.router_s", router / n),
        ("serve.hit_s", hit / shard_hits.max(1) as f64),
        (
            "serve.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
    ]);
    t.regime = vec![("query_hot.traced_requests", t.tally.attempted.to_string())];
    t
}

// --------------------------------------------------------------- cold ---

fn cold_config() -> ServiceConfig {
    ServiceConfig {
        jobs: WORKERS,
        cache_bytes: COLD_CACHE_BYTES,
        ..ServiceConfig::default()
    }
}

/// Check the reference replies against the recorded digest. Catalogue
/// entries the run never drew are computed on a fresh service first, so the
/// digest covers the same bodies for every seed.
fn check_cold_log(refs: &mut References, problems: &mut Vec<String>) {
    let missing: Vec<String> = cold_catalogue()
        .into_iter()
        .map(|(_, b)| b)
        .filter(|b| !refs.by_body.contains_key(b))
        .collect();
    if !missing.is_empty() {
        // A session needs its whole script, in order, so every body of the
        // missing sessions is replayed with the missing cacheable ones.
        let service = Service::new(cold_config());
        for (_, body) in cold_catalogue() {
            if missing.contains(&body) {
                let line = format!("{{\"schema\":\"{SCHEMA}\",\"id\":0,{body}}}");
                let reply = service.handle_line(&line).line();
                if !refs.check(&line, &reply) {
                    problems.push(format!("catalogue request failed: {line} -> {reply}"));
                }
            }
        }
    }
    let log = refs.log(cold_catalogue().into_iter().map(|(_, b)| b));
    check_digest("query_cold.responses", &log, problems);
}

/// `query_cold` set-up: the request list, the first pass's service, and
/// each distinct replay template once on a throwaway service, so code pages
/// and allocator arenas are warm before timing. The flag says whether every
/// warm-up request succeeded.
fn cold_setup(seed: u64, n: usize) -> (Vec<(Op, String)>, Option<Service>, bool) {
    let scratch = Service::new(cold_config());
    let warm = cold_catalogue()
        .iter()
        .filter(|(op, _)| *op != Op::Steer)
        .all(|(_, body)| {
            let line = format!("{{\"schema\":\"{SCHEMA}\",\"id\":0,{body}}}");
            ok_envelope(&scratch.handle_line(&line).line())
        });
    (
        cold_requests(seed, n),
        Some(Service::new(cold_config())),
        warm,
    )
}

/// The untraced `query_cold` workload over passes of about `n` requests.
/// Each pass runs against a fresh service (the one built by the latest
/// set-up, else a new one): detached session names cannot be attached
/// again, and a new service costs microseconds against a pass of seconds.
pub fn run_cold(seed: u64, n: usize, seconds: f64) -> Measured {
    let mut latency = LatencyHistogram::default();
    let mut tally = Tally::default();
    let mut refs = References::default();
    let mut counters = [0u64; 4];
    const COUNTERS: [&str; 4] = [
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.cache.evictions",
        "serve.cache.rejected",
    ];
    let mut warm = true;
    let ((lines, _), timings) = run_timed(
        seconds,
        || {
            let (lines, service, ok) = cold_setup(seed, n);
            warm &= ok;
            (lines, service)
        },
        |(lines, first)| {
            let service = first.take().unwrap_or_else(|| Service::new(cold_config()));
            for (_, line) in lines.iter() {
                let t0 = Instant::now();
                let out = service.handle_line(line);
                latency.record(t0.elapsed());
                // Microseconds against milliseconds of work per request.
                tally.record(refs.check(line, &out.line()));
            }
            service.metrics_clone()
        },
        |metrics| {
            for (c, name) in counters.iter_mut().zip(COUNTERS) {
                *c += metrics.counter(name);
            }
        },
    );
    let mut problems = Vec::new();
    if !warm {
        problems.push("warm-up requests failed".to_string());
    }
    if tally.failed > 0 {
        problems.push(format!(
            "{} replies failed or differ from the first reply to the same request",
            tally.failed
        ));
    }
    check_cold_log(&mut refs, &mut problems);
    let [hits, misses, evictions, rejected] = counters;
    if hits > 0 {
        problems.push(format!(
            "{hits} cache hits: the mix no longer misses on every op"
        ));
    }
    Measured {
        timings,
        latency: Latency::Requests(latency),
        tally,
        problems,
        regime: vec![
            (
                "workers",
                format!("{WORKERS} (sweep handler), 1 caller, closed loop"),
            ),
            ("cache_bytes", COLD_CACHE_BYTES.to_string()),
            ("requests_per_pass", lines.len().to_string()),
            ("requests", tally.attempted.to_string()),
            ("cache_misses", misses.to_string()),
            ("cache_evictions", evictions.to_string()),
            ("cache_rejected", rejected.to_string()),
        ],
    }
}

/// Traced `query_cold` slice: one pass, a `serve.handle` span per request
/// under a `request` span sharing its id, reduced per op family.
pub fn traced_cold(seed: u64) -> Traced {
    let lines = cold_requests(seed, COLD_REQUESTS);
    let service = Service::new(cold_config());
    let mut t = Traced::default();
    let mut refs = References::default();
    let mut by_op: BTreeMap<Op, (f64, u64)> = BTreeMap::new();
    let (mut miss, mut misses) = (0.0, 0u64);
    for (i, (op, line)) in lines.iter().enumerate() {
        let id = i as u64;
        t.spans.begin(id, "request");
        t.spans.begin(id, "serve.handle");
        let out = service.handle_line(line);
        let secs = t.spans.end();
        t.spans.end();
        let e = by_op.entry(*op).or_default();
        e.0 += secs;
        e.1 += 1;
        if out.disposition == Disposition::Miss {
            miss += secs;
            misses += 1;
        }
        t.tally.record(refs.check(line, &out.line()));
    }
    check_cold_log(&mut refs, &mut t.problems);
    let metrics = service.metrics_clone();
    let mean = |op: Op| by_op.get(&op).map_or(0.0, |(s, n)| s / (*n).max(1) as f64);
    t.values.extend([
        ("serve.miss_s", miss / misses.max(1) as f64),
        (
            "serve.cache.evictions",
            metrics.counter("serve.cache.evictions") as f64,
        ),
        (
            "serve.cache.rejected",
            metrics.counter("serve.cache.rejected") as f64,
        ),
        ("serve.op.run_s", mean(Op::Run)),
        ("serve.op.compare_s", mean(Op::Compare)),
        ("serve.op.sweep_s", mean(Op::Sweep)),
        ("serve.op.whatif_s", mean(Op::Whatif)),
        ("serve.op.advisor_s", mean(Op::Advisor)),
        ("steer.op_s", mean(Op::Steer)),
        (
            "steer.ops",
            by_op.get(&Op::Steer).map_or(0, |(_, n)| *n) as f64,
        ),
    ]);
    t.regime = vec![("query_cold.traced_requests", lines.len().to_string())];
    t
}
