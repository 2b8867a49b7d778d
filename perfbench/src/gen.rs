//! Seeded request generators for the two query workloads. Both are pure
//! functions of `(seed, n)`: the program under test only ever sees the
//! generated lines.

use greenness_fleet::{fleet_workload, DEFAULT_UNIVERSE, DEFAULT_ZIPF_S};
use greenness_serve::{replay_workload, SCHEMA};

/// `query_hot`: the fleet's Zipf(1.1) mix over its 256-key universe.
pub fn hot_requests(seed: u64, n: usize) -> Vec<String> {
    fleet_workload(n, DEFAULT_UNIVERSE, DEFAULT_ZIPF_S, seed)
}

/// The op family of a `query_cold` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// `run`
    Run,
    /// `compare`
    Compare,
    /// `sweep`
    Sweep,
    /// `whatif`
    Whatif,
    /// `advisor`
    Advisor,
    /// any `steer.*` op
    Steer,
}

impl Op {
    /// The op family of a request body (`"op":"…"` first).
    fn of(body: &str) -> Op {
        let name = body
            .strip_prefix("\"op\":\"")
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_default();
        match name {
            "run" => Op::Run,
            "compare" => Op::Compare,
            "sweep" => Op::Sweep,
            "whatif" => Op::Whatif,
            "advisor" => Op::Advisor,
            _ => Op::Steer,
        }
    }

    /// Whether this op's result payload fits the `query_cold` cache budget
    /// ([`COLD_CACHE_BYTES`]). Only one such payload fits at a time, so a
    /// fitting key misses unless it repeats the previous fitting key, which
    /// the generator never emits.
    fn fits_cache(self) -> bool {
        matches!(self, Op::Run | Op::Advisor)
    }
}

/// Result-cache budget of the `query_cold` service, bytes: one `run` or
/// `advisor` payload (about 210 B) fits, two do not, and `compare`,
/// `sweep` and `whatif` payloads (450–1400 B) are rejected outright.
pub const COLD_CACHE_BYTES: usize = 300;

/// Sessions one request list may open: exactly the number a pass of
/// [`crate::query::COLD_REQUESTS`] requests opens. A detached session name
/// cannot be attached again, so every session gets its own name, `s0`, `s1`, …
const MAX_SESSIONS: usize = 10;

/// The serve layer's own request mix: the ten bodies that
/// `serve::harness::replay_workload` cycles through (`bench-serve
/// --replay`), i.e. run 3, compare 3, advisor 2, whatif 1 and sweep 1 in
/// ten, with repeats.
fn replay_templates() -> Vec<String> {
    replay_workload(10)
        .iter()
        .map(|line| body_of(line).to_string())
        .collect()
}

/// The scripted steering session of `greenness steer` and `bench-serve
/// --sessions`, without its mid-session re-attach (whose reply differs from
/// the first attach's on the same request body, so it cannot be checked
/// against a per-body reference): attach, four adjust/render rounds at 64²
/// and 96², detach.
fn steer_script(session: &str) -> Vec<String> {
    vec![
        format!(
            r#""op":"steer.attach","params":{{"session":"{session}","interval":2,"timesteps":12}}"#
        ),
        format!(r#""op":"steer.render","params":{{"session":"{session}","seq":1,"steps":3}}"#),
        format!(
            r#""op":"steer.adjust","params":{{"session":"{session}","seq":2,"kind":"io_interval","io_interval":3}}"#
        ),
        format!(r#""op":"steer.render","params":{{"session":"{session}","seq":3,"steps":3}}"#),
        format!(
            r#""op":"steer.adjust","params":{{"session":"{session}","seq":4,"kind":"resolution","width":96,"height":96}}"#
        ),
        format!(r#""op":"steer.render","params":{{"session":"{session}","seq":5,"steps":2}}"#),
        format!(
            r#""op":"steer.adjust","params":{{"session":"{session}","seq":6,"kind":"camera","colormap":"viridis","range":[0.0,0.3]}}"#
        ),
        format!(r#""op":"steer.render","params":{{"session":"{session}","seq":7,"steps":4}}"#),
        format!(r#""op":"steer.detach","params":{{"session":"{session}","seq":8}}"#),
    ]
}

/// Every distinct `query_cold` request body, in a fixed order that does not
/// depend on the seed: the distinct replay templates, then every session
/// script. The response-log digest is taken over this list.
pub fn cold_catalogue() -> Vec<(Op, String)> {
    let mut out: Vec<(Op, String)> = Vec::new();
    for body in replay_templates() {
        if !out.iter().any(|(_, b)| *b == body) {
            out.push((Op::of(&body), body));
        }
    }
    for k in 0..MAX_SESSIONS {
        out.extend(
            steer_script(&format!("s{k}"))
                .into_iter()
                .map(|b| (Op::Steer, b)),
        );
    }
    out
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether `cycle` keeps the cache cold after a previous fitting payload
/// `last_fit`: no fitting payload repeats the fitting payload before it.
fn keeps_cache_cold<'a>(cycle: &'a [String], mut last_fit: Option<&'a str>) -> bool {
    for body in cycle.iter().filter(|b| Op::of(b).fits_cache()) {
        if last_fit == Some(body.as_str()) {
            return false;
        }
        last_fit = Some(body);
    }
    true
}

/// `query_cold`: at least `n` request lines, each tagged with its op
/// family, in cycles of eleven: a seeded permutation of the ten replay
/// templates (so every cycle has the replay mix exactly), then one op of
/// the current steering session. Sessions run one after another; the one
/// open at the end runs to completion. A permutation that would repeat a
/// fitting payload back to back (a cache hit) is drawn again. Request ids
/// are sequential.
pub fn cold_requests(seed: u64, n: usize) -> Vec<(Op, String)> {
    let mut rng = seed ^ 0x636f_6c64_5f6d_6978; // "cold_mix"
    let templates = replay_templates();
    let mut bodies: Vec<String> = Vec::with_capacity(n + 16);
    let mut last_fit: Option<String> = None;
    let mut sessions = 0usize;
    let mut script: Vec<String> = Vec::new();
    while bodies.len() < n {
        let cycle = loop {
            let mut cycle = templates.clone();
            for i in (1..cycle.len()).rev() {
                cycle.swap(i, (splitmix64(&mut rng) % (i as u64 + 1)) as usize);
            }
            if keeps_cache_cold(&cycle, last_fit.as_deref()) {
                break cycle;
            }
        };
        if let Some(fit) = cycle.iter().rev().find(|b| Op::of(b).fits_cache()) {
            last_fit = Some(fit.clone());
        }
        bodies.extend(cycle);
        if script.is_empty() && sessions < MAX_SESSIONS {
            script = steer_script(&format!("s{sessions}"));
            script.reverse();
            sessions += 1;
        }
        bodies.extend(script.pop());
    }
    bodies.extend(script.into_iter().rev());
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| {
            (
                Op::of(&body),
                format!("{{\"schema\":\"{SCHEMA}\",\"id\":{i},{body}}}"),
            )
        })
        .collect()
}

/// The request body of a generated line: the members after the id, i.e.
/// the part that decides the response up to the echoed id.
pub fn body_of(line: &str) -> &str {
    let end = line.len() - usize::from(line.ends_with('}'));
    line.find(",\"op\"").map_or(line, |at| &line[at + 1..end])
}

/// The raw echoed id of a generated line.
pub fn id_of(line: &str) -> &str {
    let start = line.find("\"id\":").map_or(0, |at| at + 5);
    let end = line.find(",\"op\"").unwrap_or(start);
    &line[start..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_seed_and_n() {
        assert_eq!(hot_requests(7, 500), hot_requests(7, 500));
        assert_eq!(cold_requests(7, 500), cold_requests(7, 500));
        assert_eq!(hot_requests(7, 500)[..100], hot_requests(7, 100)[..]);
    }

    #[test]
    fn a_new_seed_changes_the_request_bytes() {
        assert_ne!(hot_requests(1, 500), hot_requests(2, 500));
        assert_ne!(cold_requests(1, 500), cold_requests(2, 500));
    }

    #[test]
    fn cold_mix_draws_only_catalogue_bodies_and_closes_every_session() {
        let catalogue: Vec<String> = cold_catalogue().into_iter().map(|(_, b)| b).collect();
        for seed in 0..8 {
            let reqs = cold_requests(seed, 400);
            assert!(reqs.len() >= 400);
            for (i, (op, line)) in reqs.iter().enumerate() {
                assert_eq!(id_of(line), i.to_string());
                assert_eq!(*op, Op::of(body_of(line)));
                assert!(catalogue.iter().any(|b| b == body_of(line)), "{line}");
            }
            for k in 0..MAX_SESSIONS {
                let attach = format!("\"session\":\"s{k}\",\"interval\"");
                let detach = format!("\"session\":\"s{k}\",\"seq\":8");
                let opened = reqs.iter().filter(|(_, l)| l.contains(&attach)).count();
                let closed = reqs.iter().filter(|(_, l)| l.contains(&detach)).count();
                assert!(opened <= 1, "seed {seed} session s{k} attached twice");
                assert_eq!(opened, closed, "seed {seed} session s{k}");
            }
        }
    }

    #[test]
    fn every_cycle_carries_the_replay_mix_exactly() {
        let mut templates = replay_templates();
        templates.sort();
        let count = |op| templates.iter().filter(|b| Op::of(b) == op).count();
        let mix = [Op::Run, Op::Compare, Op::Advisor, Op::Whatif, Op::Sweep].map(count);
        assert_eq!(mix, [3, 3, 2, 1, 1]);
        let reqs = cold_requests(3, crate::query::COLD_REQUESTS);
        for cycle in reqs.chunks(11).filter(|c| c.len() == 11) {
            let mut bodies: Vec<&str> = cycle[..10].iter().map(|(_, l)| body_of(l)).collect();
            bodies.sort_unstable();
            assert_eq!(bodies, templates);
            assert_eq!(cycle[10].0, Op::Steer);
        }
        let attaches = reqs
            .iter()
            .filter(|(_, l)| l.contains("steer.attach"))
            .count();
        assert_eq!(
            attaches, MAX_SESSIONS,
            "a full pass opens every catalogue session"
        );
    }

    #[test]
    fn fitting_payloads_never_repeat_back_to_back() {
        for seed in 0..8 {
            let reqs = cold_requests(seed, 2000);
            let fitting: Vec<&str> = reqs
                .iter()
                .filter(|(op, _)| op.fits_cache())
                .map(|(_, l)| body_of(l))
                .collect();
            assert!(fitting.windows(2).all(|w| w[0] != w[1]), "seed {seed}");
        }
    }
}
