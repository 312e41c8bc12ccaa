//! The `serve-mixed` workload: a seeded request stream against an
//! in-process `contention-serve` daemon on a Unix socket (2 workers,
//! 2 closed-loop client connections).
//!
//! An untimed preparation phase asks a pool of 27 requests (bound, rta
//! and sweep over low, sc1 and sc2 at all three levels) once, which
//! fills the daemon's response and profile stores; the response store is
//! then padded to the size one run's stream leaves behind. Set-up
//! restarts the daemon onto those stores (`Server::start` replays them)
//! and connects the clients. The timed stream then mixes
//!
//! * repeats of pool requests — the read path, answered from the
//!   response store, and
//! * fresh requests with distinct fingerprints — the write path,
//!   `QueryEngine::answer` plus an fsync'd `Store::put` — in three
//!   classes by scenario (`low`, `sc1`, `sc2`).
//!
//! Class shares are exact in every block of 20 requests (a seeded
//! shuffle inside each block), so every seed runs the same cost mix, the
//! blocks serve as the windows of the latency metrics, and the median
//! and tail fall inside fresh classes. Every response body is compared with an in-process
//! `QueryEngine::answer` oracle; the oracle pass doubles as the traced
//! run's layer replay.

use crate::{
    apportion, fastest, latency_metrics, median, metrics_from, peak_rss_mb, ratio, shuffle,
    Failures, Report, RunConfig, END_TO_END, PER_LAYER, SETUPS,
};
use mbta::{ExecEngine, Store};
use serve::client::{Addr, Client};
use serve::proto::splice_identity;
use serve::{QueryEngine, QueryKind, QueryOptions, Request, Server, ServerConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tc27x_sim::rng::SplitMix64;
use tc27x_sim::DeploymentScenario;
use workloads::LoadLevel;

/// Daemon workers and closed-loop client connections.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;

/// Stream shares per request class, percent: cached repeats, then fresh
/// `low`, `sc1` and `sc2` requests. The median lands inside the sc1
/// class (25–90 % of the sorted round trips) and the tail inside the
/// sc2 class (90–100 %).
const WEIGHTS: [u32; 4] = [10, 15, 65, 10];
/// Requests per block of the stream: each block holds the classes in
/// exact `WEIGHTS` shares.
const BLOCK: usize = 20;

const SCENARIOS: [DeploymentScenario; 3] = [
    DeploymentScenario::LowTraffic,
    DeploymentScenario::Scenario1,
    DeploymentScenario::Scenario2,
];
const LEVELS: [LoadLevel; 3] = [LoadLevel::High, LoadLevel::Medium, LoadLevel::Low];

/// One entry of the request stream.
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    /// Class index into [`WEIGHTS`]: 0 for a cached repeat, 1–3 for a
    /// fresh `low`, `sc1` or `sc2` request.
    pub(crate) class: usize,
    /// The request as sent.
    pub(crate) request: Request,
}

fn request(id: String, tenant: &str, kind: QueryKind, budget: Option<u64>) -> Request {
    Request {
        id,
        tenant: tenant.to_string(),
        kind,
        budget,
        strict: false,
    }
}

/// The preparation pool: bound, rta and sweep for every scenario and
/// level, at the default budget.
pub(crate) fn pool() -> Vec<Request> {
    let mut out = Vec::new();
    for (s, &scenario) in SCENARIOS.iter().enumerate() {
        for (l, &level) in LEVELS.iter().enumerate() {
            let period = 10_000_000 + 1_000_000 * (3 * s + l) as u64;
            for kind in [
                QueryKind::Bound { scenario, level },
                QueryKind::Rta {
                    scenario,
                    level,
                    period,
                    deadline: period,
                },
                QueryKind::Sweep { scenario, level },
            ] {
                out.push(request(format!("prep{}", out.len()), "prep", kind, None));
            }
        }
    }
    out
}

/// The timed stream of `ops` requests. Repeats draw from the pool.
/// Fresh requests differ from every earlier one through a distinct rta
/// period or a distinct above-need node budget: `low` requests are
/// bound, rta or sweep; `sc1` requests are bound or rta (an sc1 sweep's
/// co-run would split the class in two); `sc2` requests are rta (their
/// ILP exhausts any budget, so a distinct budget would change the
/// cost). Each class is thus one cost level on every seed.
pub(crate) fn stream(ops: usize, seed: u64) -> Vec<Entry> {
    let mut rng = SplitMix64::new(seed ^ 0x5e77_e11e_d0c5_7a3d);
    let pool = pool();
    let mut deck: Vec<usize> = Vec::with_capacity(ops);
    for start in (0..ops).step_by(BLOCK) {
        let mut block: Vec<usize> = apportion(BLOCK.min(ops - start), &WEIGHTS)
            .into_iter()
            .enumerate()
            .flat_map(|(class, n)| std::iter::repeat_n(class, n))
            .collect();
        shuffle(&mut block, &mut rng);
        deck.extend(block);
    }

    let mut seen: BTreeSet<u64> = pool.iter().map(Request::fingerprint).collect();
    let mut budgets: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut out = Vec::with_capacity(ops);
    for (i, class) in deck.into_iter().enumerate() {
        let id = format!("q{i}");
        let tenant = format!("c{}", i % CLIENTS);
        let req = if class == 0 {
            let p = &pool[rng.below(pool.len() as u64) as usize];
            request(id, &tenant, p.kind.clone(), p.budget)
        } else {
            let s = class - 1;
            let scenario = SCENARIOS[s];
            loop {
                let l = rng.below(LEVELS.len() as u64) as usize;
                let level = LEVELS[l];
                let pick = match s {
                    0 => rng.below(3),
                    1 => rng.below(2),
                    _ => 1,
                };
                let (kind, budget) = match pick {
                    1 => {
                        let period = 1_000_000 + rng.below(99_000_000);
                        (
                            QueryKind::Rta {
                                scenario,
                                level,
                                period,
                                deadline: period,
                            },
                            None,
                        )
                    }
                    k => {
                        // Low and sc1 pairs settle well inside the
                        // default 128 nodes, so any larger budget
                        // gives the same answer at the same cost.
                        let b = budgets.entry((s, l)).or_insert(1_000);
                        *b += 1;
                        let kind = if k == 0 {
                            QueryKind::Bound { scenario, level }
                        } else {
                            QueryKind::Sweep { scenario, level }
                        };
                        (kind, Some(*b))
                    }
                };
                let r = request(id.clone(), &tenant, kind, budget);
                if seen.insert(r.fingerprint()) {
                    break r;
                }
            }
        };
        out.push(Entry {
            class,
            request: req,
        });
    }
    out
}

/// Removes the run's state directory when dropped.
struct StateDir(PathBuf);

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run's state is left.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn config(state: &Path) -> ServerConfig {
    ServerConfig {
        unix_socket: Some(state.join("s.sock")),
        state_dir: state.to_path_buf(),
        workers: WORKERS,
        ..ServerConfig::default()
    }
}

fn connect(addr: &Addr) -> Result<Client, String> {
    Client::connect(addr, Duration::from_secs(60)).map_err(|e| format!("connect: {e}"))
}

/// A running daemon and its engine.
struct Daemon {
    server: Server,
    engine: Arc<ExecEngine>,
}

impl Daemon {
    fn start(state: &Path) -> Result<Daemon, String> {
        let engine = Arc::new(ExecEngine::new(1));
        let server = Server::start(Arc::clone(&engine), config(state))
            .map_err(|e| format!("daemon start: {e}"))?;
        Ok(Daemon { server, engine })
    }

    /// Stops the daemon; clients must be dropped first so connection
    /// threads see end-of-stream.
    fn stop(self) {
        self.server.trigger_shutdown();
        self.server.wait();
    }
}

/// Opens a store file as a restart does, with the namespace and
/// configuration fingerprint its header records.
fn replay_store(path: &Path) -> Result<(), String> {
    let (ns, cfg) =
        header_of(path).ok_or_else(|| format!("{}: no store header", path.display()))?;
    Store::open(path, &ns, cfg).map_err(|e| e.to_string())?;
    Ok(())
}

/// Records in the response store at set-up: the pool's answers plus
/// copies of them under keys no request hashes to. They stand in for
/// the history of a daemon that has served about one run's stream, so a
/// restart replays a store of that size.
const HISTORY: usize = 2_000;

/// Pads the response store the preparation phase filled to [`HISTORY`]
/// records.
fn pad_history(path: &Path) -> Result<(), String> {
    let (ns, cfg) =
        header_of(path).ok_or_else(|| format!("{}: no store header", path.display()))?;
    let (store, bodies, _) = Store::open(path, &ns, cfg).map_err(|e| e.to_string())?;
    let bodies: Vec<&String> = bodies.values().collect();
    for i in 0..HISTORY.saturating_sub(bodies.len()) {
        let key = mbta::store::content_key("perfbench-history", &[&i.to_string()]);
        store
            .put(key, bodies[i % bodies.len()])
            .map_err(|e| format!("history: {e}"))?;
    }
    Ok(())
}

/// What one client saw for one request.
struct Seen {
    index: usize,
    latency_ms: f64,
    body: Result<String, String>,
}

fn client_loop(addr: &Addr, mut client: Client, entries: &[(usize, &Entry)]) -> Vec<Seen> {
    let mut out = Vec::with_capacity(entries.len());
    for &(index, entry) in entries {
        let t0 = Instant::now();
        let mut body = client.request(&entry.request).map_err(|e| e.to_string());
        if body.is_err() {
            // A torn connection fails this request only; later ones
            // go out on a fresh connection.
            if let Ok(c) = connect(addr) {
                client = c;
            }
        }
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Ok(b) = &body {
            if b.contains("\"status\":\"overloaded\"") {
                body = Err(format!("shed: {b}"));
            }
        }
        out.push(Seen {
            index,
            latency_ms,
            body,
        });
    }
    out
}

/// The oracle's answer to one request, with its replay timings.
struct Expected {
    body: Result<String, String>,
    answer_s: f64,
    put_s: f64,
}

/// Answers every entry through an in-process `QueryEngine` on a fresh
/// engine that shares nothing with the daemon (no stores, no memo), on
/// one thread per daemon worker. Fresh answers are also appended to
/// `scratch` (an fsync'd store) when given, to time `Store::put`.
fn oracle(entries: &[Entry], scratch: Option<&Store>) -> Vec<Expected> {
    let engine = ExecEngine::new(1);
    // Repeats re-serve pool answers: answer each pool request once.
    let pool_bodies: BTreeMap<u64, Result<String, String>> = {
        let qe = QueryEngine::new(&engine, QueryOptions::default());
        pool()
            .iter()
            .map(|r| (r.fingerprint(), qe.answer(r).map(|a| a.body)))
            .collect()
    };
    let answer_one = |qe: &QueryEngine<'_>, entry: &Entry| -> Expected {
        let req = &entry.request;
        if entry.class == 0 {
            let body = pool_bodies
                .get(&req.fingerprint())
                .cloned()
                .unwrap_or_else(|| Err("repeat of a request outside the pool".to_string()));
            return Expected {
                body: body.map(|b| splice_identity(&req.id, &req.tenant, &b)),
                answer_s: 0.0,
                put_s: 0.0,
            };
        }
        let t0 = Instant::now();
        let answer = qe.answer(req);
        let answer_s = t0.elapsed().as_secs_f64();
        let mut put_s = 0.0;
        if let (Some(store), Ok(a)) = (scratch, &answer) {
            let t0 = Instant::now();
            let _ = store.put(req.fingerprint(), &a.body);
            put_s = t0.elapsed().as_secs_f64();
        }
        Expected {
            body: answer.map(|a| splice_identity(&req.id, &req.tenant, &a.body)),
            answer_s,
            put_s,
        }
    };
    let mut slots: Vec<Option<Expected>> = entries.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let engine = &engine;
                let answer_one = &answer_one;
                s.spawn(move || {
                    let qe = QueryEngine::new(engine, QueryOptions::default());
                    entries
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(WORKERS)
                        .map(|(i, e)| (i, answer_one(&qe, e)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            // A panicked oracle thread leaves its slots empty; each
            // becomes a failed op below.
            if let Ok(done) = h.join() {
                for (i, e) in done {
                    slots[i] = Some(e);
                }
            }
        }
    });
    slots
        .into_iter()
        .map(|e| {
            e.unwrap_or(Expected {
                body: Err("oracle thread panicked".to_string()),
                answer_s: 0.0,
                put_s: 0.0,
            })
        })
        .collect()
}

/// The `(namespace, config fingerprint)` a store file's header records.
fn header_of(path: &Path) -> Option<(String, u64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let header = text.lines().next()?;
    let field = |key: &str| {
        header
            .split_whitespace()
            .find_map(|w| w.strip_prefix(key))
            .map(|v| v.trim_end_matches(|c: char| !c.is_ascii_alphanumeric()))
    };
    let ns = field("ns=")?.to_string();
    let cfg = field("cfg=").and_then(|v| u64::from_str_radix(v.get(..16).unwrap_or(v), 16).ok())?;
    Some((ns, cfg))
}

/// Checks one served response against the oracle.
///
/// # Errors
///
/// A description of the mismatch.
pub fn check_response(
    index: usize,
    served: &Result<String, String>,
    expected: &Result<String, String>,
) -> Result<(), String> {
    match (served, expected) {
        (Err(e), _) => Err(format!("request {index}: {e}")),
        (_, Err(e)) => Err(format!("request {index}: oracle failed: {e}")),
        (Ok(got), Ok(want)) if got != want => Err(format!(
            "request {index}: body `{got}` differs from the oracle's `{want}`"
        )),
        _ => Ok(()),
    }
}

/// Runs `serve-mixed`.
///
/// # Errors
///
/// A preparation or set-up failure.
pub(crate) fn run(config: &RunConfig) -> Result<Report, String> {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let state = StateDir(PathBuf::from(format!(
        ".perfbench_state/serve-mixed-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    )));
    let _ = std::fs::remove_dir_all(&state.0);
    std::fs::create_dir_all(&state.0).map_err(|e| format!("state dir: {e}"))?;
    let addr = Addr::Unix(state.0.join("s.sock"));
    let entries = stream(config.ops, config.seed);

    // Preparation (untimed): answer the pool once to fill the stores.
    {
        let daemon = Daemon::start(&state.0)?;
        let mut client = connect(&addr)?;
        for req in pool() {
            let body = client.request(&req).map_err(|e| format!("prep: {e}"))?;
            if !body.contains("\"status\":\"ok\"") {
                return Err(format!("prep request failed: {body}"));
            }
        }
        drop(client);
        daemon.stop();
    }
    pad_history(&state.0.join("responses.store"))?;

    // Set-up: restart onto the filled stores and connect the clients.
    let responses = state.0.join("responses.store");
    let profiles = state.0.join("profiles.store");
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut replay_times = Vec::with_capacity(SETUPS);
    let mut live = None;
    for i in 0..SETUPS {
        if config.trace {
            let t0 = Instant::now();
            replay_store(&responses)?;
            replay_store(&profiles)?;
            replay_times.push(t0.elapsed().as_secs_f64());
        }
        let t0 = Instant::now();
        let daemon = Daemon::start(&state.0)?;
        let clients = (0..CLIENTS)
            .map(|_| connect(&addr))
            .collect::<Result<Vec<_>, _>>()?;
        setup_times.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            drop(clients);
            daemon.stop();
        } else {
            live = Some((daemon, clients));
        }
    }
    let Some((daemon, clients)) = live else {
        return Err("no set-up ran".to_string());
    };

    // Timed phase: each client sends its share of the stream closed-loop.
    let busy_before = daemon.engine.report().wall_seconds;
    let mut seen: Vec<Seen> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let mine: Vec<(usize, &Entry)> = entries
                    .iter()
                    .enumerate()
                    .skip(c)
                    .step_by(CLIENTS)
                    .collect();
                let addr = &addr;
                s.spawn(move || client_loop(addr, client, &mine))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let busy_s = daemon.engine.report().wall_seconds - busy_before;
    seen.sort_by_key(|s| s.index);

    let stats = connect(&addr).and_then(|mut c| {
        c.request(&request("stats".into(), "bench", QueryKind::Stats, None))
            .map_err(|e| e.to_string())
    });
    let memo = daemon.engine.report();
    daemon.stop();

    // Check every body against the oracle (and, traced, time the
    // layer calls on that replay).
    let scratch = if config.trace {
        let (store, _, _) = Store::open(&state.0.join("scratch.store"), "scratch", 0)
            .map_err(|e| format!("scratch store: {e}"))?;
        Some(store)
    } else {
        None
    };
    let expected = oracle(&entries, scratch.as_ref());

    let mut failures = Failures::default();
    let mut digest = obs::Fnv::new();
    let mut latencies = Vec::with_capacity(entries.len());
    let (mut ratio_sum, mut ratios, mut fallbacks, mut data) = (0.0, 0u64, 0u64, 0u64);
    let (mut cycles, mut nodes, mut solves) = (0u64, 0u64, 0u64);
    let mut class_answer = [0.0f64; 4];
    let mut class_count = [0u64; 4];
    let (mut fresh_rt, mut fresh_layers, mut put_sum) = (0.0, 0.0, 0.0);
    if seen.len() != entries.len() {
        return Err(format!(
            "{} of {} requests came back",
            seen.len(),
            entries.len()
        ));
    }
    for (k, (got, want)) in seen.iter().zip(&expected).enumerate() {
        let entry = &entries[k];
        latencies.push(got.latency_ms);
        if let Err(e) = check_response(k, &got.body, &want.body) {
            digest.write_str("failed");
            failures.push(e);
            continue;
        }
        let body = got.body.as_deref().unwrap_or_default();
        digest.write_str(body);
        let doc = obs::json::parse(body).map_err(|e| format!("request {k}: {e}"))?;
        let num = |key: &str| doc.get(key).and_then(obs::json::Json::as_f64);
        let int = |key: &str| doc.get(key).and_then(obs::json::Json::as_u64).unwrap_or(0);
        data += 1;
        if doc.get("provenance").and_then(obs::json::Json::as_str) == Some("fallback=ftc") {
            fallbacks += 1;
        }
        if let Some(r) = num("ratio") {
            ratio_sum += r;
            ratios += 1;
        }
        if entry.class != 0 {
            match &entry.request.kind {
                QueryKind::Sweep { .. } => cycles += int("observed_cycles"),
                _ => {
                    nodes += int("nodes_explored");
                    solves += 1;
                }
            }
            class_answer[entry.class] += want.answer_s;
            class_count[entry.class] += 1;
            fresh_rt += got.latency_ms / 1e3;
            fresh_layers += want.answer_s + want.put_s;
            put_sum += want.put_s;
        }
    }
    let n = entries.len() as f64;
    let fresh = class_count.iter().sum::<u64>() as f64;

    let metrics = if config.trace {
        let stats_doc = stats.ok().and_then(|b| obs::json::parse(&b).ok());
        let stat = |key: &str| {
            stats_doc
                .as_ref()
                .and_then(|d| d.get(key))
                .and_then(obs::json::Json::as_u64)
                .unwrap_or(0) as f64
        };
        let class_ms = |c: usize| ratio(class_answer[c] * 1e3, class_count[c] as f64);
        metrics_from(
            &PER_LAYER,
            &[
                ("tc27x-sim.busy_ms", busy_s * 1e3 / n),
                ("tc27x-sim.cycles", cycles as f64 / n),
                (
                    "tc27x-sim.host_ns_per_cycle",
                    ratio(busy_s * 1e9, cycles as f64),
                ),
                ("mbta.cache_hit_share", memo.hit_rate()),
                ("ilp.nodes", ratio(nodes as f64, solves as f64)),
                ("serve.answer_ms.low", class_ms(1)),
                ("serve.answer_ms.sc1", class_ms(2)),
                ("serve.answer_ms.sc2", class_ms(3)),
                ("mbta.store_put_ms", ratio(put_sum * 1e3, fresh)),
                ("mbta.store_replay_s", median(&replay_times)),
                (
                    "serve.overhead_ms",
                    ratio((fresh_rt - fresh_layers) * 1e3, fresh),
                ),
                (
                    "serve.hit_share",
                    ratio(
                        stat("cache_hits"),
                        stat("cache_hits") + stat("cache_misses"),
                    ),
                ),
                ("serve.shed", stat("shed")),
                // The layers are timed on the oracle replay, not on the
                // served requests, so this compares two runs of the
                // stream. No span runs on the served path, so tracing
                // costs it nothing: `trace_overhead` stays 0.
                (
                    "residual_share",
                    1.0 - ratio(fresh_layers * 1e3, latencies.iter().sum()),
                ),
            ],
        )
    } else {
        let (p50, tail, rate) = latency_metrics(&latencies, BLOCK, CLIENTS);
        metrics_from(
            &END_TO_END,
            &[
                ("setup_s", fastest(&setup_times)),
                ("op_p50_ms", p50),
                ("op_tail_ms", tail),
                ("ops_per_s", rate),
                ("peak_rss_mb", peak_rss_mb()),
                ("bound_ratio_mean", ratio(ratio_sum, ratios as f64)),
                ("ilp_share", ratio((data - fallbacks) as f64, data as f64)),
            ],
        )
    };
    Ok(Report {
        attempted: entries.len() as u64,
        failed: failures.count(),
        failures: failures.into_messages(),
        digest: digest.finish(),
        metrics,
    })
}
