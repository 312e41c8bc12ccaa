//! End-to-end daemon tests: restart replay, byte-identity across
//! worker counts, control plane, malformed frames and shedding.

use serve::client::{Addr, Client};
use serve::query::QueryOptions;
use serve::{QueryKind, Request, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use tc27x_sim::DeploymentScenario;
use workloads::LoadLevel;

fn scratch(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn server_with(
    dir: &std::path::Path,
    workers: usize,
    jobs: usize,
    queue_cap: usize,
    query: QueryOptions,
) -> (Server, Addr) {
    start_on(
        dir,
        workers,
        queue_cap,
        query,
        Arc::new(mbta::ExecEngine::new(jobs)),
    )
}

fn start_on(
    dir: &std::path::Path,
    workers: usize,
    queue_cap: usize,
    query: QueryOptions,
    engine: Arc<mbta::ExecEngine>,
) -> (Server, Addr) {
    let sock = dir.join(format!("daemon-{workers}-{}.sock", engine.jobs()));
    let server = Server::start(
        engine,
        ServerConfig {
            unix_socket: Some(sock.clone()),
            tcp_addr: None,
            state_dir: dir.join("state"),
            workers,
            queue_cap,
            global_queue_cap: queue_cap.max(64),
            retry_after_ms: 25,
            io_timeout_ms: 500,
            query,
        },
    )
    .expect("daemon must start");
    (server, Addr::Unix(sock))
}

fn server_on(
    dir: &std::path::Path,
    workers: usize,
    jobs: usize,
    queue_cap: usize,
) -> (Server, Addr) {
    server_with(dir, workers, jobs, queue_cap, QueryOptions::default())
}

fn batch() -> Vec<Request> {
    let mk = |i: usize, kind: QueryKind, budget: Option<u64>| Request {
        id: format!("r{i}"),
        tenant: if i.is_multiple_of(2) { "alpha" } else { "beta" }.to_string(),
        kind,
        budget,
        strict: false,
    };
    vec![
        mk(
            0,
            QueryKind::Bound {
                scenario: DeploymentScenario::LowTraffic,
                level: LoadLevel::Low,
            },
            None,
        ),
        mk(
            1,
            QueryKind::Bound {
                scenario: DeploymentScenario::LowTraffic,
                level: LoadLevel::Medium,
            },
            Some(1), // guaranteed ILP exhaustion → fallback provenance
        ),
        mk(
            2,
            QueryKind::Sweep {
                scenario: DeploymentScenario::LowTraffic,
                level: LoadLevel::Low,
            },
            None,
        ),
        mk(
            3,
            QueryKind::Rta {
                scenario: DeploymentScenario::LowTraffic,
                level: LoadLevel::Low,
                period: 50_000_000,
                deadline: 50_000_000,
            },
            None,
        ),
    ]
}

fn drive(addr: &Addr, reqs: &[Request]) -> Vec<String> {
    let mut client = Client::connect(addr, Duration::from_secs(120)).expect("connect");
    reqs.iter()
        .map(|r| client.request(r).expect("response"))
        .collect()
}

#[test]
fn restart_replays_byte_identical_at_different_worker_count() {
    let dir = scratch("replay");
    let reqs = batch();

    let (server_a, addr_a) = server_on(&dir, 2, 2, 64);
    let first = drive(&addr_a, &reqs);
    assert!(
        first[1].contains("\"provenance\":\"fallback=ftc\""),
        "budget-1 answer must be tagged as degraded: {}",
        first[1]
    );
    assert!(first[0].contains("\"provenance\":\"ilp\""));
    server_a.trigger_shutdown();
    server_a.wait();

    // "Restart": new engine, different worker count and job count.
    let (server_b, addr_b) = server_on(&dir, 4, 1, 64);
    assert!(
        server_b.recovery().responses >= reqs.len() as u64,
        "all bodies must replay from the store: {:?}",
        server_b.recovery()
    );
    assert!(server_b.recovery().profiles >= 2);
    let second = drive(&addr_b, &reqs);
    assert_eq!(first, second, "replayed responses must be byte-identical");
    server_b.trigger_shutdown();
    server_b.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restarted_daemon_keys_each_recipe_once_and_answers_identically() {
    let dir = scratch("recipes");
    let rta = |i: usize, period: u64| Request {
        id: format!("p{i}"),
        tenant: "alpha".to_string(),
        kind: QueryKind::Rta {
            scenario: DeploymentScenario::LowTraffic,
            level: LoadLevel::Low,
            period,
            deadline: period,
        },
        budget: None,
        strict: false,
    };
    let reqs = [rta(0, 40_000_000), rta(1, 41_000_000), rta(2, 42_000_000)];
    let start = |engine: &Arc<mbta::ExecEngine>| {
        start_on(&dir, 1, 64, QueryOptions::default(), Arc::clone(engine))
    };

    let engine_a = Arc::new(mbta::ExecEngine::new(1));
    let (server_a, addr_a) = start(&engine_a);
    let first = drive(&addr_a, &reqs);
    assert_eq!(
        engine_a.report().spec_hashes,
        2,
        "the first request keys both specs, the fresh periods none"
    );
    server_a.trigger_shutdown();
    server_a.wait();

    // Keep the profile store but drop the response store, so the
    // restarted daemon recomputes every body from primed profiles.
    std::fs::remove_file(dir.join("state").join("responses.store")).unwrap();
    let engine_b = Arc::new(mbta::ExecEngine::new(1));
    let (server_b, addr_b) = start(&engine_b);
    assert_eq!(server_b.recovery().responses, 0);
    assert!(server_b.recovery().profiles >= 2);
    let second = drive(&addr_b, &reqs);
    assert_eq!(first, second, "recomputed bodies must be byte-identical");
    let r = engine_b.report();
    assert_eq!(r.simulations_run, 0, "profiles come from the store");
    assert_eq!(r.spec_hashes, 2, "one hash per spec after a restart");
    server_b.trigger_shutdown();
    server_b.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn control_plane_and_malformed_frames() {
    let dir = scratch("control");
    let (server, addr) = server_on(&dir, 1, 1, 64);

    let mut c = Client::connect(&addr, Duration::from_secs(30)).expect("connect");
    let ping = Request {
        id: "p1".to_string(),
        tenant: "ops".to_string(),
        kind: QueryKind::Ping,
        budget: None,
        strict: false,
    };
    let resp = c.request(&ping).expect("ping answered");
    assert_eq!(
        resp,
        r#"{"id":"p1","tenant":"ops","status":"ok","kind":"ping"}"#
    );

    // A garbage frame must produce a clean error, not a hang or drop.
    c.send_raw(b"definitely not json").expect("send garbage");
    let err = c.recv().expect("error frame").expect("error body");
    assert!(err.contains("\"status\":\"error\""), "{err}");

    // Same connection still works afterwards.
    let resp2 = c.request(&ping).expect("ping after garbage");
    assert_eq!(resp, resp2);

    // Stats reflects the invalid frame.
    let stats = c
        .request(&Request {
            id: "s1".to_string(),
            tenant: "ops".to_string(),
            kind: QueryKind::Stats,
            budget: None,
            strict: false,
        })
        .expect("stats answered");
    assert!(stats.contains("\"kind\":\"stats\""));
    assert!(stats.contains("\"invalid_requests\":1"), "{stats}");

    server.trigger_shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_with_new_default_budget_never_replays_stale_bodies() {
    let dir = scratch("budget-default");
    let reqs = vec![Request {
        id: "d0".to_string(),
        tenant: "alpha".to_string(),
        kind: QueryKind::Bound {
            scenario: DeploymentScenario::LowTraffic,
            level: LoadLevel::Low,
        },
        budget: None,
        strict: false,
    }];
    // First run: default budget 1 forces every budget-less request
    // onto the fallback rung.
    let (server_a, addr_a) = server_with(
        &dir,
        2,
        2,
        64,
        QueryOptions {
            default_budget: Some(1),
        },
    );
    let first = drive(&addr_a, &reqs);
    assert!(
        first[0].contains("\"provenance\":\"fallback=ftc\""),
        "default budget 1 must degrade: {}",
        first[0]
    );
    server_a.trigger_shutdown();
    server_a.wait();

    // Second run, no default: the same budget-less request must be
    // *recomputed* under the scenario default — replaying the stored
    // body computed under default 1 would silently serve a degraded
    // bound with the wrong provenance.
    let (server_b, addr_b) = server_with(&dir, 2, 2, 64, QueryOptions::default());
    let second = drive(&addr_b, &reqs);
    assert!(
        second[0].contains("\"provenance\":\"ilp\""),
        "restart with a different default budget must not replay stale bodies: {}",
        second[0]
    );
    server_b.trigger_shutdown();
    server_b.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_reading_client_is_dropped_not_wedged() {
    let dir = scratch("blackhole");
    let (server, addr) = server_on(&dir, 1, 1, 64);

    // Prime the cache so the flood below is answered inline — each
    // reply pushes bytes at a client that never reads them.
    let req = Request {
        id: "bh".to_string(),
        tenant: "hole".to_string(),
        kind: QueryKind::Bound {
            scenario: DeploymentScenario::LowTraffic,
            level: LoadLevel::Low,
        },
        budget: Some(2_000),
        strict: false,
    };
    let primed = drive(&addr, std::slice::from_ref(&req));
    assert!(primed[0].contains("\"status\":\"ok\""), "{}", primed[0]);

    // Pipeline far more duplicates than any socket buffer holds and
    // never read a byte back, keeping the connection open. Without a
    // write timeout the serving thread blocks in write_all forever
    // once the send buffer fills; with it, the daemon tears this
    // connection down after io_timeout (500ms here).
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let flood = {
        let addr = addr.clone();
        let req = req.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
            let mut sent = 0u32;
            for _ in 0..8_000 {
                if c.send(&req).is_err() {
                    break; // the daemon tore the connection down
                }
                sent += 1;
            }
            // Hold the (never-read) connection until the main thread
            // has observed the daemon dropping it.
            let _ = rx.recv();
            sent
        })
    };

    // The flooded connection must disappear from the active count
    // while the client still holds its end open; a fresh probe
    // connection is the only one left.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let mut dropped = false;
    while std::time::Instant::now() < deadline {
        let mut probe = Client::connect(&addr, Duration::from_secs(5)).expect("probe connect");
        let stats = probe
            .request(&Request {
                id: "s".to_string(),
                tenant: "ops".to_string(),
                kind: QueryKind::Stats,
                budget: None,
                strict: false,
            })
            .expect("stats answered while flooded");
        if stats.contains("\"active_connections\":1") {
            dropped = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(
        dropped,
        "non-reading connection must be dropped, not block the daemon"
    );
    drop(tx);
    let sent = flood.join().expect("flood thread");
    assert!(sent > 0, "flood must have pipelined something");

    // The daemon still serves normally afterwards.
    let after = drive(&addr, std::slice::from_ref(&req));
    assert_eq!(primed, after);
    server.trigger_shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saturated_tenant_queue_sheds_with_retry_hint() {
    let dir = scratch("shed");
    // One worker, queue cap 1: pipelining several distinct slow
    // requests under one tenant must shed at least one.
    let (server, addr) = server_on(&dir, 1, 1, 1);
    let levels = [LoadLevel::High, LoadLevel::Medium, LoadLevel::Low];
    let mut c = Client::connect(&addr, Duration::from_secs(120)).expect("connect");
    let reqs: Vec<Request> = (0..6)
        .map(|i| Request {
            id: format!("b{i}"),
            tenant: "hammer".to_string(),
            kind: QueryKind::Bound {
                scenario: if i % 2 == 0 {
                    DeploymentScenario::Scenario1
                } else {
                    DeploymentScenario::Scenario2
                },
                level: levels[i % 3],
            },
            budget: Some(2_000 + i as u64), // distinct fingerprints
            strict: false,
        })
        .collect();
    for r in &reqs {
        c.send(r).expect("send");
    }
    let mut shed = 0;
    let mut ok = 0;
    for _ in 0..reqs.len() {
        let resp = c.recv().expect("response").expect("body");
        if resp.contains("\"status\":\"overloaded\"") {
            assert!(resp.contains("\"retry_after_ms\":25"), "{resp}");
            shed += 1;
        } else {
            ok += 1;
        }
    }
    assert!(shed > 0, "cap-1 queue under a 6-burst must shed");
    assert!(ok > 0, "some requests must still be served");
    server.trigger_shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
