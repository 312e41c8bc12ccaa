//! The daemon: listeners, connection threads, the worker pool and the
//! crash-recovery stores.
//!
//! Layout:
//!
//! ```text
//! acceptor (unix) ─┐                         ┌─ worker 0 ─┐
//! acceptor (tcp) ──┤→ conn threads → admission→ worker 1 ─┤→ stores → reply
//!                  │   (parse, control       └─ worker N ─┘
//!                  │    plane, cache hits)
//! ```
//!
//! Every accepted connection gets a read timeout (slow-loris defence)
//! *and* a write timeout (slow-reader defence: a client that pipelines
//! requests and never reads replies would otherwise block the serving
//! thread forever inside `write_all` once its socket buffer fills — a
//! timed-out write tears the connection down instead), plus its own
//! reader thread; replies go through a per-connection
//! writer mutex so frames never interleave. Data-plane requests flow
//! through [`crate::Admission`] into a fixed worker pool; control
//! frames (`ping`/`stats`/`shutdown`) are answered inline so a
//! saturated queue can never starve liveness probes.
//!
//! Crash recovery: every computed response body is `put` into a
//! content-addressed [`mbta::Store`] *before* the reply frame is
//! written (write-ahead). The profile store is the engine's durable
//! memo ([`mbta::ExecEngine::open_store`]): the engine appends every
//! simulation it runs as it completes. On restart both stores replay;
//! the profile store warms the engine's memo and responses are served
//! from cache byte-identically — at any worker count, because bodies
//! are identity- and schedule-free by construction (see
//! [`crate::query`]).

use crate::admission::{Admission, AdmissionOutcome};
use crate::proto::{
    read_frame, render_error, render_overloaded, splice_identity, write_frame, FrameError, Request,
};
use crate::query::{QueryEngine, QueryOptions};
use mbta::{ExecEngine, Store, Telemetry};
use obs::json::Val;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Fingerprint namespace for the serve stores. Deliberately constant
/// across `--jobs` and engine choices: recovery must replay regardless
/// of how the daemon is redeployed. (It does *not* need to encode
/// `--default-budget`: request fingerprints are taken over the
/// *effective* budget, resolved at ingress, so entries computed under
/// one default are never replayed for another.) v2 marks that keying
/// change — v1 stores keyed budget-less requests before resolution.
const STORE_CONFIG: &str = "contention-serve/v2";

/// Store fingerprint, bound to the platform the daemon simulates. The
/// default (paper TC27x) keeps the bare `STORE_CONFIG` hash, so every
/// existing store replays; any other description is folded in, so a
/// daemon restarted onto a different machine model refuses to replay
/// bodies computed for the old one.
fn store_config_fp(desc: &platform::PlatformDesc) -> u64 {
    if desc.is_default() {
        obs::fnv1a(STORE_CONFIG.as_bytes())
    } else {
        obs::fnv1a(format!("{STORE_CONFIG}+platform/{:016x}", desc.fingerprint()).as_bytes())
    }
}

/// A reply sink that can also tear its connection down. When a write
/// times out the frame is torn mid-stream, so the connection cannot be
/// reused — and the conn thread may be blocked in a read that only a
/// socket shutdown will interrupt.
trait ConnWriter: Write + Send {
    fn teardown(&self);
}

impl ConnWriter for UnixStream {
    fn teardown(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

impl ConnWriter for TcpStream {
    fn teardown(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Unix socket to listen on (removed and re-bound at start).
    pub unix_socket: Option<PathBuf>,
    /// TCP address to listen on, e.g. `127.0.0.1:0`.
    pub tcp_addr: Option<String>,
    /// Directory holding the persistent response/profile stores.
    pub state_dir: PathBuf,
    /// Worker threads computing data-plane answers.
    pub workers: usize,
    /// Per-tenant admission queue cap.
    pub queue_cap: usize,
    /// Global admission queue cap across all tenants. Tenants are
    /// client-chosen tokens, so this — not the per-tenant cap — is the
    /// real bound on queued memory.
    pub global_queue_cap: usize,
    /// Back-off hint echoed on shed requests, milliseconds.
    pub retry_after_ms: u64,
    /// Per-connection read *and* write timeout, milliseconds
    /// (slow-loris and slow-reader bound).
    pub io_timeout_ms: u64,
    /// Compute-plane options.
    pub query: QueryOptions,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            unix_socket: None,
            tcp_addr: None,
            state_dir: PathBuf::from("serve-state"),
            workers: 2,
            queue_cap: 64,
            global_queue_cap: 256,
            retry_after_ms: 50,
            io_timeout_ms: 2_000,
            query: QueryOptions::default(),
        }
    }
}

/// What restart replay recovered from the stores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Distinct response bodies replayed into the serve cache.
    pub responses: u64,
    /// Distinct isolation profiles replayed into the engine memo.
    pub profiles: u64,
    /// Torn-tail bytes truncated across both stores.
    pub truncated_bytes: u64,
}

struct Work {
    request: Request,
    fingerprint: u64,
    writer: Arc<Mutex<Box<dyn ConnWriter>>>,
}

struct Counters {
    served: AtomicU64,
    cache_hits: AtomicU64,
    /// Data-plane requests that missed the response cache and had to
    /// go through the query engine. Together with `cache_hits` this
    /// makes the response-store hit rate derivable from one stats
    /// snapshot.
    cache_misses: AtomicU64,
    fallback: AtomicU64,
    repaired: AtomicU64,
    errors: AtomicU64,
    invalid: AtomicU64,
    proto_errors: AtomicU64,
    /// Connections torn down because a reply write failed or timed out
    /// — the slow-reader defence firing. Counted separately from
    /// `proto_errors` so operators can tell a non-reading client from
    /// one sending junk frames.
    write_teardowns: AtomicU64,
}

struct Inner {
    engine: Arc<ExecEngine>,
    admission: Admission<Work>,
    responses: Store,
    cache: Mutex<BTreeMap<u64, String>>,
    shutdown: AtomicBool,
    active_conns: AtomicUsize,
    counters: Counters,
    recovery: RecoveryStats,
    query: QueryOptions,
    io_timeout: Duration,
    workers: usize,
}

impl Inner {
    fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.engine.telemetry()
    }

    fn count(&self, name: &str, delta: u64) {
        if let Some(t) = self.telemetry() {
            t.count(name, delta);
        }
    }
}

/// A running daemon. Dropping it does **not** stop the threads; call
/// [`Server::wait`] (blocks until shutdown) or
/// [`Server::trigger_shutdown`].
pub struct Server {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
    tcp_addr: Option<std::net::SocketAddr>,
}

impl Server {
    /// Starts the daemon: replays the response store, attaches the
    /// profile store to the engine (which primes its memo), binds the
    /// listeners and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates store corruption and bind failures.
    pub fn start(engine: Arc<ExecEngine>, config: ServerConfig) -> io::Result<Server> {
        std::fs::create_dir_all(&config.state_dir)?;
        let fp = store_config_fp(engine.platform());
        let (responses, bodies, rec_r) =
            Store::open(&config.state_dir.join("responses.store"), "responses", fp)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let cached = engine.cached_profiles();
        let rec_p = engine
            .open_store(&config.state_dir.join("profiles.store"), "profiles", fp)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let recovery = RecoveryStats {
            responses: bodies.len() as u64,
            profiles: engine.cached_profiles().saturating_sub(cached) as u64,
            truncated_bytes: rec_r.truncated_bytes + rec_p.truncated_bytes,
        };

        let inner = Arc::new(Inner {
            engine,
            admission: Admission::new(
                config.queue_cap,
                config.global_queue_cap,
                config.retry_after_ms,
            ),
            responses,
            cache: Mutex::new(bodies),
            shutdown: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            counters: Counters {
                served: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                cache_misses: AtomicU64::new(0),
                fallback: AtomicU64::new(0),
                repaired: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                invalid: AtomicU64::new(0),
                proto_errors: AtomicU64::new(0),
                write_teardowns: AtomicU64::new(0),
            },
            recovery,
            query: config.query.clone(),
            io_timeout: Duration::from_millis(config.io_timeout_ms.max(1)),
            workers: config.workers.max(1),
        });
        inner.count("serve.recovered_responses", recovery.responses);
        inner.count("serve.recovered_profiles", recovery.profiles);

        let mut threads = Vec::new();
        for w in 0..config.workers.max(1) {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&inner))?,
            );
        }

        if let Some(path) = &config.unix_socket {
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-accept-unix".to_string())
                    .spawn(move || accept_loop_unix(&inner, &listener))?,
            );
        }
        let mut tcp_addr = None;
        if let Some(addr) = &config.tcp_addr {
            let listener = TcpListener::bind(addr)?;
            tcp_addr = Some(listener.local_addr()?);
            listener.set_nonblocking(true)?;
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-accept-tcp".to_string())
                    .spawn(move || accept_loop_tcp(&inner, &listener))?,
            );
        }

        Ok(Server {
            inner,
            threads,
            tcp_addr,
        })
    }

    /// The bound TCP address, when a TCP listener was requested
    /// (useful with port 0).
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        self.tcp_addr
    }

    /// What restart replay recovered.
    pub fn recovery(&self) -> RecoveryStats {
        self.inner.recovery
    }

    /// Requests a clean shutdown: stops accepting, drains the queue.
    pub fn trigger_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.admission.close();
    }

    /// Blocks until the daemon has shut down and all threads exited.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
        // Connection threads are detached but counted; give in-flight
        // replies a bounded window to finish.
        let deadline = std::time::Instant::now() + self.inner.io_timeout * 2;
        while self.inner.active_conns.load(Ordering::SeqCst) > 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

fn accept_loop_unix(inner: &Arc<Inner>, listener: &UnixListener) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_read_timeout(Some(inner.io_timeout));
                let _ = stream.set_write_timeout(Some(inner.io_timeout));
                let writer: Option<Box<dyn ConnWriter>> = stream
                    .try_clone()
                    .ok()
                    .map(|s| Box::new(s) as Box<dyn ConnWriter>);
                spawn_conn(inner, stream, writer);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn accept_loop_tcp(inner: &Arc<Inner>, listener: &TcpListener) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_read_timeout(Some(inner.io_timeout));
                let _ = stream.set_write_timeout(Some(inner.io_timeout));
                let _ = stream.set_nodelay(true);
                let writer: Option<Box<dyn ConnWriter>> = stream
                    .try_clone()
                    .ok()
                    .map(|s| Box::new(s) as Box<dyn ConnWriter>);
                spawn_conn(inner, stream, writer);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn spawn_conn(
    inner: &Arc<Inner>,
    reader: impl io::Read + Send + 'static,
    writer: Option<Box<dyn ConnWriter>>,
) {
    let Some(writer) = writer else {
        inner.counters.proto_errors.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let inner = Arc::clone(inner);
    inner.active_conns.fetch_add(1, Ordering::SeqCst);
    let tracked = Arc::clone(&inner);
    let spawned = std::thread::Builder::new()
        .name("serve-conn".to_string())
        .spawn(move || {
            let writer: Arc<Mutex<Box<dyn ConnWriter>>> = Arc::new(Mutex::new(writer));
            conn_loop(&tracked, reader, &writer);
            tracked.active_conns.fetch_sub(1, Ordering::SeqCst);
        });
    if spawned.is_err() {
        inner.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

fn reply(inner: &Inner, writer: &Arc<Mutex<Box<dyn ConnWriter>>>, body: &str) {
    let mut w = writer
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if write_frame(&mut **w, body.as_bytes()).is_err() {
        // Client went away — or is pipelining without reading, and the
        // write timeout fired with its socket buffer full. Either way
        // the frame may be torn, so tear the connection down; that
        // also kicks the conn thread's blocked read loose instead of
        // leaving this (possibly worker) thread captured by one slow
        // reader. The body is already in the store, so a reconnect
        // replays it.
        w.teardown();
        inner
            .counters
            .write_teardowns
            .fetch_add(1, Ordering::Relaxed);
    }
}

fn conn_loop(
    inner: &Arc<Inner>,
    mut reader: impl io::Read,
    writer: &Arc<Mutex<Box<dyn ConnWriter>>>,
) {
    loop {
        if inner.shutdown.load(Ordering::SeqCst) && inner.admission.is_closed() {
            return;
        }
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            // Idle at a frame boundary: the client is waiting on
            // replies, not stalling. Loop — which also re-checks the
            // shutdown flag, bounding shutdown latency to one timeout.
            Err(FrameError::Idle) => continue,
            Err(FrameError::Truncated | FrameError::TooLarge(_) | FrameError::Io(_)) => {
                // Garbage length, torn frame, mid-frame stall
                // (slow-loris) or disconnect: the stream cannot be
                // resynchronised — drop it.
                inner.counters.proto_errors.fetch_add(1, Ordering::Relaxed);
                inner.count("serve.proto_errors", 1);
                return;
            }
        };
        let mut request = match Request::parse(&payload) {
            Ok(r) => r,
            Err(msg) => {
                inner.counters.invalid.fetch_add(1, Ordering::Relaxed);
                inner.count("serve.invalid_requests", 1);
                reply(inner, writer, &render_error("-", &msg));
                continue;
            }
        };
        if request.kind.is_control() {
            handle_control(inner, writer, &request);
            continue;
        }
        // Resolve the effective budget *before* fingerprinting: the
        // body is a pure function of what is actually computed, so the
        // cache/store key must reflect the daemon's `--default-budget`.
        // Otherwise a restart under a different default would replay
        // bodies computed under the old one.
        if request.budget.is_none() {
            request.budget = inner.query.default_budget;
        }
        let fingerprint = request.fingerprint_on(inner.engine.platform());
        // Served-before? Byte-identical replay straight from cache.
        let cached = {
            let cache = inner
                .cache
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            cache.get(&fingerprint).cloned()
        };
        if let Some(body) = cached {
            inner.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            inner.counters.served.fetch_add(1, Ordering::Relaxed);
            reply(
                inner,
                writer,
                &splice_identity(&request.id, &request.tenant, &body),
            );
            continue;
        }
        let tenant = request.tenant.clone();
        let id = request.id.clone();
        match inner.admission.offer(
            &tenant,
            fingerprint,
            Work {
                request,
                fingerprint,
                writer: Arc::clone(writer),
            },
        ) {
            AdmissionOutcome::Accepted => {}
            AdmissionOutcome::Shed { retry_after_ms } => {
                inner.count("serve.shed", 1);
                reply(
                    inner,
                    writer,
                    &render_overloaded(&id, &tenant, retry_after_ms),
                );
            }
            AdmissionOutcome::Closed => {
                reply(inner, writer, &render_error(&id, "daemon is shutting down"));
            }
        }
    }
}

fn handle_control(inner: &Arc<Inner>, writer: &Arc<Mutex<Box<dyn ConnWriter>>>, req: &Request) {
    match req.kind.token() {
        "ping" => {
            let body = r#"{"status":"ok","kind":"ping"}"#;
            reply(inner, writer, &splice_identity(&req.id, &req.tenant, body));
        }
        "shutdown" => {
            let body = r#"{"status":"ok","kind":"shutdown"}"#;
            reply(inner, writer, &splice_identity(&req.id, &req.tenant, body));
            inner.shutdown.store(true, Ordering::SeqCst);
            inner.admission.close();
        }
        _ => {
            // stats: live operational numbers — deliberately
            // nondeterministic and never stored.
            let memo = inner.engine.report();
            let depths = inner
                .admission
                .depths()
                .into_iter()
                .map(|(t, d)| (t, Val::U64(d as u64)))
                .collect();
            let c = &inner.counters;
            let body = Val::Obj(vec![
                ("status".to_string(), Val::str("ok")),
                ("kind".to_string(), Val::str("stats")),
                ("queue_depths".to_string(), Val::Obj(depths)),
                (
                    "admitted".to_string(),
                    Val::U64(inner.admission.admitted_total()),
                ),
                ("shed".to_string(), Val::U64(inner.admission.shed_total())),
                (
                    "shed_tenant_cap".to_string(),
                    Val::U64(inner.admission.shed_tenant_total()),
                ),
                (
                    "shed_global_cap".to_string(),
                    Val::U64(inner.admission.shed_global_total()),
                ),
                (
                    "write_teardowns".to_string(),
                    Val::U64(c.write_teardowns.load(Ordering::Relaxed)),
                ),
                (
                    "served".to_string(),
                    Val::U64(c.served.load(Ordering::Relaxed)),
                ),
                (
                    "cache_hits".to_string(),
                    Val::U64(c.cache_hits.load(Ordering::Relaxed)),
                ),
                (
                    "cache_misses".to_string(),
                    Val::U64(c.cache_misses.load(Ordering::Relaxed)),
                ),
                (
                    "cache_hit_permille".to_string(),
                    Val::U64(hit_permille(
                        c.cache_hits.load(Ordering::Relaxed),
                        c.cache_misses.load(Ordering::Relaxed),
                    )),
                ),
                (
                    "fallback".to_string(),
                    Val::U64(c.fallback.load(Ordering::Relaxed)),
                ),
                (
                    "repaired".to_string(),
                    Val::U64(c.repaired.load(Ordering::Relaxed)),
                ),
                (
                    "errors".to_string(),
                    Val::U64(c.errors.load(Ordering::Relaxed)),
                ),
                (
                    "invalid_requests".to_string(),
                    Val::U64(c.invalid.load(Ordering::Relaxed)),
                ),
                (
                    "proto_errors".to_string(),
                    Val::U64(c.proto_errors.load(Ordering::Relaxed)),
                ),
                (
                    "active_connections".to_string(),
                    Val::U64(inner.active_conns.load(Ordering::SeqCst) as u64),
                ),
                ("workers".to_string(), Val::U64(inner.workers as u64)),
                (
                    "recovered_responses".to_string(),
                    Val::U64(inner.recovery.responses),
                ),
                (
                    "recovered_profiles".to_string(),
                    Val::U64(inner.recovery.profiles),
                ),
                // Engine memo store: isolation-profile reuse across all
                // requests this process has answered.
                ("memo_hits".to_string(), Val::U64(memo.cache_hits)),
                ("memo_misses".to_string(), Val::U64(memo.cache_misses)),
                (
                    "memo_hit_permille".to_string(),
                    Val::U64(hit_permille(memo.cache_hits, memo.cache_misses)),
                ),
                (
                    "simulations_run".to_string(),
                    Val::U64(memo.simulations_run),
                ),
            ])
            .to_json();
            reply(inner, writer, &splice_identity(&req.id, &req.tenant, &body));
        }
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    let qe = QueryEngine::new(&inner.engine, inner.query.clone());
    while let Some((_tenant, work)) = inner.admission.take() {
        let Work {
            request,
            fingerprint,
            writer,
        } = work;
        // Another worker may have computed the same fingerprint while
        // this one queued — serve the cached bytes in that case.
        let cached = {
            let cache = inner
                .cache
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            cache.get(&fingerprint).cloned()
        };
        if let Some(body) = cached {
            inner.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            inner.counters.served.fetch_add(1, Ordering::Relaxed);
            reply(
                inner,
                &writer,
                &splice_identity(&request.id, &request.tenant, &body),
            );
            continue;
        }
        inner.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        match qe.answer(&request) {
            Ok(answer) => {
                // Write-ahead: persist the body before replying, so a
                // crash after this line re-serves identical bytes.
                if let Err(e) = inner.responses.put(fingerprint, &answer.body) {
                    store_warn(inner, "responses", &e);
                }
                inner
                    .cache
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .insert(fingerprint, answer.body.clone());
                if answer.fallback {
                    inner.counters.fallback.fetch_add(1, Ordering::Relaxed);
                    inner.count("serve.fallback", 1);
                }
                if answer.repaired {
                    inner.counters.repaired.fetch_add(1, Ordering::Relaxed);
                }
                inner.counters.served.fetch_add(1, Ordering::Relaxed);
                inner.count("serve.served", 1);
                reply(
                    inner,
                    &writer,
                    &splice_identity(&request.id, &request.tenant, &answer.body),
                );
            }
            Err(msg) => {
                inner.counters.errors.fetch_add(1, Ordering::Relaxed);
                inner.count("serve.errors", 1);
                reply(inner, &writer, &render_error(&request.id, &msg));
            }
        }
    }
}

/// Integer hit rate in permille (hits per thousand lookups); zero for
/// a store that has never been consulted. Integer so the stats body
/// stays free of float formatting concerns.
fn hit_permille(hits: u64, misses: u64) -> u64 {
    (hits * 1000).checked_div(hits + misses).unwrap_or(0)
}

fn store_warn(inner: &Inner, which: &str, e: &io::Error) {
    match inner.telemetry() {
        Some(t) => t.warn(
            "store.append_failed",
            format!("{which} store append failed: {e}"),
        ),
        None => eprintln!("warning: {which} store append failed: {e}"),
    }
}
