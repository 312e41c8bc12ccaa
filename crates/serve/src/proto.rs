//! Wire protocol: length-prefixed JSON frames and the typed request
//! they carry.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. The length cap ([`MAX_FRAME_BYTES`]) is the
//! first line of defence against garbage prefixes — a bogus
//! multi-gigabyte length is rejected before any allocation. Requests
//! and responses both travel as frames; a client that stops mid-frame
//! (slow-loris or disconnect) hits the connection's read timeout and
//! is dropped without wedging a worker.
//!
//! Responses are rendered deterministically: a stored response body is
//! a pure function of the request's *semantic* fields, and the
//! client-visible frame splices the caller's `id`/`tenant` in front of
//! it. That split is what makes crash-recovery replay byte-identical.

use mbta::store::content_key;
use obs::json::{parse, Json, Val};
use std::io::{self, Read, Write};
use tc27x_sim::DeploymentScenario;
use workloads::LoadLevel;

/// Maximum accepted frame payload, request or response (1 MiB).
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying read failed. A timeout *inside* a frame lands
    /// here — that is the slow-loris signature and the connection
    /// should be dropped.
    Io(io::Error),
    /// The read timed out at a frame boundary, before any byte of the
    /// next frame. The peer is idle, not stalling: keep waiting.
    Idle,
    /// The stream ended inside a frame.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::Idle => write!(f, "read timed out at a frame boundary"),
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
            FrameError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME_BYTES} cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame: length prefix plus payload, then flush.
///
/// # Errors
///
/// Propagates I/O errors; rejects oversized payloads as
/// `InvalidInput`.
pub fn write_frame(w: &mut (impl Write + ?Sized), payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds the cap")
        })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream at a frame
/// boundary; ending anywhere else is [`FrameError::Truncated`].
///
/// # Errors
///
/// [`FrameError::Io`] on read failures (including timeouts),
/// [`FrameError::TooLarge`] on an oversized length prefix.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if got == 0
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(FrameError::Idle)
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    match r.read_exact(&mut payload) {
        Ok(()) => Ok(Some(payload)),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(FrameError::Truncated),
        Err(e) => Err(FrameError::Io(e)),
    }
}

/// What a request asks for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Live operational stats; answered inline, never queued
    /// (responses are load-dependent and deliberately *not* stored).
    Stats,
    /// Clean shutdown request (drain and exit).
    Shutdown,
    /// Δcont bound of a contender level against the reference app.
    Bound {
        /// Deployment scenario.
        scenario: DeploymentScenario,
        /// Contender load level.
        level: LoadLevel,
    },
    /// Response-time analysis of the app under contention.
    Rta {
        /// Deployment scenario.
        scenario: DeploymentScenario,
        /// Contender load level.
        level: LoadLevel,
        /// Task period in cycles.
        period: u64,
        /// Task deadline in cycles (≤ period for the analysis here).
        deadline: u64,
    },
    /// One model-vs-observation sweep cell: fTC/ILP/observed ratios.
    Sweep {
        /// Deployment scenario.
        scenario: DeploymentScenario,
        /// Contender load level.
        level: LoadLevel,
    },
}

impl QueryKind {
    /// Stable token for fingerprints and response bodies.
    pub fn token(&self) -> &'static str {
        match self {
            QueryKind::Ping => "ping",
            QueryKind::Stats => "stats",
            QueryKind::Shutdown => "shutdown",
            QueryKind::Bound { .. } => "bound",
            QueryKind::Rta { .. } => "rta",
            QueryKind::Sweep { .. } => "sweep",
        }
    }

    /// Whether this kind is answered inline by the connection thread
    /// (control plane) rather than queued through admission.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            QueryKind::Ping | QueryKind::Stats | QueryKind::Shutdown
        )
    }
}

/// One validated request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Caller-chosen request id, echoed on the response.
    pub id: String,
    /// Tenant the request is admitted under.
    pub tenant: String,
    /// What is being asked.
    pub kind: QueryKind,
    /// ILP node budget — the request's deterministic deadline. `None`
    /// uses the scenario default.
    pub budget: Option<u64>,
    /// `true` = strict validation (reject repaired profiles).
    pub strict: bool,
}

fn get_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

fn get_u64(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` is not an unsigned integer")),
    }
}

fn token_ok(s: &str, max: usize) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

impl Request {
    /// Parses and validates one request frame.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found — the
    /// server echoes it in an `error` response.
    pub fn parse(payload: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "frame is not UTF-8".to_string())?;
        let doc = parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        if !matches!(doc, Json::Obj(_)) {
            return Err("request is not a JSON object".to_string());
        }
        let id = get_str(&doc, "id")?;
        if !token_ok(id, 64) {
            return Err("`id` must be a 1-64 char [A-Za-z0-9._-] token".to_string());
        }
        let tenant = get_str(&doc, "tenant")?;
        if !token_ok(tenant, 32) {
            return Err("`tenant` must be a 1-32 char [A-Za-z0-9._-] token".to_string());
        }
        let strict = match doc.get("policy").and_then(Json::as_str) {
            None | Some("repair") => false,
            Some("strict") => true,
            Some(other) => {
                return Err(format!("unknown policy `{other}` (expected strict|repair)"))
            }
        };
        let budget = get_u64(&doc, "budget")?;
        let kind = match get_str(&doc, "kind")? {
            "ping" => QueryKind::Ping,
            "stats" => QueryKind::Stats,
            "shutdown" => QueryKind::Shutdown,
            k @ ("bound" | "rta" | "sweep") => {
                let scenario = get_str(&doc, "scenario")?.parse()?;
                let level = get_str(&doc, "level")?.parse()?;
                match k {
                    "bound" => QueryKind::Bound { scenario, level },
                    "sweep" => QueryKind::Sweep { scenario, level },
                    _ => {
                        let period = get_u64(&doc, "period")?
                            .ok_or_else(|| "rta requires a `period`".to_string())?;
                        if period == 0 {
                            return Err("`period` must be positive".to_string());
                        }
                        let deadline = get_u64(&doc, "deadline")?.unwrap_or(period);
                        if deadline == 0 || deadline > period {
                            return Err("`deadline` must be in 1..=period".to_string());
                        }
                        QueryKind::Rta {
                            scenario,
                            level,
                            period,
                            deadline,
                        }
                    }
                }
            }
            other => return Err(format!("unknown kind `{other}`")),
        };
        Ok(Request {
            id: id.to_string(),
            tenant: tenant.to_string(),
            kind,
            budget,
            strict,
        })
    }

    /// Content-address of the request's *semantic* fields — `id` and
    /// `tenant` excluded, so identical queries from different callers
    /// share one stored response. Keys the daemon's default platform;
    /// a daemon serving another machine uses [`Request::fingerprint_on`].
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_on(platform::default_platform())
    }

    /// [`Request::fingerprint`] bound to the platform the daemon
    /// simulates. The default (paper TC27x) keys are unchanged from
    /// `fingerprint`; any other description is folded in, so the same
    /// request against two platforms never shares a store entry.
    pub fn fingerprint_on(&self, desc: &platform::PlatformDesc) -> u64 {
        let budget = self.budget.map_or("-".to_string(), |b| b.to_string());
        let policy = if self.strict { "strict" } else { "repair" };
        let (scenario, level, period, deadline) = match &self.kind {
            QueryKind::Bound { scenario, level } | QueryKind::Sweep { scenario, level } => {
                (scenario.token(), level.token(), 0, 0)
            }
            QueryKind::Rta {
                scenario,
                level,
                period,
                deadline,
            } => (scenario.token(), level.token(), *period, *deadline),
            _ => ("-", "-", 0, 0),
        };
        let period = period.to_string();
        let deadline = deadline.to_string();
        let mut fields = vec![
            self.kind.token(),
            scenario,
            level,
            period.as_str(),
            deadline.as_str(),
            &budget,
            policy,
        ];
        let plat;
        if !desc.is_default() {
            plat = format!("platform/{:016x}", desc.fingerprint());
            fields.push(plat.as_str());
        }
        content_key("contention-serve/req/v1", &fields)
    }

    /// Renders this request as a canonical JSON frame payload (the
    /// client side of [`Request::parse`]).
    pub fn to_json(&self) -> String {
        let mut pairs = vec![
            ("id".to_string(), Val::str(self.id.clone())),
            ("tenant".to_string(), Val::str(self.tenant.clone())),
            ("kind".to_string(), Val::str(self.kind.token())),
        ];
        match &self.kind {
            QueryKind::Bound { scenario, level } | QueryKind::Sweep { scenario, level } => {
                pairs.push(("scenario".to_string(), Val::str(scenario.token())));
                pairs.push(("level".to_string(), Val::str(level.token())));
            }
            QueryKind::Rta {
                scenario,
                level,
                period,
                deadline,
            } => {
                pairs.push(("scenario".to_string(), Val::str(scenario.token())));
                pairs.push(("level".to_string(), Val::str(level.token())));
                pairs.push(("period".to_string(), Val::U64(*period)));
                pairs.push(("deadline".to_string(), Val::U64(*deadline)));
            }
            _ => {}
        }
        if let Some(b) = self.budget {
            pairs.push(("budget".to_string(), Val::U64(b)));
        }
        if self.strict {
            pairs.push(("policy".to_string(), Val::str("strict")));
        }
        Val::Obj(pairs).to_json()
    }
}

/// Splices a caller's identity in front of a stored `{"status":"ok"…}`
/// response body. The body is stored without `id`/`tenant`, so replay
/// after a crash is byte-identical for the same batch file.
pub fn splice_identity(id: &str, tenant: &str, stored_body: &str) -> String {
    let mut out = String::with_capacity(stored_body.len() + id.len() + tenant.len() + 32);
    out.push('{');
    obs::json::escape_into("id", &mut out);
    out.push(':');
    obs::json::escape_into(id, &mut out);
    out.push(',');
    obs::json::escape_into("tenant", &mut out);
    out.push(':');
    obs::json::escape_into(tenant, &mut out);
    out.push(',');
    out.push_str(stored_body.strip_prefix('{').unwrap_or(stored_body));
    out
}

/// Renders an `overloaded` rejection.
pub fn render_overloaded(id: &str, tenant: &str, retry_after_ms: u64) -> String {
    Val::Obj(vec![
        ("id".to_string(), Val::str(id)),
        ("tenant".to_string(), Val::str(tenant)),
        ("status".to_string(), Val::str("overloaded")),
        ("retry_after_ms".to_string(), Val::U64(retry_after_ms)),
    ])
    .to_json()
}

/// Renders an `error` response.
pub fn render_error(id: &str, message: &str) -> String {
    Val::Obj(vec![
        ("id".to_string(), Val::str(id)),
        ("status".to_string(), Val::str("error")),
        ("error".to_string(), Val::str(message)),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_and_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"a\":1}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"a\":1}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_and_truncated_frames_are_rejected() {
        let mut buf = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        assert!(matches!(
            read_frame(&mut io::Cursor::new(buf)),
            Err(FrameError::TooLarge(_))
        ));
        let mut torn = 10u32.to_be_bytes().to_vec();
        torn.extend_from_slice(b"only5");
        assert!(matches!(
            read_frame(&mut io::Cursor::new(torn)),
            Err(FrameError::Truncated)
        ));
        // A lone partial length prefix is torn too.
        assert!(matches!(
            read_frame(&mut io::Cursor::new(vec![0u8, 0])),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn request_parse_roundtrip() {
        let req = Request {
            id: "r-1".to_string(),
            tenant: "acme".to_string(),
            kind: QueryKind::Rta {
                scenario: DeploymentScenario::Scenario2,
                level: LoadLevel::Medium,
                period: 900_000,
                deadline: 800_000,
            },
            budget: Some(5_000),
            strict: true,
        };
        let parsed = Request::parse(req.to_json().as_bytes()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn request_validation_rejects_garbage() {
        for bad in [
            &b"not json"[..],
            br#"{"id":"x","tenant":"t","kind":"frobnicate"}"#,
            br#"{"id":"x","tenant":"t","kind":"bound","scenario":"sc9","level":"high"}"#,
            br#"{"id":"x","tenant":"t","kind":"bound","scenario":"sc1","level":"ultra"}"#,
            br#"{"id":"","tenant":"t","kind":"ping"}"#,
            br#"{"id":"x","tenant":"bad tenant","kind":"ping"}"#,
            br#"{"id":"x","tenant":"t","kind":"rta","scenario":"sc1","level":"low"}"#,
            br#"{"id":"x","tenant":"t","kind":"rta","scenario":"sc1","level":"low","period":5,"deadline":9}"#,
            br#"{"id":"x","tenant":"t","kind":"ping","policy":"yolo"}"#,
            br#"{"id":"x","tenant":"t","kind":"ping","budget":-4}"#,
        ] {
            assert!(
                Request::parse(bad).is_err(),
                "accepted: {}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn fingerprint_ignores_identity_but_not_semantics() {
        let mk = |id: &str, tenant: &str, budget: Option<u64>| Request {
            id: id.to_string(),
            tenant: tenant.to_string(),
            kind: QueryKind::Bound {
                scenario: DeploymentScenario::Scenario1,
                level: LoadLevel::High,
            },
            budget,
            strict: false,
        };
        assert_eq!(
            mk("a", "t1", Some(9)).fingerprint(),
            mk("b", "t2", Some(9)).fingerprint()
        );
        assert_ne!(
            mk("a", "t1", Some(9)).fingerprint(),
            mk("a", "t1", Some(10)).fingerprint()
        );
        assert_ne!(
            mk("a", "t1", None).fingerprint(),
            Request {
                kind: QueryKind::Sweep {
                    scenario: DeploymentScenario::Scenario1,
                    level: LoadLevel::High,
                },
                ..mk("a", "t1", None)
            }
            .fingerprint()
        );
    }

    #[test]
    fn fingerprint_binds_the_platform_but_default_is_unchanged() {
        let req = Request {
            id: "a".to_string(),
            tenant: "t".to_string(),
            kind: QueryKind::Bound {
                scenario: DeploymentScenario::Scenario1,
                level: LoadLevel::High,
            },
            budget: None,
            strict: false,
        };
        // Default TC27x keys are exactly the historical `fingerprint`
        // keys — existing stores keep replaying.
        assert_eq!(
            req.fingerprint(),
            req.fingerprint_on(&platform::PlatformDesc::tc27x())
        );
        // Any other machine gets its own key space.
        let tdma = req.fingerprint_on(&platform::PlatformDesc::tc27x_tdma());
        let ahb = req.fingerprint_on(&platform::PlatformDesc::ahb2());
        assert_ne!(req.fingerprint(), tdma);
        assert_ne!(req.fingerprint(), ahb);
        assert_ne!(tdma, ahb);
    }

    #[test]
    fn splice_prepends_identity() {
        let body = r#"{"status":"ok","kind":"bound","delta_cycles":42}"#;
        assert_eq!(
            splice_identity("r9", "acme", body),
            r#"{"id":"r9","tenant":"acme","status":"ok","kind":"bound","delta_cycles":42}"#
        );
    }
}
