//! The wire protocol: newline-framed JSON requests and responses.
//!
//! One request per line, one response line per request, in order:
//!
//! ```text
//! → {"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i+2] := A[i]; end"}
//! ← {"id": 1, "ok": true, "result": {"loops": [...], "stats": {...}}}
//! → {"id": 2, "verb": "nope"}
//! ← {"id": 2, "ok": false, "error": {"kind": "protocol", "message": "unknown verb `nope`"}}
//! ```
//!
//! Requests carry `id` (any JSON value, echoed back verbatim so clients
//! can pipeline), `verb` (`analyze` | `custom` | `open` | `delta` |
//! `stats` | `metrics` | `ping` | `health` | `compact` | `shutdown`), and
//! for `analyze`/`open`: `program` (DSL text), optional `problems` (array
//! of instance names; default all) and optional `distance_bound` (default
//! from the server config). `custom` carries `program` plus a `spec`
//! object naming a user-defined (G, K) problem:
//!
//! ```text
//! {"verb": "custom", "program": "...",
//!  "spec": {"gen": ["uses"], "kill": ["defs"],
//!           "direction": "backward", "mode": "may"}}
//! ```
//!
//! `delta` carries `session` (the id `open`
//! returned), `fingerprint` (the session's current base fingerprint, hex —
//! the cluster router's shard key), `stmt` (the statement id to replace)
//! and `text` (replacement source). Errors come back structured, never as
//! a dropped connection: [`ErrorKind`] is the taxonomy.
//!
//! A line decodes into the same typed request an `AFWIRE01` frame does
//! ([`arrayflow_wire::proto::Request`]), wrapped in the JSON-only
//! [`Request`] envelope (the echoed `id` and the `deadline_ms` budget).
//! One dispatcher serves both protocols; this module holds the JSON
//! encoder of its results.

use std::fmt;

use arrayflow_engine::{
    AnalysisReport, BatchResult, CustomSpec, DeltaReport, Direction, Mode, ProblemSet,
};
use arrayflow_wire::proto::{
    AnalyzeRequest, CustomRequest, Request as WireRequest, TAG_ANALYZE, TAG_COMPACT, TAG_CUSTOM,
    TAG_DELTA, TAG_HEALTH, TAG_METRICS, TAG_OPEN, TAG_PING, TAG_SHUTDOWN, TAG_STATS,
};

use crate::json::Json;

/// The failure classes a response can carry. Everything the server
/// can get wrong maps onto exactly one of these, so clients can switch on
/// `error.kind` without string-matching messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The DSL program did not parse (invalid UTF-8 included).
    Parse,
    /// The program parsed but a loop could not be analyzed.
    Analysis,
    /// The request missed its deadline (queued too long or analysis ran
    /// past the per-request budget).
    Timeout,
    /// The bounded in-flight queue was full (or the service is shutting
    /// down); back off and retry.
    Overloaded,
    /// The frame itself was unusable: malformed JSON, oversized frame,
    /// unknown verb, missing/mistyped fields.
    Protocol,
    /// The session named by a `delta` no longer exists on the node that
    /// answered — typically because the cluster failed the request over to
    /// a replica after the primary (which held the in-memory session) went
    /// down. Unlike a plain `analysis` error, this one is retryable at the
    /// protocol level: re-`open` the program and replay the edits.
    SessionLost,
    /// The request was abandoned before its work completed: either the
    /// owning connection dropped (nobody is waiting for the answer) or
    /// the client's deadline budget expired mid-analysis. Not retryable —
    /// a fresh request with a fresh budget is the only sensible follow-up.
    Cancelled,
}

impl ErrorKind {
    /// The wire name of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Analysis => "analysis",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Protocol => "protocol",
            ErrorKind::SessionLost => "session_lost",
            ErrorKind::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`as_str`](ErrorKind::as_str): decodes the wire name a
    /// response carries in `error.kind`. `None` for unknown names, so a
    /// newer server's kinds degrade gracefully at older clients.
    pub fn from_wire(name: &str) -> Option<ErrorKind> {
        match name {
            "parse" => Some(ErrorKind::Parse),
            "analysis" => Some(ErrorKind::Analysis),
            "timeout" => Some(ErrorKind::Timeout),
            "overloaded" => Some(ErrorKind::Overloaded),
            "protocol" => Some(ErrorKind::Protocol),
            "session_lost" => Some(ErrorKind::SessionLost),
            "cancelled" => Some(ErrorKind::Cancelled),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured service error: taxonomy kind plus human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Which failure class.
    pub kind: ErrorKind,
    /// Details for humans; not part of the stable protocol.
    pub message: String,
}

impl ServiceError {
    /// Convenience constructor.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for ServiceError {}

/// A decoded JSON request: the JSON-only envelope around the typed
/// request both protocols share.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed back verbatim (any JSON value;
    /// `null` when absent).
    pub id: Json,
    /// Client deadline budget in milliseconds, optional on any verb and
    /// ignored by servers predating it (unknown JSON fields are skipped).
    /// Clamped at decode to [`arrayflow_wire::proto::MAX_DEADLINE_MS`];
    /// the server then enforces `min(budget, its own cap)`. Zero means
    /// "already expired" — the request is shed before any work.
    pub deadline_ms: Option<u64>,
    /// The operation and its fields: the same typed request an `AFWIRE01`
    /// frame decodes into. Its wire id is 0 — JSON correlates by
    /// [`Request::id`]. Omitted `problems`/`distance_bound` stay `None`
    /// (server defaults apply); a `fingerprint` is carried only by
    /// `delta`, where it is the cluster router's shard key.
    pub body: WireRequest,
}

impl Request {
    /// Decodes a request from one JSON frame. The returned error pairs the
    /// [`ServiceError`] with whatever `id` could be recovered, so the
    /// response still correlates.
    pub fn decode(frame: &[u8]) -> Result<Request, (Json, ServiceError)> {
        let v = Json::parse(frame).map_err(|e| {
            (
                Json::Null,
                ServiceError::new(ErrorKind::Protocol, e.to_string()),
            )
        })?;
        let id = v.get("id").cloned().unwrap_or(Json::Null);
        let fail = |msg: String| (id.clone(), ServiceError::new(ErrorKind::Protocol, msg));

        if !matches!(v, Json::Obj(_)) {
            return Err(fail("request must be a JSON object".into()));
        }
        let verb = v
            .get("verb")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing or non-string `verb`".into()))?;
        let tag = match verb {
            "analyze" => TAG_ANALYZE,
            "custom" => TAG_CUSTOM,
            "open" => TAG_OPEN,
            "delta" => TAG_DELTA,
            "stats" => TAG_STATS,
            "metrics" => TAG_METRICS,
            "ping" => TAG_PING,
            "health" => TAG_HEALTH,
            "compact" => TAG_COMPACT,
            "shutdown" => TAG_SHUTDOWN,
            _ => return Err(fail(format!("unknown verb `{verb}`"))),
        };

        let program = match v.get("program") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone().into_bytes()),
            Some(_) => return Err(fail("`program` must be a string".into())),
        };
        if program.is_none() && matches!(tag, TAG_ANALYZE | TAG_CUSTOM | TAG_OPEN) {
            return Err(fail(format!("`{verb}` requires a `program` string")));
        }

        let problems = match v.get("problems") {
            None | Some(Json::Null) => None,
            Some(Json::Arr(items)) => {
                let mut set = ProblemSet::NONE;
                for item in items {
                    match item.as_str() {
                        Some("reaching") => set.reaching = true,
                        Some("available") => set.available = true,
                        Some("busy") => set.busy = true,
                        Some("reaching_refs") => set.reaching_refs = true,
                        Some(other) => return Err(fail(format!("unknown problem `{other}`"))),
                        None => return Err(fail("`problems` entries must be strings".into())),
                    }
                }
                Some(set.bits())
            }
            Some(_) => return Err(fail("`problems` must be an array of names".into())),
        };

        let distance_bound =
            match v.get("distance_bound") {
                None | Some(Json::Null) => None,
                Some(n) => Some(n.as_u64().ok_or_else(|| {
                    fail("`distance_bound` must be a non-negative integer".into())
                })?),
            };

        let spec = match v.get("spec") {
            None | Some(Json::Null) => None,
            Some(s @ Json::Obj(_)) => Some(parse_custom_spec(s).map_err(&fail)?),
            Some(_) => return Err(fail("`spec` must be an object".into())),
        };
        if tag == TAG_CUSTOM && spec.is_none() {
            return Err(fail("`custom` requires a `spec` object".into()));
        }

        let uint_field = |name: &str| -> Result<Option<u64>, (Json, ServiceError)> {
            match v.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(n) => Ok(Some(n.as_u64().ok_or_else(|| {
                    fail(format!("`{name}` must be a non-negative integer"))
                })?)),
            }
        };
        let session = uint_field("session")?;
        let stmt = uint_field("stmt")?;
        let deadline_ms =
            uint_field("deadline_ms")?.map(|ms| ms.min(arrayflow_wire::proto::MAX_DEADLINE_MS));
        let text = match v.get("text") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone().into_bytes()),
            Some(_) => return Err(fail("`text` must be a string".into())),
        };
        let fingerprint = match v.get("fingerprint") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(
                parse_fingerprint_hex(s)
                    .ok_or_else(|| fail("`fingerprint` must be 32 hex characters".into()))?,
            ),
            Some(_) => return Err(fail("`fingerprint` must be a hex string".into())),
        };

        let body = match tag {
            TAG_ANALYZE => WireRequest::Analyze(AnalyzeRequest {
                id: 0,
                fingerprint: None,
                problems,
                distance_bound,
                source: program,
            }),
            TAG_CUSTOM => WireRequest::Custom(CustomRequest {
                id: 0,
                spec: spec.map_or(0, CustomSpec::bits),
                fingerprint: None,
                distance_bound,
                source: program,
            }),
            TAG_OPEN => WireRequest::Open {
                id: 0,
                source: program.unwrap_or_default(),
            },
            TAG_DELTA => {
                let missing = |field: &str| fail(format!("`delta` requires a `{field}` field"));
                WireRequest::Delta {
                    id: 0,
                    session: session.ok_or_else(|| missing("session"))?,
                    fingerprint: fingerprint.ok_or_else(|| missing("fingerprint"))?,
                    stmt: stmt.ok_or_else(|| missing("stmt"))?,
                    text: text.ok_or_else(|| missing("text"))?,
                }
            }
            TAG_STATS => WireRequest::Stats { id: 0 },
            TAG_METRICS => WireRequest::Metrics { id: 0 },
            TAG_PING => WireRequest::Ping { id: 0 },
            TAG_HEALTH => WireRequest::Health { id: 0 },
            TAG_COMPACT => WireRequest::Compact { id: 0 },
            // The one verb left: `shutdown`.
            _ => WireRequest::Shutdown { id: 0 },
        };
        Ok(Request {
            id,
            deadline_ms,
            body,
        })
    }
}

/// Parses and validates a `spec` object into a [`CustomSpec`]. Rejects
/// unknown members, unknown site roles, oversized role arrays, empty G
/// (a problem that generates nothing is always a client mistake) and
/// mistyped `direction`/`mode` — with a message naming the offending
/// field, never a panic.
fn parse_custom_spec(v: &Json) -> Result<CustomSpec, String> {
    if let Json::Obj(members) = v {
        for (k, _) in members {
            if !matches!(k.as_str(), "gen" | "kill" | "direction" | "mode") {
                return Err(format!(
                    "unknown `spec` member `{k}` (expected gen, kill, direction, mode)"
                ));
            }
        }
    }
    let roles = |name: &str| -> Result<(bool, bool), String> {
        match v.get(name) {
            None | Some(Json::Null) => Ok((false, false)),
            Some(Json::Arr(items)) => {
                if items.len() > 2 {
                    return Err(format!("`spec.{name}` lists more than the two site roles"));
                }
                let (mut defs, mut uses) = (false, false);
                for item in items {
                    match item.as_str() {
                        Some("defs") => defs = true,
                        Some("uses") => uses = true,
                        Some(other) => {
                            return Err(format!(
                                "unknown site role `{other}` in `spec.{name}` \
                                 (expected \"defs\" or \"uses\")"
                            ))
                        }
                        None => return Err(format!("`spec.{name}` entries must be strings")),
                    }
                }
                Ok((defs, uses))
            }
            Some(_) => Err(format!("`spec.{name}` must be an array of site roles")),
        }
    };
    let (gen_defs, gen_uses) = roles("gen")?;
    let (kill_defs, kill_uses) = roles("kill")?;
    if !gen_defs && !gen_uses {
        return Err("`spec.gen` must name at least one site role".into());
    }
    let direction = match v.get("direction").map(Json::as_str) {
        None | Some(Some("forward")) => Direction::Forward,
        Some(Some("backward")) => Direction::Backward,
        _ => return Err("`spec.direction` must be \"forward\" or \"backward\"".into()),
    };
    let mode = match v.get("mode").map(Json::as_str) {
        None | Some(Some("must")) => Mode::Must,
        Some(Some("may")) => Mode::May,
        _ => return Err("`spec.mode` must be \"must\" or \"may\"".into()),
    };
    Ok(CustomSpec {
        gen_defs,
        gen_uses,
        kill_defs,
        kill_uses,
        direction,
        mode,
    })
}

/// Parses the 32-hex-char fingerprint rendering
/// ([`arrayflow_ir::Fingerprint`]'s `Display`) back to its wire bytes
/// (little-endian `u128`, matching the binary protocol's layout).
pub fn parse_fingerprint_hex(s: &str) -> Option<[u8; 16]> {
    if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let value = u128::from_str_radix(s, 16).ok()?;
    Some(value.to_le_bytes())
}

/// Encodes a success response line (without trailing newline).
pub fn encode_ok(id: &Json, result: Json) -> String {
    Json::Obj(vec![
        ("id".into(), id.clone()),
        ("ok".into(), Json::Bool(true)),
        ("result".into(), result),
    ])
    .to_string()
}

/// Encodes an error response line (without trailing newline).
pub fn encode_err(id: &Json, err: &ServiceError) -> String {
    Json::Obj(vec![
        ("id".into(), id.clone()),
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::Obj(vec![
                ("kind".into(), Json::Str(err.kind.as_str().into())),
                ("message".into(), Json::Str(err.message.clone())),
            ]),
        ),
    ])
    .to_string()
}

/// Renders one [`BatchResult`] as the `analyze` result object. The
/// per-loop `report` strings are exactly
/// [`arrayflow_engine::AnalysisReport::render`] — byte-identical to what a
/// direct in-process `Engine` call produces, which the integration tests
/// assert.
pub fn analyze_result_json(r: &BatchResult) -> Json {
    let loops = r
        .loops
        .iter()
        .map(|l| {
            Json::Obj(vec![
                ("fingerprint".into(), Json::Str(l.fingerprint.to_string())),
                ("report".into(), Json::Str(l.report.render())),
            ])
        })
        .collect();
    let mut members = vec![("loops".into(), Json::Arr(loops))];
    members.push((
        "error".into(),
        match &r.error {
            Some(e) => Json::Str(e.to_string()),
            None => Json::Null,
        },
    ));
    members.push((
        "stats".into(),
        Json::Obj(vec![
            ("cache_hits".into(), Json::Num(r.stats.cache_hits as f64)),
            (
                "cache_misses".into(),
                Json::Num(r.stats.cache_misses as f64),
            ),
            (
                "solver_passes".into(),
                Json::Num(r.stats.solver_passes as f64),
            ),
            ("node_visits".into(), Json::Num(r.stats.node_visits as f64)),
        ]),
    ));
    Json::Obj(members)
}

/// Renders an `open` result: the new session id, the loop's canonical
/// fingerprint (the `delta` routing key), and the rendered initial report.
pub fn session_result_json(session: u64, report: &AnalysisReport) -> Json {
    Json::Obj(vec![
        ("session".into(), Json::Num(session as f64)),
        (
            "fingerprint".into(),
            Json::Str(report.fingerprint.to_string()),
        ),
        ("report".into(), Json::Str(report.render())),
    ])
}

/// Renders a `delta` result: the session, the canonical fingerprint of
/// the loop *after* the edit (probe the fingerprint-first analyze path
/// with it), the re-analyzed report, and how the re-convergence went
/// (fast path vs full fallback, columns re-solved). Requests keep routing
/// by the fingerprint `open` returned — that is the session's shard key
/// for its whole lifetime.
pub fn delta_result_json(d: &DeltaReport) -> Json {
    Json::Obj(vec![
        ("session".into(), Json::Num(d.session as f64)),
        ("fingerprint".into(), Json::Str(d.fingerprint.to_string())),
        ("report".into(), Json::Str(d.report.render())),
        ("fallback".into(), Json::Bool(d.fallback)),
        ("dirty_columns".into(), Json::Num(d.dirty_columns as f64)),
        ("total_columns".into(), Json::Num(d.total_columns as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn custom_spec(body: &WireRequest) -> CustomSpec {
        match body {
            WireRequest::Custom(c) => CustomSpec::from_bits(c.spec).unwrap(),
            other => panic!("expected custom, got {other:?}"),
        }
    }

    #[test]
    fn decodes_minimal_analyze() {
        let r = Request::decode(br#"{"id": 3, "verb": "analyze", "program": "x := 1;"}"#).unwrap();
        assert_eq!(r.id, Json::Num(3.0));
        assert_eq!(
            r.body,
            WireRequest::Analyze(AnalyzeRequest {
                id: 0,
                fingerprint: None,
                problems: None,
                distance_bound: None,
                source: Some(b"x := 1;".to_vec()),
            })
        );
    }

    #[test]
    fn decodes_problem_selection() {
        let r = Request::decode(
            br#"{"verb": "analyze", "program": "x := 1;", "problems": ["available", "busy"], "distance_bound": 4}"#,
        )
        .unwrap();
        let WireRequest::Analyze(a) = r.body else {
            panic!("expected analyze, got {:?}", r.body);
        };
        let p = ProblemSet::from_bits(a.problems.unwrap()).unwrap();
        assert!(!p.reaching && p.available && p.busy && !p.reaching_refs);
        assert_eq!(a.distance_bound, Some(4));
        assert_eq!(r.id, Json::Null);
    }

    #[test]
    fn rejects_bad_shapes_with_recovered_id() {
        let (id, e) = Request::decode(br#"{"id": "q7", "verb": "nope"}"#).unwrap_err();
        assert_eq!(id.as_str(), Some("q7"));
        assert_eq!(e.kind, ErrorKind::Protocol);
        assert!(e.message.contains("unknown verb"));

        let (_, e) = Request::decode(br#"{"id": 1, "verb": "analyze"}"#).unwrap_err();
        assert!(e.message.contains("requires a `program`"));

        let (id, e) = Request::decode(b"not json at all").unwrap_err();
        assert_eq!(id, Json::Null);
        assert_eq!(e.kind, ErrorKind::Protocol);
    }

    #[test]
    fn decodes_open_and_delta() {
        let r = Request::decode(br#"{"id": 1, "verb": "open", "program": "x := 1;"}"#).unwrap();
        assert_eq!(
            r.body,
            WireRequest::Open {
                id: 0,
                source: b"x := 1;".to_vec()
            }
        );

        let fp = "000102030405060708090a0b0c0d0e0f";
        let frame = format!(
            r#"{{"id": 2, "verb": "delta", "session": 7, "fingerprint": "{fp}", "stmt": 3, "text": "A[i] := 1;"}}"#
        );
        let r = Request::decode(frame.as_bytes()).unwrap();
        let WireRequest::Delta {
            session,
            fingerprint: fp_bytes,
            stmt,
            text,
            ..
        } = r.body
        else {
            panic!("expected delta, got {:?}", r.body);
        };
        assert_eq!((session, stmt), (7, 3));
        assert_eq!(text, b"A[i] := 1;");
        // Display renders the u128 big-endian-first as hex; wire bytes are
        // the little-endian u128 layout, so the round trip must agree with
        // Fingerprint's own rendering.
        let rendered = arrayflow_ir::Fingerprint(u128::from_le_bytes(fp_bytes)).to_string();
        assert_eq!(rendered, fp);
    }

    #[test]
    fn rejects_incomplete_delta_and_bad_fingerprints() {
        let (_, e) = Request::decode(br#"{"verb": "delta", "session": 1}"#).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Protocol);
        assert!(e.message.contains("requires a"), "{}", e.message);

        let (_, e) = Request::decode(br#"{"verb": "open"}"#).unwrap_err();
        assert!(e.message.contains("requires a `program`"), "{}", e.message);

        let (_, e) =
            Request::decode(br#"{"verb": "delta", "session": 1, "fingerprint": "xyz", "stmt": 0, "text": "x := 1;"}"#)
                .unwrap_err();
        assert!(e.message.contains("32 hex"), "{}", e.message);

        assert_eq!(parse_fingerprint_hex("0"), None);
        assert_eq!(parse_fingerprint_hex(&"f".repeat(32)), Some([0xff; 16]));
    }

    #[test]
    fn decodes_custom_spec() {
        let r = Request::decode(
            br#"{"id": 4, "verb": "custom", "program": "x := 1;",
                 "spec": {"gen": ["uses"], "kill": ["defs"],
                          "direction": "backward", "mode": "may"}}"#,
        )
        .unwrap();
        let spec = custom_spec(&r.body);
        assert!(!spec.gen_defs && spec.gen_uses && spec.kill_defs && !spec.kill_uses);
        assert_eq!(spec.direction, Direction::Backward);
        assert_eq!(spec.mode, Mode::May);
        assert_eq!(spec.label(), "gu-kd-bwd-may");

        // direction/mode default to forward/must; kill may be absent.
        let r = Request::decode(
            br#"{"verb": "custom", "program": "x := 1;", "spec": {"gen": ["defs", "uses"]}}"#,
        )
        .unwrap();
        let spec = custom_spec(&r.body);
        assert!(spec.gen_defs && spec.gen_uses && !spec.kill_defs && !spec.kill_uses);
        assert_eq!(spec.direction, Direction::Forward);
        assert_eq!(spec.mode, Mode::Must);
    }

    #[test]
    fn rejects_hostile_custom_specs() {
        let err = |frame: &[u8]| Request::decode(frame).unwrap_err().1;

        let e = err(br#"{"verb": "custom", "program": "x := 1;"}"#);
        assert_eq!(e.kind, ErrorKind::Protocol);
        assert!(e.message.contains("requires a `spec`"), "{}", e.message);

        let e = err(br#"{"verb": "custom", "spec": {"gen": ["defs"]}}"#);
        assert!(e.message.contains("requires a `program`"), "{}", e.message);

        // Empty G: contradictory (nothing generates).
        let e =
            err(br#"{"verb": "custom", "program": "x;", "spec": {"gen": [], "kill": ["defs"]}}"#);
        assert!(
            e.message.contains("at least one site role"),
            "{}",
            e.message
        );
        let e = err(br#"{"verb": "custom", "program": "x;", "spec": {"kill": ["defs"]}}"#);
        assert!(
            e.message.contains("at least one site role"),
            "{}",
            e.message
        );

        // Unknown roles, members, shapes.
        let e = err(br#"{"verb": "custom", "program": "x;", "spec": {"gen": ["stores"]}}"#);
        assert!(e.message.contains("unknown site role"), "{}", e.message);
        let e =
            err(br#"{"verb": "custom", "program": "x;", "spec": {"gen": ["defs"], "bogus": 1}}"#);
        assert!(e.message.contains("unknown `spec` member"), "{}", e.message);
        let e = err(br#"{"verb": "custom", "program": "x;", "spec": {"gen": "defs"}}"#);
        assert!(e.message.contains("array of site roles"), "{}", e.message);
        let e = err(br#"{"verb": "custom", "program": "x;", "spec": 7}"#);
        assert!(e.message.contains("must be an object"), "{}", e.message);

        // Oversized role array.
        let e =
            err(br#"{"verb": "custom", "program": "x;", "spec": {"gen": ["defs","defs","defs"]}}"#);
        assert!(e.message.contains("more than the two"), "{}", e.message);

        // Bad direction / mode.
        let e = err(
            br#"{"verb": "custom", "program": "x;", "spec": {"gen": ["defs"], "direction": "up"}}"#,
        );
        assert!(e.message.contains("forward"), "{}", e.message);
        let e =
            err(br#"{"verb": "custom", "program": "x;", "spec": {"gen": ["defs"], "mode": 3}}"#);
        assert!(e.message.contains("must"), "{}", e.message);

        // The custom-path distance ceiling applies to the *effective*
        // bound, which only the dispatcher knows: decode passes a large
        // bound through untouched.
        let frame = format!(
            r#"{{"verb": "custom", "program": "x;", "spec": {{"gen": ["defs"]}}, "distance_bound": {}}}"#,
            CustomSpec::MAX_DISTANCE_BOUND + 1
        );
        let WireRequest::Custom(c) = Request::decode(frame.as_bytes()).unwrap().body else {
            panic!("expected custom");
        };
        assert_eq!(c.distance_bound, Some(CustomSpec::MAX_DISTANCE_BOUND + 1));
    }

    #[test]
    fn decodes_and_clamps_deadline_ms() {
        let r =
            Request::decode(br#"{"verb": "analyze", "program": "x := 1;", "deadline_ms": 250}"#)
                .unwrap();
        assert_eq!(r.deadline_ms, Some(250));

        // Absent or null: no budget.
        let r = Request::decode(br#"{"verb": "ping"}"#).unwrap();
        assert_eq!(r.deadline_ms, None);
        let r = Request::decode(br#"{"verb": "ping", "deadline_ms": null}"#).unwrap();
        assert_eq!(r.deadline_ms, None);

        // Zero is preserved (already expired), absurd values are clamped.
        let r = Request::decode(br#"{"verb": "ping", "deadline_ms": 0}"#).unwrap();
        assert_eq!(r.deadline_ms, Some(0));
        let r = Request::decode(br#"{"verb": "ping", "deadline_ms": 99999999999999}"#).unwrap();
        assert_eq!(r.deadline_ms, Some(arrayflow_wire::proto::MAX_DEADLINE_MS));

        // Mistyped budgets are protocol errors, not panics.
        for frame in [
            br#"{"verb": "ping", "deadline_ms": -5}"#.as_slice(),
            br#"{"verb": "ping", "deadline_ms": 1.5}"#.as_slice(),
            br#"{"verb": "ping", "deadline_ms": "soon"}"#.as_slice(),
        ] {
            let (_, e) = Request::decode(frame).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Protocol);
            assert!(e.message.contains("deadline_ms"), "{}", e.message);
        }
    }

    #[test]
    fn cancelled_round_trips_on_the_wire() {
        assert_eq!(ErrorKind::Cancelled.as_str(), "cancelled");
        assert_eq!(
            ErrorKind::from_wire("cancelled"),
            Some(ErrorKind::Cancelled)
        );
    }

    #[test]
    fn session_lost_round_trips_on_the_wire() {
        assert_eq!(ErrorKind::SessionLost.as_str(), "session_lost");
        assert_eq!(
            ErrorKind::from_wire("session_lost"),
            Some(ErrorKind::SessionLost)
        );
        // Unknown kinds still degrade gracefully.
        assert_eq!(ErrorKind::from_wire("future_kind"), None);
    }

    #[test]
    fn encodes_responses() {
        let ok = encode_ok(&Json::Num(1.0), Json::Str("pong".into()));
        assert_eq!(ok, r#"{"id":1,"ok":true,"result":"pong"}"#);
        let err = encode_err(
            &Json::Null,
            &ServiceError::new(ErrorKind::Overloaded, "queue full"),
        );
        assert_eq!(
            err,
            r#"{"id":null,"ok":false,"error":{"kind":"overloaded","message":"queue full"}}"#
        );
    }
}
