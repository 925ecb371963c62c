//! The cluster router: `serve --router`'s coordinator process.
//!
//! The router owns no engine and no store. It terminates client
//! connections (both newline-JSON and `AFWIRE01` binary, sniffed per
//! connection exactly like a node does), computes each analyze request's
//! canonical 128-bit fingerprint — taken verbatim from binary
//! fingerprint-first requests, computed from source otherwise — and
//! consistent-hashes it across the node list
//! ([`Topology`]), so every alpha-equivalent
//! loop lands on the same node's memo cache and segment log. Aggregate
//! cache capacity multiplies with node count instead of diluting the way
//! random load balancing would.
//!
//! **Failover.** Each backend carries a health flag (refreshed by a
//! background prober speaking the `health` verb), a
//! [`CircuitBreaker`], and a small pool of binary-mode connections. A
//! forward that fails rotates to the shard's designated replica — node
//! `(i+1) % n`, the peer `serve --replicate-to` keeps warm with the
//! primary's segment log — and is counted in
//! `arrayflow_router_failovers_total`. A replica answering a failed-over
//! analyze from its replicated store shows up as
//! `arrayflow_router_replica_warm_hits_total`.
//!
//! **Aggregation.** `stats` fans out to every node and merges the JSON
//! numerically (counters sum, objects recurse) with per-node sections;
//! `metrics` merges the Prometheus expositions with a `node` label per
//! series ([`merge_expositions`]), the router's own metrics riding along
//! as `node="router"`.
//!
//! Requests on one client connection are forwarded sequentially, so
//! pipelined requests come back in request order — the per-connection
//! ordering contract of both protocols survives the extra hop.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use arrayflow_cluster::{merge_expositions, Topology};
use arrayflow_engine::{fingerprint_route_hash, BatchResult, DeltaReport, LoopReport, QueryStats};
use arrayflow_ir as ir;
use arrayflow_obs::{Counter, Registry};
use arrayflow_resilience::CircuitBreaker;
use arrayflow_store::codec::decode_report;
use arrayflow_wire::encode_frame;
use arrayflow_wire::frame::read_frame;
use arrayflow_wire::proto::{
    strip_deadline, with_deadline, AnalyzeRequest, CustomRequest, Request as WireRequest,
    Response as WireResponse,
};

use crate::binproto::{kind_byte, kind_from_byte};
use crate::json::Json;
use crate::proto::{
    analyze_result_json, delta_result_json, encode_err, encode_ok, session_result_json, ErrorKind,
    Request, ServiceError,
};
use crate::server::{Frame, FrameReader};

/// How long a blocked read waits before re-checking the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// Idle backend connections kept per node.
const POOL_CAP: usize = 8;

/// Router tuning. Start from [`RouterConfig::new`] and adjust.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The node list and ring.
    pub topology: Topology,
    /// Health-probe cadence.
    pub probe_interval: Duration,
    /// Deadline for dialing a backend.
    pub connect_timeout: Duration,
    /// Per-forward deadline cap (write + read on the backend connection).
    /// A client that sent a `deadline_ms` budget gets the *remaining*
    /// budget — elapsed router time already subtracted — as its forward
    /// deadline instead, never more than this cap.
    pub request_timeout: Duration,
    /// Cap on a single frame in either direction.
    pub max_frame_bytes: usize,
    /// Consecutive backend failures that open its breaker.
    pub breaker_threshold: u32,
    /// Open-breaker cooldown before a half-open probe forward.
    pub breaker_cooldown: Duration,
}

impl RouterConfig {
    /// Defaults: 500 ms probes, 2 s connect / 10 s request deadlines,
    /// 64 MiB frames, breaker opens after 3 failures with a 1 s cooldown.
    pub fn new(topology: Topology) -> RouterConfig {
        RouterConfig {
            topology,
            probe_interval: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(10),
            max_frame_bytes: 64 << 20,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
        }
    }
}

/// One backend node: pooled binary connections plus failure containment.
struct Backend {
    healthy: AtomicBool,
    breaker: CircuitBreaker,
    pool: Mutex<Vec<TcpStream>>,
}

impl Backend {
    fn dial(&self, addr: &str, config: &RouterConfig) -> io::Result<TcpStream> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(config.request_timeout))?;
        stream.set_write_timeout(Some(config.request_timeout))?;
        Ok(stream)
    }

    fn exchange(
        stream: &mut TcpStream,
        frame: &[u8],
        config: &RouterConfig,
        deadline: Duration,
    ) -> io::Result<(u8, Vec<u8>)> {
        stream.set_read_timeout(Some(deadline))?;
        stream.set_write_timeout(Some(deadline))?;
        stream.write_all(frame)?;
        read_frame(stream, config.max_frame_bytes)
    }

    /// One request/response round trip on a pooled connection, bounded by
    /// `deadline` (the caller's remaining budget, never more than the
    /// configured per-forward cap). A stale pooled connection gets exactly
    /// one fresh-dial retry; the caller owns breaker/health accounting.
    fn round_trip(
        &self,
        addr: &str,
        frame: &[u8],
        config: &RouterConfig,
        deadline: Duration,
    ) -> io::Result<(u8, Vec<u8>)> {
        // Pop as a standalone statement: an `if let` on the lock would
        // keep the guard alive across `put_back`, re-locking the pool
        // mutex while it is still held.
        let pooled = self.pool.lock().unwrap().pop();
        if let Some(mut stream) = pooled {
            if let Ok(resp) = Self::exchange(&mut stream, frame, config, deadline) {
                self.put_back(stream);
                return Ok(resp);
            }
        }
        let mut stream = self.dial(addr, config)?;
        let resp = Self::exchange(&mut stream, frame, config, deadline)?;
        self.put_back(stream);
        Ok(resp)
    }

    fn put_back(&self, stream: TcpStream) {
        let mut pool = self.pool.lock().unwrap();
        if pool.len() < POOL_CAP {
            pool.push(stream);
        }
    }
}

#[derive(Clone)]
struct RouterInstruments {
    connections: Counter,
    forwards: Counter,
    failovers: Counter,
    replica_warm_hits: Counter,
    unroutable: Counter,
    probes: Counter,
    probe_failures: Counter,
    deadline_forwards: Counter,
    expired_before_forward: Counter,
}

impl RouterInstruments {
    fn registered(registry: &Registry) -> Self {
        Self {
            connections: registry.counter(
                "arrayflow_router_connections_total",
                "client connections accepted by the router",
            ),
            forwards: registry.counter(
                "arrayflow_router_forwards_total",
                "requests forwarded to a backend node",
            ),
            failovers: registry.counter(
                "arrayflow_router_failovers_total",
                "forwards that rotated from a dead primary to its replica",
            ),
            replica_warm_hits: registry.counter(
                "arrayflow_router_replica_warm_hits_total",
                "failed-over analyzes the replica answered from its replicated cache",
            ),
            unroutable: registry.counter(
                "arrayflow_router_unroutable_total",
                "requests whose primary and replica were both unreachable",
            ),
            probes: registry.counter(
                "arrayflow_router_probes_total",
                "backend health probes sent",
            ),
            probe_failures: registry.counter(
                "arrayflow_router_probe_failures_total",
                "backend health probes that failed",
            ),
            deadline_forwards: registry.counter(
                "arrayflow_router_deadline_forwards_total",
                "forwards carrying a propagated remaining-budget deadline",
            ),
            expired_before_forward: registry.counter(
                "arrayflow_router_expired_before_forward_total",
                "requests whose deadline budget was exhausted before any forward",
            ),
        }
    }
}

/// The routing core, shared by every client-connection thread and the
/// prober. [`RouterServer`] owns the listener in front of it.
pub struct Router {
    config: RouterConfig,
    backends: Vec<Backend>,
    registry: Registry,
    ins: RouterInstruments,
    shutdown: AtomicBool,
    next_id: AtomicU64,
}

impl Router {
    /// Builds the routing core over `config.topology`.
    pub fn new(config: RouterConfig) -> Arc<Router> {
        let registry = Registry::new();
        let ins = RouterInstruments::registered(&registry);
        let backends = config
            .topology
            .nodes()
            .iter()
            .map(|_| Backend {
                healthy: AtomicBool::new(true),
                breaker: CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown),
                pool: Mutex::new(Vec::new()),
            })
            .collect();
        Arc::new(Router {
            config,
            backends,
            registry,
            ins,
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
        })
    }

    /// The router's own metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// True once a `shutdown` request was accepted.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Begins shutdown: the accept loop stops, connection threads drain.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Sends `frame` to `slot`'s node if its breaker admits the attempt,
    /// bounded by `deadline`. Success and failure both feed the breaker
    /// and health flag.
    fn try_backend(&self, slot: usize, frame: &[u8], deadline: Duration) -> Option<(u8, Vec<u8>)> {
        let backend = &self.backends[slot];
        let (admitted, _) = backend.breaker.try_acquire();
        if !admitted {
            return None;
        }
        let addr = &self.config.topology.node(slot).addr;
        match backend.round_trip(addr, frame, &self.config, deadline) {
            Ok(resp) => {
                backend.breaker.record(true);
                backend.healthy.store(true, Ordering::SeqCst);
                Some(resp)
            }
            Err(_) => {
                backend.breaker.record(false);
                backend.healthy.store(false, Ordering::SeqCst);
                None
            }
        }
    }

    /// The per-forward deadline for a request accepted at `accepted` with
    /// client budget `budget_ms`: the remaining budget (elapsed router time
    /// subtracted), capped by the configured per-forward timeout. `Err`
    /// when the budget is already exhausted — the forward is not attempted
    /// and the backend never sees dead work.
    fn forward_deadline(
        &self,
        accepted: Instant,
        budget_ms: Option<u64>,
    ) -> Result<(Duration, Option<u64>), ServiceError> {
        let Some(ms) = budget_ms else {
            return Ok((self.config.request_timeout, None));
        };
        let budget = Duration::from_millis(ms).min(self.config.request_timeout);
        let remaining = budget.saturating_sub(accepted.elapsed());
        if remaining.is_zero() {
            self.ins.expired_before_forward.inc();
            return Err(ServiceError::new(
                ErrorKind::Cancelled,
                format!(
                    "deadline budget exhausted before the forward (budget {} ms)",
                    budget.as_millis()
                ),
            ));
        }
        self.ins.deadline_forwards.inc();
        Ok((remaining, Some(remaining.as_millis() as u64)))
    }

    /// Routes `frame` by `hash` under `deadline`: primary shard first,
    /// designated replica on failure. Returns the raw response and whether
    /// the replica answered.
    fn forward_routed(
        &self,
        hash: u64,
        frame: &[u8],
        deadline: Duration,
    ) -> Result<((u8, Vec<u8>), bool), ServiceError> {
        let primary = self.config.topology.ring().node_for_hash(hash);
        let replica = self.config.topology.replica_of(primary);
        if let Some(resp) = self.try_backend(primary, frame, deadline) {
            self.ins.forwards.inc();
            return Ok((resp, false));
        }
        if replica != primary {
            if let Some(resp) = self.try_backend(replica, frame, deadline) {
                self.ins.forwards.inc();
                self.ins.failovers.inc();
                return Ok((resp, true));
            }
        }
        self.ins.unroutable.inc();
        Err(ServiceError::new(
            ErrorKind::Overloaded,
            format!(
                "no live node for shard (primary {}, replica {})",
                self.config.topology.node(primary).id,
                self.config.topology.node(replica).id,
            ),
        ))
    }

    /// Sends `make_req(fresh_id)` to every node. Entries are `(node id,
    /// response)`, `None` where the node was unreachable.
    fn fan_out(
        &self,
        make_req: impl Fn(u64) -> WireRequest,
    ) -> Vec<(String, Option<WireResponse>)> {
        (0..self.backends.len())
            .map(|slot| {
                let req = make_req(self.fresh_id());
                let frame = encode_frame(req.tag(), &req.encode_payload());
                let resp = self
                    .try_backend(slot, &frame, self.config.request_timeout)
                    .and_then(|(tag, payload)| WireResponse::decode(tag, &payload).ok());
                (self.config.topology.node(slot).id.clone(), resp)
            })
            .collect()
    }

    /// One probe round: `health` to every node, updating flags, breakers
    /// and the probe counters.
    fn probe_all(&self) {
        for slot in 0..self.backends.len() {
            let req = WireRequest::Health {
                id: self.fresh_id(),
            };
            let frame = encode_frame(req.tag(), &req.encode_payload());
            self.ins.probes.inc();
            let backend = &self.backends[slot];
            let addr = &self.config.topology.node(slot).addr;
            match backend.round_trip(addr, &frame, &self.config, self.config.request_timeout) {
                Ok(_) => {
                    backend.breaker.record(true);
                    backend.healthy.store(true, Ordering::SeqCst);
                }
                Err(_) => {
                    self.ins.probe_failures.inc();
                    backend.breaker.record(false);
                    backend.healthy.store(false, Ordering::SeqCst);
                }
            }
        }
    }

    /// Per-node health as JSON, used by the router's own `health` verb.
    fn nodes_json(&self) -> Json {
        Json::Arr(
            self.config
                .topology
                .nodes()
                .iter()
                .zip(&self.backends)
                .map(|(spec, backend)| {
                    Json::Obj(vec![
                        ("id".into(), Json::Str(spec.id.clone())),
                        ("addr".into(), Json::Str(spec.addr.clone())),
                        (
                            "healthy".into(),
                            Json::Bool(backend.healthy.load(Ordering::SeqCst)),
                        ),
                        (
                            "breaker".into(),
                            Json::Str(backend.breaker.state().as_str().into()),
                        ),
                    ])
                })
                .collect(),
        )
    }

    fn health_json(&self) -> Json {
        Json::Obj(vec![
            ("status".into(), Json::Str("ok".into())),
            ("node".into(), Json::Str("router".into())),
            ("shutting_down".into(), Json::Bool(self.is_shutdown())),
            ("nodes".into(), self.nodes_json()),
        ])
    }

    fn router_stats_json(&self) -> Json {
        Json::Obj(vec![
            ("forwards".into(), Json::Num(self.ins.forwards.get() as f64)),
            (
                "failovers".into(),
                Json::Num(self.ins.failovers.get() as f64),
            ),
            (
                "replica_warm_hits".into(),
                Json::Num(self.ins.replica_warm_hits.get() as f64),
            ),
            (
                "unroutable".into(),
                Json::Num(self.ins.unroutable.get() as f64),
            ),
            ("probes".into(), Json::Num(self.ins.probes.get() as f64)),
            (
                "deadline_forwards".into(),
                Json::Num(self.ins.deadline_forwards.get() as f64),
            ),
            (
                "expired_before_forward".into(),
                Json::Num(self.ins.expired_before_forward.get() as f64),
            ),
            ("nodes".into(), self.nodes_json()),
        ])
    }

    /// Cluster-wide `stats`: every node's stats JSON merged numerically
    /// (counters sum, objects recurse), with per-node sections and the
    /// router's own counters alongside.
    fn stats_json(&self) -> Json {
        let mut cluster = Json::Obj(Vec::new());
        let mut nodes = Vec::new();
        for (id, resp) in self.fan_out(|id| WireRequest::Stats { id }) {
            let parsed = match resp {
                Some(WireResponse::Text { text, .. }) => Json::parse(text.as_bytes()).ok(),
                _ => None,
            };
            match parsed {
                Some(json) => {
                    merge_numeric(&mut cluster, &json);
                    nodes.push((id, json));
                }
                None => nodes.push((id, Json::Null)),
            }
        }
        Json::Obj(vec![
            ("cluster".into(), cluster),
            ("nodes".into(), Json::Obj(nodes)),
            ("router".into(), self.router_stats_json()),
        ])
    }

    /// Cluster-wide Prometheus exposition: every reachable node's
    /// exposition (each series carrying its `node` label) merged into
    /// single-HELP families, the router's own metrics as `node="router"`.
    fn merged_exposition(&self) -> String {
        let own = self
            .registry
            .snapshot()
            .render_prometheus_with(&[("node", "router")]);
        let node_parts: Vec<(String, String)> = self
            .fan_out(|id| WireRequest::Metrics { id })
            .into_iter()
            .filter_map(|(id, resp)| match resp {
                Some(WireResponse::Text { text, .. }) => Some((id, text)),
                _ => None,
            })
            .collect();
        let mut parts: Vec<(&str, &str)> = vec![("router", own.as_str())];
        parts.extend(
            node_parts
                .iter()
                .map(|(id, text)| (id.as_str(), text.as_str())),
        );
        merge_expositions(&parts)
    }

    /// `compact` fanned out to every node; per-node results keyed by id.
    fn compact_json(&self) -> Json {
        let nodes = self
            .fan_out(|id| WireRequest::Compact { id })
            .into_iter()
            .map(|(id, resp)| {
                let value = match resp {
                    Some(WireResponse::Text { text, .. }) => {
                        Json::parse(text.as_bytes()).unwrap_or(Json::Str(text))
                    }
                    Some(WireResponse::Err { message, .. }) => {
                        Json::Obj(vec![("error".into(), Json::Str(message))])
                    }
                    _ => Json::Null,
                };
                (id, value)
            })
            .collect();
        Json::Obj(vec![("nodes".into(), Json::Obj(nodes))])
    }

    /// The router's one dispatcher, shared by both client protocols:
    /// answers its own verbs, fans `stats`/`metrics`/`compact` out, and
    /// routes solver verbs to their shard. `client` says what to forward:
    /// a binary client's payload goes out unchanged, a JSON client's typed
    /// request is encoded — with the fingerprint the router computed, so
    /// the node can answer from its cache without parsing.
    fn route(
        &self,
        mut req: WireRequest,
        client: Client<'_>,
        accepted: Instant,
        budget_ms: Option<u64>,
    ) -> Result<Routed, ServiceError> {
        let (verb, hash) = match &mut req {
            WireRequest::Ping { .. } => return Ok(Routed::Own(Json::Str("pong".into()))),
            WireRequest::Health { .. } => return Ok(Routed::Own(self.health_json())),
            WireRequest::Stats { .. } => return Ok(Routed::Own(self.stats_json())),
            WireRequest::Metrics { .. } => return Ok(Routed::Metrics(self.merged_exposition())),
            WireRequest::Compact { .. } => return Ok(Routed::Own(self.compact_json())),
            WireRequest::Shutdown { .. } => {
                self.shutdown();
                return Ok(Routed::Shutdown);
            }
            WireRequest::Replicate { .. } => {
                return Err(ServiceError::new(
                    ErrorKind::Protocol,
                    "replicate targets a node, not the router",
                ))
            }
            // The spec is deliberately not part of the routing key: every
            // spec over one loop shards to the node that caches the loop,
            // where the spec-extended cache key keeps the entries distinct.
            WireRequest::Analyze(AnalyzeRequest {
                fingerprint,
                source,
                ..
            }) => ("analyze", solver_route_hash(&client, fingerprint, source)),
            WireRequest::Custom(CustomRequest {
                fingerprint,
                source,
                ..
            }) => ("custom", solver_route_hash(&client, fingerprint, source)),
            // Sessions are shard-sticky: `open` routes by the source's
            // canonical fingerprint, and every `delta` carries that same
            // base fingerprint back, so the whole session lands on one
            // node's session store. A failover mid-session surfaces as a
            // typed `session_lost` error — the replica never held the
            // session — and the client re-opens and replays.
            WireRequest::Open { source, .. } => ("open", route_hash(None, source)),
            WireRequest::Delta { fingerprint, .. } => {
                ("delta", route_hash(Some(*fingerprint), b""))
            }
        };
        let encoded;
        let payload = match client {
            Client::Binary(payload) => payload,
            Client::Json => {
                encoded = req.encode_payload();
                &encoded
            }
        };
        let (deadline, remaining_ms) = self.forward_deadline(accepted, budget_ms)?;
        let frame = forward_frame(req.tag(), payload, remaining_ms);
        let ((tag, payload), via_replica) = self.forward_routed(hash, &frame, deadline)?;
        if via_replica {
            if let Ok(WireResponse::Analyze(ok)) = WireResponse::decode(tag, &payload) {
                if ok.cache_hits > 0 {
                    self.ins.replica_warm_hits.inc();
                }
            }
        }
        Ok(Routed::Forwarded { verb, tag, payload })
    }

    /// Handles one decoded binary client frame; returns the response
    /// frame and whether this was an accepted shutdown. A deadline prefix
    /// on the frame is stripped here and re-attached to the forward with
    /// the *remaining* budget, so elapsed router time is never double-
    /// spent on the node.
    fn handle_binary(&self, tag: u8, payload: &[u8]) -> (Vec<u8>, bool) {
        let accepted = Instant::now();
        let decoded = strip_deadline(tag, payload)
            .map_err(|e| format!("bad deadline prefix: {e}"))
            .and_then(|(tag, budget_ms, offset)| {
                WireRequest::decode(tag, &payload[offset..])
                    .map(|req| (req, budget_ms, &payload[offset..]))
                    .map_err(|e| format!("bad frame: {e}"))
            });
        let (req, budget_ms, payload) = match decoded {
            Ok(decoded) => decoded,
            Err(message) => return (err_frame(0, ErrorKind::Protocol, message), false),
        };
        let id = req.id();
        match self.route(req, Client::Binary(payload), accepted, budget_ms) {
            Ok(Routed::Own(Json::Str(text))) => (text_frame(id, text), false),
            Ok(Routed::Own(json)) => (text_frame(id, json.to_string()), false),
            Ok(Routed::Metrics(text)) => (text_frame(id, text), false),
            Ok(Routed::Shutdown) => (text_frame(id, "shutting down".into()), true),
            Ok(Routed::Forwarded { tag, payload, .. }) => (encode_frame(tag, &payload), false),
            Err(e) => (err_frame(id, e.kind, e.message), false),
        }
    }

    /// Handles one JSON client line; returns the response line (no
    /// newline) and whether this was an accepted shutdown. The line
    /// decodes into the same typed request a binary frame does, takes a
    /// fresh wire id, and goes through the same [`Router::route`]; a
    /// `deadline_ms` field becomes the forward's remaining-budget
    /// deadline exactly as the binary prefix does.
    fn handle_json(&self, frame: &[u8]) -> (String, bool) {
        let accepted = Instant::now();
        let Request {
            id,
            deadline_ms,
            mut body,
        } = match Request::decode(frame) {
            Ok(req) => req,
            Err((id, e)) => return (encode_err(&id, &e), false),
        };
        *body.id_mut() = self.fresh_id();
        let result = match self.route(body, Client::Json, accepted, deadline_ms) {
            Ok(Routed::Own(json)) => Ok(json),
            Ok(Routed::Metrics(text)) => {
                Ok(Json::Obj(vec![("prometheus".into(), Json::Str(text))]))
            }
            Ok(Routed::Shutdown) => {
                return (encode_ok(&id, Json::Str("shutting down".into())), true);
            }
            Ok(Routed::Forwarded { verb, tag, payload }) => forwarded_json(verb, tag, &payload),
            Err(e) => Err(e),
        };
        match result {
            Ok(json) => (encode_ok(&id, json), false),
            Err(e) => (encode_err(&id, &e), false),
        }
    }
}

/// What [`Router::route`] forwards for a client.
enum Client<'a> {
    /// A binary client: its (deadline-stripped) payload, sent unchanged.
    Binary(&'a [u8]),
    /// A JSON client: the typed request is encoded for the node.
    Json,
}

/// What [`Router::route`] produced, before encoding for the client.
enum Routed {
    /// A result the router computed itself. JSON returns it as-is; binary
    /// ships it as a text body (a JSON string unquoted).
    Own(Json),
    /// The merged Prometheus exposition: wrapped as `{"prometheus": …}`
    /// for JSON, the bare text for binary.
    Metrics(String),
    /// `shutdown` was accepted.
    Shutdown,
    /// A node's response frame to a routed `verb`.
    Forwarded {
        verb: &'static str,
        tag: u8,
        payload: Vec<u8>,
    },
}

/// Re-renders a node's binary response to a forwarded JSON request with
/// the node's own JSON encoder, so a routed answer is the JSON a node
/// would send: the decoded reports render byte-identically.
fn forwarded_json(verb: &str, tag: u8, payload: &[u8]) -> Result<Json, ServiceError> {
    let unexpected = || {
        ServiceError::new(
            ErrorKind::Protocol,
            format!("node sent an unexpected response to {verb}"),
        )
    };
    let report = |bytes: &[u8]| {
        decode_report(bytes).map(Arc::new).map_err(|e| {
            ServiceError::new(
                ErrorKind::Protocol,
                format!("node sent an undecodable report: {e}"),
            )
        })
    };
    let fingerprint = |bytes: [u8; 16]| ir::Fingerprint(u128::from_le_bytes(bytes));
    match (
        verb,
        WireResponse::decode(tag, payload).map_err(|_| unexpected())?,
    ) {
        (_, WireResponse::Err { kind, message, .. }) => Err(ServiceError::new(
            kind_from_byte(kind).unwrap_or(ErrorKind::Protocol),
            message,
        )),
        ("analyze" | "custom", WireResponse::Analyze(ok)) => {
            let loops = ok
                .loops
                .iter()
                .map(|entry| {
                    Ok(LoopReport {
                        fingerprint: fingerprint(entry.fingerprint),
                        report: report(&entry.report)?,
                    })
                })
                .collect::<Result<_, ServiceError>>()?;
            Ok(analyze_result_json(&BatchResult {
                index: 0,
                loops,
                error: None,
                stats: QueryStats {
                    cache_hits: ok.cache_hits,
                    cache_misses: ok.cache_misses,
                    solver_passes: ok.solver_passes,
                    node_visits: ok.node_visits,
                    micros: 0,
                },
            }))
        }
        ("open", WireResponse::Session(ok)) => {
            Ok(session_result_json(ok.session, &*report(&ok.report)?))
        }
        ("delta", WireResponse::Delta(ok)) => Ok(delta_result_json(&DeltaReport {
            session: ok.session,
            fingerprint: fingerprint(ok.fingerprint),
            report: report(&ok.report)?,
            fallback: ok.fallback,
            dirty_columns: ok.dirty_columns as usize,
            total_columns: ok.total_columns as usize,
        })),
        _ => Err(unexpected()),
    }
}

/// The routing hash of a request: the canonical fingerprint when the
/// client sent one (or `source` is a single-loop program), a stable byte
/// hash of `source` otherwise — so alpha-equivalent loops land on the
/// same node however they arrive.
fn route_hash(fingerprint: Option<[u8; 16]>, source: &[u8]) -> u64 {
    match fingerprint.or_else(|| source_fingerprint(source)) {
        Some(fp) => fingerprint_route_hash(ir::Fingerprint(u128::from_le_bytes(fp))),
        None => source_route_hash(source),
    }
}

/// The routing hash of an `analyze`/`custom` request. For a JSON client
/// the fingerprint computed from its source is also written into the
/// request, so the node it is forwarded to probes its cache first.
fn solver_route_hash(
    client: &Client<'_>,
    fingerprint: &mut Option<[u8; 16]>,
    source: &Option<Vec<u8>>,
) -> u64 {
    let source = source.as_deref().unwrap_or(b"");
    if matches!(client, Client::Json) && fingerprint.is_none() {
        *fingerprint = source_fingerprint(source);
    }
    route_hash(*fingerprint, source)
}

/// [`fingerprint_of_source`] over raw bytes; `None` for invalid UTF-8.
fn source_fingerprint(source: &[u8]) -> Option<[u8; 16]> {
    std::str::from_utf8(source)
        .ok()
        .and_then(fingerprint_of_source)
}

/// Mirrors `arrayflow::fingerprint`: the canonical fingerprint of a
/// single-loop program, `None` when the source does not parse to exactly
/// one top-level loop (those route by source hash instead).
fn fingerprint_of_source(source: &str) -> Option<[u8; 16]> {
    let mut program = ir::parse_program(source).ok()?;
    ir::normalize(&mut program);
    program.renumber();
    let l = program.sole_loop()?;
    Some(ir::fingerprint_loop(l, &program.symbols).0.to_le_bytes())
}

/// FNV-1a over the source bytes, splitmix-finished — the fallback
/// routing hash for multi-loop or unparseable programs. Any stable
/// function works (the shard only has to be deterministic); this one
/// spreads well.
fn source_route_hash(source: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in source {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01B3);
    }
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Merges `from` into `into`: numbers sum, objects recurse on matching
/// keys (missing keys are inserted), everything else keeps `into`'s
/// value. The cross-node `stats` aggregation.
fn merge_numeric(into: &mut Json, from: &Json) {
    match (into, from) {
        (Json::Num(a), Json::Num(b)) => *a += *b,
        (into @ Json::Obj(_), Json::Obj(bs)) => {
            let Json::Obj(r#as) = into else {
                unreachable!()
            };
            for (key, value) in bs {
                match r#as.iter_mut().find(|(k, _)| k == key) {
                    Some((_, slot)) => merge_numeric(slot, value),
                    None => r#as.push((key.clone(), value.clone())),
                }
            }
        }
        _ => {}
    }
}

/// Encodes a forwarded request frame, re-attaching the remaining budget
/// as a deadline prefix when the client sent one.
fn forward_frame(tag: u8, payload: &[u8], remaining_ms: Option<u64>) -> Vec<u8> {
    match remaining_ms {
        Some(ms) => {
            let (ftag, fpayload) = with_deadline(tag, payload, ms);
            encode_frame(ftag, &fpayload)
        }
        None => encode_frame(tag, payload),
    }
}

fn text_frame(id: u64, text: String) -> Vec<u8> {
    let resp = WireResponse::Text { id, text };
    encode_frame(resp.tag(), &resp.encode_payload())
}

fn err_frame(id: u64, kind: ErrorKind, message: impl Into<String>) -> Vec<u8> {
    let resp = WireResponse::Err {
        id,
        kind: kind_byte(kind),
        message: message.into(),
    };
    encode_frame(resp.tag(), &resp.encode_payload())
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one byte, polling the shutdown flag while idle. `Ok(None)` on
/// EOF or shutdown.
fn wait_byte(stream: &mut TcpStream, router: &Router) -> io::Result<Option<u8>> {
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(byte[0])),
            Err(e) if is_timeout(&e) => {
                if router.is_shutdown() {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Serves one binary-mode client connection. `first` is the sniffed
/// magic byte, spliced back ahead of the stream for the framer.
fn serve_binary_client(router: &Arc<Router>, mut stream: TcpStream, first: u8) -> io::Result<()> {
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut pending = Some(first);
    loop {
        let lead = match pending.take() {
            Some(b) => b,
            None => match wait_byte(&mut stream, router)? {
                Some(b) => b,
                None => return Ok(()),
            },
        };
        // Mid-frame reads run under the request deadline, not the
        // shutdown-poll interval — a torn frame drops the connection
        // instead of wedging it.
        stream.set_read_timeout(Some(router.config.request_timeout))?;
        let mut reader = io::Cursor::new(vec![lead]).chain(stream.try_clone()?);
        let (tag, payload) = match read_frame(&mut reader, router.config.max_frame_bytes) {
            Ok(frame) => frame,
            Err(e) => {
                let frame = err_frame(0, ErrorKind::Protocol, format!("bad frame: {e}"));
                let _ = writer.write_all(&frame);
                let _ = writer.flush();
                return Ok(());
            }
        };
        stream.set_read_timeout(Some(READ_POLL))?;
        let (frame, is_shutdown) = router.handle_binary(tag, &payload);
        writer.write_all(&frame)?;
        writer.flush()?;
        if is_shutdown {
            return Ok(());
        }
    }
}

/// Serves one JSON-mode client connection; `first` is the already-read
/// opening byte of the first line.
fn serve_json_client(router: &Arc<Router>, stream: TcpStream, first: u8) -> io::Result<()> {
    let reader = BufReader::new(io::Cursor::new(vec![first]).chain(stream.try_clone()?));
    let mut writer = BufWriter::new(stream);
    let mut frames = FrameReader::new(reader, router.config.max_frame_bytes);
    loop {
        match frames.next_frame() {
            Ok(Some(Frame::Complete)) => {
                let (line, is_shutdown) = router.handle_json(frames.frame());
                writer.write_all(line.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                if is_shutdown {
                    return Ok(());
                }
            }
            Ok(Some(Frame::Oversized)) => {
                let e = ServiceError::new(
                    ErrorKind::Protocol,
                    format!(
                        "frame exceeds the {} byte cap",
                        router.config.max_frame_bytes
                    ),
                );
                writer.write_all(encode_err(&Json::Null, &e).as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
            }
            Ok(None) => return Ok(()),
            Err(e) if is_timeout(&e) => {
                if router.is_shutdown() {
                    return Ok(());
                }
            }
            Err(_) => return Ok(()),
        }
    }
}

fn handle_client(router: Arc<Router>, mut stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    let first = match wait_byte(&mut stream, &router)? {
        Some(b) => b,
        None => return Ok(()),
    };
    if first == b'{' {
        serve_json_client(&router, stream, first)
    } else {
        serve_binary_client(&router, stream, first)
    }
}

/// The TCP front-end over a [`Router`]: thread-per-client connections
/// plus the background health prober.
pub struct RouterServer {
    router: Arc<Router>,
    listener: TcpListener,
}

impl RouterServer {
    /// Binds `addr` (port 0 for ephemeral) in front of a fresh router.
    pub fn bind(addr: impl ToSocketAddrs, config: RouterConfig) -> io::Result<RouterServer> {
        let listener = TcpListener::bind(addr)?;
        Ok(RouterServer {
            router: Router::new(config),
            listener,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle to the routing core (shutdown, metrics).
    pub fn router(&self) -> Arc<Router> {
        Arc::clone(&self.router)
    }

    /// Accepts and serves clients until a `shutdown` request, probing
    /// backend health in the background; then joins every connection
    /// thread.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let prober = {
            let router = Arc::clone(&self.router);
            std::thread::Builder::new()
                .name("router-prober".into())
                .spawn(move || {
                    while !router.is_shutdown() {
                        router.probe_all();
                        let mut waited = Duration::ZERO;
                        while waited < router.config.probe_interval && !router.is_shutdown() {
                            std::thread::sleep(READ_POLL);
                            waited += READ_POLL;
                        }
                    }
                })
                .expect("spawn router prober thread")
        };
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.router.is_shutdown() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.router.ins.connections.inc();
                    let router = Arc::clone(&self.router);
                    connections.push(std::thread::spawn(move || {
                        let _ = handle_client(router, stream);
                    }));
                }
                Err(e) if is_timeout(&e) => {
                    std::thread::sleep(Duration::from_millis(5));
                    connections.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        for handle in connections {
            let _ = handle.join();
        }
        let _ = prober.join();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_hash_prefers_the_canonical_fingerprint() {
        // Alpha-equivalent single-loop programs must route identically,
        // whether the fingerprint arrives precomputed or as source.
        let a = "do i = 1, 100 A[i+2] := A[i] + x; end";
        let b = "do j = 1, 100 B[j+2] := B[j] + y; end";
        let fp = fingerprint_of_source(a).unwrap();
        assert_eq!(fingerprint_of_source(b), Some(fp));

        let by_source = route_hash(None, a.as_bytes());
        let by_fp = route_hash(Some(fp), b"");
        let alpha = route_hash(None, b.as_bytes());
        assert_eq!(by_source, by_fp);
        assert_eq!(by_source, alpha);
    }

    #[test]
    fn multi_loop_source_falls_back_to_a_stable_byte_hash() {
        let src = "do i = 1, 9 A[i] := 1; end do j = 1, 9 B[j] := 2; end";
        assert_eq!(fingerprint_of_source(src), None);
        let h1 = route_hash(None, src.as_bytes());
        assert_eq!(h1, source_route_hash(src.as_bytes()));
        assert_ne!(h1, source_route_hash(b"different"));
    }

    #[test]
    fn merge_numeric_sums_and_recurses() {
        let mut a = Json::parse(br#"{"requests": 3, "inner": {"hits": 1}, "name": "n1"}"#).unwrap();
        let b = Json::parse(br#"{"requests": 4, "inner": {"hits": 2, "misses": 5}}"#).unwrap();
        merge_numeric(&mut a, &b);
        assert_eq!(a.get("requests").and_then(Json::as_u64), Some(7));
        let inner = a.get("inner").unwrap();
        assert_eq!(inner.get("hits").and_then(Json::as_u64), Some(3));
        assert_eq!(inner.get("misses").and_then(Json::as_u64), Some(5));
        assert_eq!(a.get("name").and_then(Json::as_str), Some("n1"));
    }

    #[test]
    fn unroutable_request_is_a_structured_overloaded_error() {
        // Nothing listens on these ports; both candidates fail fast.
        let topology = Topology::parse("a=127.0.0.1:1,b=127.0.0.1:1", 16).unwrap();
        let mut config = RouterConfig::new(topology);
        config.connect_timeout = Duration::from_millis(100);
        let router = Router::new(config);
        let (line, is_shutdown) = router.handle_json(
            br#"{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i] := 1; end"}"#,
        );
        assert!(!is_shutdown);
        assert!(line.contains(r#""kind":"overloaded""#), "{line}");
        assert!(router.ins.unroutable.get() >= 1);
        // The health view reflects the dead nodes after the attempts.
        let health = router.health_json().to_string();
        assert!(health.contains(r#""healthy":false"#), "{health}");
    }

    #[test]
    fn delta_frames_missing_fields_answer_protocol_errors() {
        // Regression: hand-crafted delta frames with a missing
        // `fingerprint` or `session` used to reach `.expect()` calls that
        // trusted decode invariants, taking the router thread down.
        let topology = Topology::parse("a=127.0.0.1:1", 16).unwrap();
        let router = Router::new(RouterConfig::new(topology));
        let fp = "000102030405060708090a0b0c0d0e0f";
        let frames = [
            r#"{"id": 1, "verb": "delta", "stmt": 3, "text": "A[i] := 1;"}"#.to_string(),
            format!(
                r#"{{"id": 2, "verb": "delta", "fingerprint": "{fp}", "stmt": 3, "text": "x := 1;"}}"#
            ),
            format!(r#"{{"id": 3, "verb": "delta", "session": 7, "fingerprint": "{fp}"}}"#),
            r#"{"id": 4, "verb": "delta"}"#.to_string(),
        ];
        for frame in frames {
            let (line, is_shutdown) = router.handle_json(frame.as_bytes());
            assert!(!is_shutdown);
            assert!(line.contains(r#""kind":"protocol""#), "{line}");
        }
    }

    #[test]
    fn custom_routes_by_the_same_keys_as_analyze() {
        // The spec is part of the cache key, never the routing key: every
        // spec over one loop must shard to the node that caches it.
        let src = "do i = 1, 100 A[i+2] := A[i] + x; end";
        let fp = fingerprint_of_source(src).unwrap();
        let mut by_fp = CustomRequest {
            id: 1,
            spec: 0b01,
            fingerprint: Some(fp),
            distance_bound: None,
            source: None,
        };
        let mut by_source = CustomRequest {
            id: 2,
            spec: 0b10_0110,
            fingerprint: None,
            distance_bound: None,
            source: Some(src.as_bytes().to_vec()),
        };
        let mut analyze = AnalyzeRequest {
            id: 3,
            fingerprint: Some(fp),
            problems: None,
            distance_bound: None,
            source: None,
        };
        let binary = Client::Binary(&[]);
        let custom_fp = solver_route_hash(&binary, &mut by_fp.fingerprint, &by_fp.source);
        let custom_src = solver_route_hash(&binary, &mut by_source.fingerprint, &by_source.source);
        let analyze_fp = solver_route_hash(&binary, &mut analyze.fingerprint, &analyze.source);
        assert_eq!(custom_fp, custom_src);
        assert_eq!(custom_fp, analyze_fp);
        // A binary request is forwarded verbatim, so it is left as sent; a
        // JSON one gains the computed fingerprint for the node's probe.
        assert_eq!(by_source.fingerprint, None);
        let json = solver_route_hash(&Client::Json, &mut by_source.fingerprint, &by_source.source);
        assert_eq!(json, custom_fp);
        assert_eq!(by_source.fingerprint, Some(fp));
    }

    #[test]
    fn zero_budget_requests_are_cancelled_without_a_forward() {
        // A dead-on-arrival budget must never consume a backend round
        // trip: the router answers `cancelled` itself, on both protocols.
        let topology = Topology::parse("a=127.0.0.1:1", 16).unwrap();
        let router = Router::new(RouterConfig::new(topology));

        let (line, is_shutdown) = router.handle_json(
            br#"{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i] := 1; end", "deadline_ms": 0}"#,
        );
        assert!(!is_shutdown);
        assert!(line.contains(r#""kind":"cancelled""#), "{line}");

        let req = WireRequest::Analyze(AnalyzeRequest {
            id: 2,
            fingerprint: None,
            problems: None,
            distance_bound: None,
            source: Some(b"do i = 1, 9 A[i] := 1; end".to_vec()),
        });
        let (tag, payload) = with_deadline(req.tag(), &req.encode_payload(), 0);
        let (frame, is_shutdown) = router.handle_binary(tag, &payload);
        assert!(!is_shutdown);
        let (rtag, rpayload) = read_frame(&mut io::Cursor::new(frame), 1 << 20).unwrap();
        match WireResponse::decode(rtag, &rpayload) {
            Ok(WireResponse::Err { kind, message, .. }) => {
                assert_eq!(
                    kind_from_byte(kind),
                    Some(ErrorKind::Cancelled),
                    "{message}"
                );
            }
            other => panic!("expected cancelled error, got {other:?}"),
        }

        assert_eq!(router.ins.forwards.get(), 0);
        assert_eq!(router.ins.expired_before_forward.get(), 2);
    }

    #[test]
    fn pooled_round_trips_do_not_self_deadlock() {
        // Regression: the second round trip on a backend pops the pooled
        // connection and returns it via `put_back`, which locks the pool
        // again — holding the pop's lock guard across the body wedged
        // the backend (and everything queued behind its mutex) forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for _ in 0..3 {
                let (tag, payload) = read_frame(&mut stream, 1 << 20).unwrap();
                let id = match WireRequest::decode(tag, &payload) {
                    Ok(WireRequest::Ping { id }) => id,
                    other => panic!("expected ping, got {other:?}"),
                };
                let resp = WireResponse::Text {
                    id,
                    text: "pong".into(),
                };
                stream
                    .write_all(&encode_frame(resp.tag(), &resp.encode_payload()))
                    .unwrap();
            }
        });

        let config = RouterConfig::new(Topology::parse(&format!("n1={addr}"), 0).unwrap());
        let backend = Backend {
            healthy: AtomicBool::new(true),
            breaker: CircuitBreaker::new(3, Duration::from_secs(1)),
            pool: Mutex::new(Vec::new()),
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            // First trip dials fresh and pools; the next two go through
            // the pooled-connection path.
            for id in 0..3u64 {
                let req = WireRequest::Ping { id };
                let frame = encode_frame(req.tag(), &req.encode_payload());
                backend
                    .round_trip(&addr, &frame, &config, config.request_timeout)
                    .expect("round trip");
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("pooled round trip deadlocked");
        server.join().unwrap();
    }
}
