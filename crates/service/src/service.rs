//! The service core: a shared [`Engine`] behind a bounded request queue
//! and a worker pool, with per-request deadlines, a structured error
//! taxonomy, service-level counters and graceful drain-on-shutdown.
//!
//! Transport-agnostic: both the TCP listener and the stdio loop feed raw
//! frames to [`Service::handle_frame`] and write back the returned line.
//! Every transport and both protocols end in one dispatcher over the
//! typed wire request. Cheap verbs (`ping`, `stats`, `shutdown`, …) and
//! fingerprint-cache hits are answered inline on the transport thread;
//! `analyze`, `custom`, `open` and `delta` go through the queue so a
//! flood of expensive requests degrades into explicit `overloaded`
//! errors instead of unbounded memory growth or latency collapse.

use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use arrayflow_cluster::{Replicator, ReplicatorConfig};
use arrayflow_engine::{
    AnalysisReport, BatchResult, CustomSpec, DeltaReport, Engine, EngineConfig, EngineStats,
    LoopReport, ProblemSet, QueryStats,
};
use arrayflow_ir::{parse_program_bytes, Edit, Fingerprint, StmtId};
use arrayflow_obs::{
    observed_span, with_current, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue,
    Registry, Trace, PHASE_BUCKETS_US,
};
use arrayflow_resilience::{panic_message, CancelToken, FaultSurface};
use arrayflow_store::{PersistentTier, Store, StoreConfig};
use arrayflow_wire::proto::Request as WireRequest;

use crate::json::Json;
use crate::proto::{
    analyze_result_json, delta_result_json, encode_err, encode_ok, session_result_json, ErrorKind,
    ServiceError,
};

/// Upper edges of the request latency histogram, in microseconds; the
/// final bucket is unbounded.
pub const LATENCY_BUCKETS_US: [u64; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];

/// Upper edges of the wasted-work histogram: solver passes a job had
/// completed when it was cancelled or expired. Mirrors the engine's
/// per-instance pass buckets — the paper's bound says completed work
/// clusters at 2–3 passes, so wasted work beyond a pass or two means the
/// cooperative stop checks are not being polled often enough.
pub const WASTED_PASS_BUCKETS: [u64; 5] = [1, 2, 3, 4, 6];

/// Service construction parameters. `Default` is a reasonable single-host
/// setup: engine defaults, one service worker per hardware thread, a
/// 256-request queue, 5 s deadline, 1 MiB frames.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Configuration of the shared analysis engine.
    pub engine: EngineConfig,
    /// Worker threads executing `analyze` requests. `0` means one per
    /// available hardware thread.
    pub workers: usize,
    /// Bound on queued-but-unstarted `analyze` requests; submissions
    /// beyond it are rejected with an `overloaded` error.
    pub queue_capacity: usize,
    /// Per-request deadline, measured from the moment the frame is
    /// accepted. Requests that spend longer than this queued (or whose
    /// analysis overruns it) answer with a `timeout` error.
    pub request_timeout: Duration,
    /// Maximum accepted frame (request line) size in bytes; longer lines
    /// are discarded and answered with a `protocol` error.
    pub max_frame_bytes: usize,
    /// When set, reports persist to this disk store: the cache is
    /// warm-started from it on boot, misses fall through to it, and fresh
    /// results are appended asynchronously.
    pub store: Option<StoreConfig>,
    /// When set, every request whose end-to-end latency reaches this many
    /// microseconds emits one structured line on stderr with the trace id
    /// and per-phase span breakdown. `0` logs every request.
    pub slow_log_micros: Option<u64>,
    /// When set, the fault surface is installed at every injection seam
    /// (solver panics/latency in the engine, store append I/O, worker
    /// exits) for chaos drills — see `serve --fault-plan`. `None` (the
    /// default, and the only sane production setting) leaves every seam a
    /// single branch.
    pub faults: Option<Arc<dyn FaultSurface>>,
    /// Stable node identity in a cluster (`serve --node-id`). Stamped as
    /// a `node` label on every Prometheus series and echoed by the
    /// `health` verb, so multi-node scrapes and router probes stay
    /// distinguishable.
    pub node_id: Option<String>,
    /// Replica address (`serve --replicate-to`). Requires a store: every
    /// record reaching the local segment log is also shipped to this
    /// address as `replicate` wire frames, keeping the replica warm for
    /// failover.
    pub replicate_to: Option<String>,
    /// Ship interval for the replicator's incremental batches (a flush
    /// barrier ships sooner).
    pub replicate_interval: Duration,
    /// Idle-connection timeout for the event-driven server (`serve
    /// --idle-timeout-ms`): a connection that has sent no bytes for this
    /// long — including a slow-loris peer parked mid-frame — is closed
    /// and counted in `arrayflow_idle_disconnects_total`. `Duration::ZERO`
    /// disables the sweep.
    pub idle_timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            workers: 0,
            queue_capacity: 256,
            request_timeout: Duration::from_secs(5),
            max_frame_bytes: 1 << 20,
            store: None,
            slow_log_micros: None,
            faults: None,
            node_id: None,
            replicate_to: None,
            replicate_interval: Duration::from_millis(250),
            idle_timeout: Duration::from_secs(60),
        }
    }
}

impl ServiceConfig {
    /// The worker count actually used (resolving `0`).
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Snapshot of the service-level counters (the engine keeps its own
/// [`EngineStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Connections accepted (TCP) or opened (stdio counts as one).
    pub connections: u64,
    /// Frames that produced a response, by outcome.
    pub requests: u64,
    /// Dead worker threads replaced by the supervisor.
    pub worker_restarts: u64,
    /// Successful responses.
    pub ok: u64,
    /// DSL parse failures.
    pub parse_errors: u64,
    /// Analysis failures.
    pub analysis_errors: u64,
    /// Deadline misses.
    pub timeouts: u64,
    /// Queue-full / shutting-down rejections.
    pub overloaded: u64,
    /// Malformed frames (bad JSON, unknown verb, bad fields). Oversized
    /// frames have their own counter and are *not* included here.
    pub protocol_errors: u64,
    /// `delta` requests whose session no longer exists on the answering
    /// node (mid-session failover); clients re-`open` and replay.
    pub session_lost: u64,
    /// `cancelled` responses: jobs abandoned because the owning connection
    /// dropped or the deadline budget expired before/while the worker ran
    /// them. Like oversized frames, these are *not* part of `requests` and
    /// never touch the latency histogram — no client was answered in time,
    /// so timing them would only skew the distribution.
    pub cancelled: u64,
    /// Jobs cancelled because the owning connection dropped.
    pub cancelled_disconnect: u64,
    /// Jobs cancelled because the deadline budget ran out.
    pub cancelled_expired: u64,
    /// Requests that arrived carrying a client deadline budget
    /// (`deadline_ms` field or the binary deadline tag bit).
    pub deadline_propagated: u64,
    /// Connections reaped by the event server's idle sweep (slow-loris
    /// peers included).
    pub idle_disconnects: u64,
    /// Frames discarded for exceeding [`ServiceConfig::max_frame_bytes`].
    /// Counted separately from `requests` so they never skew the latency
    /// distribution (the frame is discarded without being timed).
    pub oversized_frames: u64,
    /// High-water mark of the analyze queue depth.
    pub queue_depth_hwm: usize,
    /// Latency histogram: counts per [`LATENCY_BUCKETS_US`] bucket plus a
    /// final unbounded bucket.
    pub latency: [u64; LATENCY_BUCKETS_US.len() + 1],
    /// Queue-wait histogram for `analyze` requests (same buckets as
    /// `latency`): time between enqueue and a worker picking the job up.
    pub queue_wait: [u64; LATENCY_BUCKETS_US.len() + 1],
}

impl ServiceStats {
    /// Total error responses across the taxonomy.
    pub fn errors(&self) -> u64 {
        self.parse_errors
            + self.analysis_errors
            + self.timeouts
            + self.overloaded
            + self.protocol_errors
            + self.session_lost
            + self.cancelled
    }
}

/// How a dispatched request's outcome reaches whoever is waiting: a
/// boxed one-shot closure, so the blocking transports (an `mpsc` send the
/// submitting thread waits on) and the event-driven server (append to a
/// completion queue, wake the poll loop) share one dispatcher, one queue
/// and one worker pool.
pub(crate) type Reply = Box<dyn FnOnce(Result<Outcome, ServiceError>) + Send>;

/// The engine work a queued job carries. Everything that runs a solver —
/// full analyses, session opens (a full analysis that also retains
/// state), and delta re-convergences — goes through the bounded queue so
/// a flood degrades into explicit `overloaded` errors.
enum Work {
    /// A stateless `analyze`.
    Analyze {
        /// DSL source of the program to analyze.
        program: String,
        /// Which problem instances to solve.
        problems: ProblemSet,
        /// Dependence distance bound for the report.
        distance_bound: u64,
    },
    /// A `custom`: solve a user-specified (G, K) problem over a program.
    Custom {
        /// DSL source of the program to analyze.
        program: String,
        /// The user's (G, K) spec: which site roles generate and kill,
        /// direction, and confluence mode.
        spec: CustomSpec,
        /// Dependence distance bound for the report.
        distance_bound: u64,
    },
    /// An `open`: full analysis plus session retention.
    Open {
        /// DSL source of the program to open a session over.
        program: String,
    },
    /// A `delta`: one statement replacement against an open session.
    Delta {
        /// The session id from a prior `open`.
        session: u64,
        /// The statement replacement to apply.
        edit: Edit,
    },
}

/// What a successfully dispatched request produced, before encoding.
/// Exactly two encoders turn it into bytes: [`Service::json_result`] (a
/// JSON `result` value) and `Service::binary_response` (an `AFWIRE01`
/// response), so both protocols answer every verb from the same value.
pub(crate) enum Outcome {
    /// A cheap verb's result. JSON returns it as-is; binary ships it as a
    /// text body (a JSON string travels unquoted, anything else rendered).
    Text(Json),
    /// `metrics`: structured JSON plus the exposition for JSON clients,
    /// the bare Prometheus exposition for binary ones.
    Metrics,
    /// `shutdown` was accepted; the transport stops reading after this.
    Shutdown,
    /// An `analyze`/`custom` result, solved or a fingerprint-cache hit.
    Analyze(BatchResult),
    /// The session id and initial report of an `open`.
    Session(u64, Arc<AnalysisReport>),
    /// The re-analysis of a `delta`.
    Delta(DeltaReport),
}

/// What the dispatcher does with a validated request.
enum Step {
    /// Answer inline, on the calling thread.
    Answer(Outcome),
    /// Run on the worker pool.
    Queue(Work),
}

struct Job {
    work: Work,
    /// When the frame was accepted by `handle_frame` — the deadline base.
    accepted: Instant,
    enqueued: Instant,
    deadline: Duration,
    /// Cooperative cancellation: set by whoever learns the request is dead
    /// (the event loop on connection teardown, the blocking waiter on its
    /// own timeout). Workers check it at dequeue, and the solver polls it
    /// between iteration passes, so a dead request costs at most one pass.
    cancel: CancelToken,
    /// The request's trace, carried across the queue so worker-side spans
    /// (parse, solve, tier I/O) land on the same per-request record.
    trace: Arc<Trace>,
    reply: Reply,
}

/// The outcome of handling one frame.
pub struct FrameResponse {
    /// The response line (no trailing newline).
    pub line: String,
    /// True when this frame was a `shutdown` request; the transport should
    /// send the line, stop reading, and let the server drain.
    pub shutdown: bool,
}

/// A long-lived analysis service: shared engine, bounded queue, worker
/// pool and counters. Construct with [`Service::start`]; share via `Arc`.
pub struct Service {
    config: ServiceConfig,
    engine: Engine,
    registry: Registry,
    tier: Option<Arc<PersistentTier>>,
    replicator: Option<Arc<Replicator>>,
    warm_loaded: u64,
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    shutdown: AtomicBool,
    workers: Mutex<Vec<JoinHandle<()>>>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    next_trace_id: AtomicU64,
    ins: ServiceInstruments,
}

/// The service's registered instruments: request/response counters by
/// outcome, the latency and queue-wait histograms, and the
/// transport-side phase timings.
#[derive(Debug, Clone)]
pub(crate) struct ServiceInstruments {
    pub(crate) connections: Counter,
    pub(crate) requests: Counter,
    pub(crate) ok: Counter,
    pub(crate) parse_errors: Counter,
    pub(crate) analysis_errors: Counter,
    pub(crate) timeouts: Counter,
    pub(crate) overloaded: Counter,
    pub(crate) protocol_errors: Counter,
    pub(crate) session_lost: Counter,
    pub(crate) cancelled: Counter,
    pub(crate) cancelled_disconnect: Counter,
    pub(crate) cancelled_expired: Counter,
    pub(crate) deadline_propagated: Counter,
    pub(crate) idle_disconnects: Counter,
    pub(crate) oversized_frames: Counter,
    pub(crate) worker_restarts: Counter,
    pub(crate) queue_depth_hwm: Gauge,
    pub(crate) latency: Histogram,
    pub(crate) queue_wait: Histogram,
    pub(crate) wasted_passes: Histogram,
    pub(crate) phase_decode: Histogram,
    pub(crate) phase_parse: Histogram,
}

impl ServiceInstruments {
    fn registered(registry: &Registry) -> Self {
        let outcome = |name| {
            registry.counter_with(
                "arrayflow_responses_total",
                "responses sent, by outcome",
                &[("outcome", name)],
            )
        };
        let phase = |name| {
            registry.histogram_with(
                "arrayflow_phase_us",
                "per-phase wall-clock, microseconds",
                &[("phase", name)],
                &PHASE_BUCKETS_US,
            )
        };
        Self {
            connections: registry.counter(
                "arrayflow_connections_total",
                "transport connections accepted (stdio counts as one)",
            ),
            requests: registry.counter(
                "arrayflow_requests_total",
                "frames that produced a timed response",
            ),
            ok: outcome("ok"),
            parse_errors: outcome("parse"),
            analysis_errors: outcome("analysis"),
            timeouts: outcome("timeout"),
            overloaded: outcome("overloaded"),
            protocol_errors: outcome("protocol"),
            session_lost: outcome("session_lost"),
            cancelled: outcome("cancelled"),
            cancelled_disconnect: registry.counter_with(
                "arrayflow_cancelled_jobs_total",
                "jobs abandoned before completion, by reason",
                &[("reason", "disconnect")],
            ),
            cancelled_expired: registry.counter_with(
                "arrayflow_cancelled_jobs_total",
                "jobs abandoned before completion, by reason",
                &[("reason", "expired")],
            ),
            deadline_propagated: registry.counter(
                "arrayflow_deadline_propagated_total",
                "requests that arrived carrying a client deadline budget",
            ),
            idle_disconnects: registry.counter(
                "arrayflow_idle_disconnects_total",
                "connections closed by the idle sweep (slow-loris peers included)",
            ),
            oversized_frames: registry.counter(
                "arrayflow_oversized_frames_total",
                "frames discarded for exceeding the size cap (excluded from request latency)",
            ),
            worker_restarts: registry.counter(
                "arrayflow_worker_restarts_total",
                "dead worker threads replaced by the supervisor",
            ),
            queue_depth_hwm: registry.gauge(
                "arrayflow_queue_depth_hwm",
                "high-water mark of the analyze queue depth",
            ),
            latency: registry.histogram(
                "arrayflow_request_latency_us",
                "end-to-end request latency (decode through response encode), microseconds",
                &LATENCY_BUCKETS_US,
            ),
            queue_wait: registry.histogram(
                "arrayflow_queue_wait_us",
                "time analyze jobs spent queued before a worker picked them up, microseconds",
                &LATENCY_BUCKETS_US,
            ),
            wasted_passes: registry.histogram(
                "arrayflow_wasted_passes",
                "solver passes completed by a job before it was cancelled or expired",
                &WASTED_PASS_BUCKETS,
            ),
            phase_decode: phase("decode"),
            phase_parse: phase("parse"),
        }
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Service {
    /// Builds the service and spawns its worker pool. When a store is
    /// configured this opens (and crash-recovers) it, wires it under the
    /// engine's cache as the second tier, and warm-starts the cache from
    /// every live record on disk. A store that cannot be opened is an
    /// error, never a panic — the `serve` binary turns it into a
    /// structured one-line diagnostic and a nonzero exit.
    pub fn start(config: ServiceConfig) -> io::Result<Arc<Service>> {
        let registry = Registry::new();
        let mut engine = Engine::with_registry(config.engine.clone(), &registry);
        if let Some(faults) = &config.faults {
            engine.set_fault_surface(Arc::clone(faults));
        }
        let mut tier = None;
        let mut warm_loaded = 0u64;
        let mut replicator = None;
        if let Some(store_config) = &config.store {
            let queue_bound = store_config.writer_queue;
            let store = Arc::new(Store::open_in(store_config.clone(), &registry)?);
            if let Some(faults) = &config.faults {
                store.set_fault_surface(Arc::clone(faults));
            }
            let t = PersistentTier::new_in(Arc::clone(&store), queue_bound, &registry);
            engine.set_second_tier(t.clone());
            warm_loaded = store.for_each_live(|key, report| {
                engine.preload(key, Arc::new(report));
            });
            if let Some(replica_addr) = &config.replicate_to {
                // Tee the writer thread to the designated replica. The
                // replicator full-syncs on every connect, so a replica
                // that comes up late still converges.
                let mut rconfig = ReplicatorConfig::to(replica_addr.clone());
                rconfig.interval = config.replicate_interval;
                rconfig.max_frame_bytes = 64 << 20;
                let r = Replicator::start(Arc::clone(&store), rconfig, &registry);
                t.set_replication_sink(r.clone());
                replicator = Some(r);
            }
            tier = Some(t);
        } else if config.replicate_to.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "--replicate-to requires a store (--store DIR)",
            ));
        }
        let ins = ServiceInstruments::registered(&registry);
        let svc = Arc::new(Service {
            engine,
            registry,
            tier,
            replicator,
            warm_loaded,
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
            supervisor: Mutex::new(None),
            next_trace_id: AtomicU64::new(1),
            ins,
            config,
        });
        let n = svc.config.effective_workers();
        let mut workers = svc.workers.lock().unwrap();
        for _ in 0..n {
            let svc = Arc::clone(&svc);
            workers.push(std::thread::spawn(move || svc.worker_loop()));
        }
        drop(workers);
        {
            let supervisor = {
                let svc = Arc::clone(&svc);
                std::thread::Builder::new()
                    .name("service-supervisor".into())
                    .spawn(move || svc.supervisor_loop())
                    .expect("spawn service supervisor")
            };
            *svc.supervisor.lock().unwrap() = Some(supervisor);
        }
        Ok(svc)
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The shared engine (e.g. for a direct in-process baseline).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The metrics registry shared by the service, engine, cache, store
    /// and tier — everything one `metrics` scrape covers.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// How many reports the cache was warm-started with from the disk
    /// store at boot (0 without a store).
    pub fn warm_loaded(&self) -> u64 {
        self.warm_loaded
    }

    /// The persistent tier, when a store is configured.
    pub fn tier(&self) -> Option<&Arc<PersistentTier>> {
        self.tier.as_ref()
    }

    /// This node's cluster identity (`--node-id`), when set.
    pub fn node_id(&self) -> Option<&str> {
        self.config.node_id.as_deref()
    }

    /// The store replicator, when `--replicate-to` is configured.
    pub fn replicator(&self) -> Option<&Arc<Replicator>> {
        self.replicator.as_ref()
    }

    /// The `health` verb payload: node identity plus liveness facts the
    /// router's failover probes key on. Answered inline on the transport
    /// thread — a wedged worker pool must not make a healthy node look
    /// dead, and an unhealthy queue shows up in `queued` anyway.
    fn health_json(&self) -> Json {
        Json::Obj(vec![
            ("status".into(), Json::Str("ok".into())),
            (
                "node".into(),
                match &self.config.node_id {
                    Some(id) => Json::Str(id.clone()),
                    None => Json::Null,
                },
            ),
            ("shutting_down".into(), Json::Bool(self.is_shutdown())),
        ])
    }

    /// The full Prometheus exposition, stamped with this node's `node`
    /// label when one is configured.
    pub(crate) fn render_exposition(&self) -> String {
        let snapshot = self.registry.snapshot();
        match &self.config.node_id {
            Some(id) => snapshot.render_prometheus_with(&[("node", id)]),
            None => snapshot.render_prometheus(),
        }
    }

    /// Applies a replication batch to the local store — the replica-side
    /// half of the `replicate` verb. The memo cache warms through the
    /// tier on the first fingerprint probe of each key, so a failover
    /// request reads warm bytes from disk even before memory fills.
    /// Errors are protocol-kind (a corrupt batch) or analysis-kind
    /// (local I/O).
    fn apply_replica_batch(&self, batch: &[u8]) -> Result<Json, ServiceError> {
        let Some(tier) = &self.tier else {
            return Err(ServiceError::new(
                ErrorKind::Protocol,
                "no store configured (start with --store DIR)",
            ));
        };
        let store = tier.store_handle();
        let before = store.len() as u64;
        let applied = store.import_frames(batch).map_err(|e| {
            if e.kind() == io::ErrorKind::InvalidData {
                ServiceError::new(ErrorKind::Protocol, format!("bad replication batch: {e}"))
            } else {
                ServiceError::new(
                    ErrorKind::Analysis,
                    format!("replication append failed: {e}"),
                )
            }
        })?;
        self.registry
            .counter(
                "arrayflow_replica_applied_records_total",
                "replication records applied to the local store",
            )
            .add(applied);
        Ok(Json::Obj(vec![
            ("applied".into(), Json::Num(applied as f64)),
            ("live_before".into(), Json::Num(before as f64)),
            ("live_after".into(), Json::Num(store.len() as f64)),
        ]))
    }

    /// True once shutdown has been requested. Transports stop reading new
    /// frames when they observe this.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests graceful shutdown: no new `analyze` submissions are
    /// accepted, workers drain what is already queued, transports close
    /// after their current frame.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.job_ready.notify_all();
    }

    /// Joins the worker pool. Call after [`Service::shutdown`]; returns
    /// once every queued request has been answered, all workers exited,
    /// and (with a store) every queued append has reached disk.
    pub fn join_workers(&self) {
        // The supervisor goes first so it cannot respawn a worker while
        // the pool drains below.
        if let Some(h) = self.supervisor.lock().unwrap().take() {
            let _ = h.join();
        }
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        if let Some(tier) = &self.tier {
            tier.flush();
        }
        if let Some(replicator) = &self.replicator {
            // The flush barrier above forwarded everything to the
            // replicator; let it ship what it holds, then stop.
            replicator.shutdown();
        }
    }

    /// Records one accepted transport connection.
    pub fn record_connection(&self) {
        self.ins.connections.inc();
    }

    /// Handles one raw frame end-to-end: decode, dispatch, count, encode.
    /// Never panics and never drops a request silently — hostile bytes
    /// come back as structured `protocol` errors. Each frame gets a trace
    /// with per-phase spans; when [`ServiceConfig::slow_log_micros`] is
    /// set, requests over the threshold log the span breakdown to stderr.
    ///
    /// The calling thread waits for queued work until the request's
    /// deadline and answers `timeout` itself when it passes.
    pub fn handle_frame(&self, frame: &[u8]) -> FrameResponse {
        let accepted = Instant::now();
        let trace = self.begin_trace();
        let req = match self.decode_json(&trace, frame) {
            Ok(req) => req,
            Err((id, e)) => return self.finish_json(&trace, accepted, &id, Err(e)),
        };
        let cancel = CancelToken::new();
        let (tx, rx) = mpsc::channel();
        let queued = self.dispatch(
            req.body,
            req.deadline_ms,
            accepted,
            cancel.clone(),
            Arc::clone(&trace),
            Box::new(move |outcome| {
                // The waiter may have timed out and gone; that is fine.
                let _ = tx.send(outcome);
            }),
        );
        let outcome = match queued {
            // Answered inline: the outcome is already in the channel.
            None => rx.recv().unwrap_or_else(|_| Err(shutting_down())),
            Some(deadline) => wait_for(&rx, accepted, deadline, &cancel),
        };
        self.finish_json(&trace, accepted, &req.id, outcome)
    }

    /// The nonblocking counterpart of [`Service::handle_frame`] for the
    /// event-driven server: cheap verbs are answered inline (`respond` is
    /// called before this returns), solver verbs go through the same
    /// bounded queue and worker pool with `respond` called from the
    /// worker when the job completes. `respond` is called exactly once.
    ///
    /// `cancel` is the caller's token: the event server hands each frame
    /// its connection's token, so a teardown cancels everything that
    /// connection still has queued or in flight. Deadlines are enforced
    /// by the worker when it picks the job up (and by the queue bound
    /// before that), not by a waiting transport thread — there is none.
    pub fn handle_frame_async(
        self: &Arc<Self>,
        frame: &[u8],
        cancel: CancelToken,
        respond: Box<dyn FnOnce(FrameResponse) + Send>,
    ) {
        let accepted = Instant::now();
        let trace = self.begin_trace();
        let req = match self.decode_json(&trace, frame) {
            Ok(req) => req,
            Err((id, e)) => return respond(self.finish_json(&trace, accepted, &id, Err(e))),
        };
        let svc = Arc::clone(self);
        let done_trace = Arc::clone(&trace);
        let id = req.id;
        self.dispatch(
            req.body,
            req.deadline_ms,
            accepted,
            cancel,
            trace,
            Box::new(move |outcome| respond(svc.finish_json(&done_trace, accepted, &id, outcome))),
        );
    }

    fn decode_json(
        &self,
        trace: &Arc<Trace>,
        frame: &[u8],
    ) -> Result<crate::proto::Request, (Json, ServiceError)> {
        with_current(trace, || {
            let _span = observed_span("decode", &self.ins.phase_decode);
            crate::proto::Request::decode(frame)
        })
    }

    /// Encodes, counts and times one finished JSON request. Shared by
    /// [`Service::handle_frame`] and [`Service::handle_frame_async`], so
    /// both transports feed the same instruments.
    fn finish_json(
        &self,
        trace: &Arc<Trace>,
        accepted: Instant,
        id: &Json,
        outcome: Result<Outcome, ServiceError>,
    ) -> FrameResponse {
        let shutdown = matches!(outcome, Ok(Outcome::Shutdown));
        let counted = self.count_outcome(&outcome);
        let line = match outcome {
            Ok(outcome) => encode_ok(id, self.json_result(outcome)),
            Err(e) => encode_err(id, &e),
        };
        self.observe_outcome(trace, accepted, counted);
        FrameResponse { line, shutdown }
    }

    /// The JSON encoder of an [`Outcome`]: the `result` value of an `ok`
    /// response line.
    fn json_result(&self, outcome: Outcome) -> Json {
        match outcome {
            Outcome::Text(json) => json,
            Outcome::Metrics => self.metrics_json(),
            Outcome::Shutdown => Json::Str("shutting down".into()),
            Outcome::Analyze(r) => analyze_result_json(&r),
            Outcome::Session(session, report) => session_result_json(session, &report),
            Outcome::Delta(d) => delta_result_json(&d),
        }
    }

    /// Bumps the outcome counter of a finished request; returns the
    /// outcome name for [`Service::observe_outcome`], or `None` for
    /// cancelled work.
    pub(crate) fn count_outcome(
        &self,
        outcome: &Result<Outcome, ServiceError>,
    ) -> Option<&'static str> {
        match outcome {
            Ok(_) => {
                self.ins.ok.inc();
                Some("ok")
            }
            Err(e) => {
                self.counter_for(e.kind).inc();
                // Cancelled work answered nobody in time: like oversized
                // frames it keeps its own counters and stays out of
                // `requests` and the latency histogram, where a flood of
                // dead requests would otherwise masquerade as a latency
                // regression.
                (e.kind != ErrorKind::Cancelled).then_some(e.kind.as_str())
            }
        }
    }

    /// The shared per-request bookkeeping after encoding: `requests`
    /// counter, latency histogram, slow-request log — skipped for
    /// cancelled work (`outcome` is `None`).
    pub(crate) fn observe_outcome(
        &self,
        trace: &Arc<Trace>,
        accepted: Instant,
        outcome: Option<&str>,
    ) {
        let Some(outcome) = outcome else { return };
        self.ins.requests.inc();
        let elapsed_us = accepted.elapsed().as_micros() as u64;
        self.ins.latency.observe(elapsed_us);
        if let Some(threshold) = self.config.slow_log_micros {
            if elapsed_us >= threshold {
                eprintln!(
                    "serve: slow-request trace={} outcome={} total_us={} {}",
                    trace.id(),
                    outcome,
                    elapsed_us,
                    trace.breakdown()
                );
            }
        }
    }

    /// The one dispatcher both protocols share. Cheap verbs and
    /// fingerprint-cache hits are answered inline — `done` runs before
    /// this returns; `analyze`/`custom`/`open`/`delta` are validated and
    /// queued, with `done` called from a worker. `done` is called exactly
    /// once either way. Returns the job's deadline when the request was
    /// queued, `None` when it was answered inline.
    pub(crate) fn dispatch(
        &self,
        req: WireRequest,
        budget_ms: Option<u64>,
        accepted: Instant,
        cancel: CancelToken,
        trace: Arc<Trace>,
        done: Reply,
    ) -> Option<Duration> {
        let deadline = self.effective_deadline(budget_ms);
        let work = match with_current(&trace, || self.admit(req)) {
            Ok(Step::Queue(work)) => work,
            Ok(Step::Answer(outcome)) => {
                done(Ok(outcome));
                return None;
            }
            Err(e) => {
                done(Err(e));
                return None;
            }
        };
        match self.enqueue_job(work, accepted, deadline, cancel, trace, done) {
            Ok(()) => Some(deadline),
            Err((e, done)) => {
                done(Err(e));
                None
            }
        }
    }

    /// Decides what a request needs: validates its fields against the
    /// configured defaults, answers cheap verbs and fingerprint-cache
    /// hits, and turns solver verbs into queued [`Work`].
    fn admit(&self, req: WireRequest) -> Result<Step, ServiceError> {
        let defaults = &self.config.engine;
        let protocol = |message: String| ServiceError::new(ErrorKind::Protocol, message);
        Ok(match req {
            WireRequest::Ping { .. } => Step::Answer(Outcome::Text(Json::Str("pong".into()))),
            WireRequest::Health { .. } => Step::Answer(Outcome::Text(self.health_json())),
            WireRequest::Stats { .. } => Step::Answer(Outcome::Text(self.stats_json())),
            WireRequest::Metrics { .. } => Step::Answer(Outcome::Metrics),
            WireRequest::Compact { .. } => Step::Answer(Outcome::Text(self.compact_store()?)),
            WireRequest::Replicate { batch, .. } => {
                Step::Answer(Outcome::Text(self.apply_replica_batch(&batch)?))
            }
            WireRequest::Shutdown { .. } => {
                self.shutdown();
                Step::Answer(Outcome::Shutdown)
            }
            WireRequest::Analyze(a) => {
                let problems = match a.problems {
                    None => defaults.problems,
                    Some(bits) => ProblemSet::from_bits(bits)
                        .ok_or_else(|| protocol(format!("bad problem-set bits {bits:#06b}")))?,
                };
                let distance_bound = a.distance_bound.unwrap_or(defaults.dep_max_distance);
                let probe = |fp| {
                    self.engine
                        .analyze_by_fingerprint(fp, problems, distance_bound)
                };
                if let Some(hit) = probe_hit(a.fingerprint, probe) {
                    return Ok(Step::Answer(hit));
                }
                Step::Queue(Work::Analyze {
                    program: program_source(a.source)?,
                    problems,
                    distance_bound,
                })
            }
            WireRequest::Custom(c) => {
                let spec = CustomSpec::from_bits(c.spec)
                    .ok_or_else(|| protocol(format!("bad custom-spec bits {:#08b}", c.spec)))?;
                // Custom problems come from untrusted callers experimenting
                // with the framework: cap the distance lattice the solve
                // will actually use, whoever chose the bound.
                let distance_bound = c.distance_bound.unwrap_or(defaults.dep_max_distance);
                if distance_bound > CustomSpec::MAX_DISTANCE_BOUND {
                    return Err(protocol(format!(
                        "distance bound {distance_bound} exceeds the {} cap",
                        CustomSpec::MAX_DISTANCE_BOUND
                    )));
                }
                let probe = |fp| {
                    self.engine
                        .analyze_custom_by_fingerprint(fp, spec, distance_bound)
                };
                if let Some(hit) = probe_hit(c.fingerprint, probe) {
                    return Ok(Step::Answer(hit));
                }
                Step::Queue(Work::Custom {
                    program: program_source(c.source)?,
                    spec,
                    distance_bound,
                })
            }
            WireRequest::Open { source, .. } => Step::Queue(Work::Open {
                program: utf8(source, "program source")?,
            }),
            // The carried fingerprint is the router's shard key; the node
            // itself resolves the session by id alone.
            WireRequest::Delta {
                session,
                stmt,
                text,
                ..
            } => Step::Queue(Work::Delta {
                session,
                edit: Edit {
                    // An out-of-u32-range id cannot name any statement;
                    // saturating keeps it a clean "no such statement"
                    // edit error instead of a silent wrap onto one.
                    stmt: StmtId(u32::try_from(stmt).unwrap_or(u32::MAX)),
                    text: utf8(text, "edit text")?,
                },
            }),
        })
    }

    /// Resolves a request's effective deadline: `min(client budget, the
    /// server's own cap)`. A client can only tighten the deadline, never
    /// extend it; requests carrying a budget are counted so operators can
    /// see propagation working end to end.
    fn effective_deadline(&self, client_ms: Option<u64>) -> Duration {
        match client_ms {
            Some(ms) => {
                self.ins.deadline_propagated.inc();
                self.config.request_timeout.min(Duration::from_millis(ms))
            }
            None => self.config.request_timeout,
        }
    }

    /// Builds (and counts) the response for a frame that exceeded
    /// [`ServiceConfig::max_frame_bytes`]. The transports discard such
    /// frames without materializing them, so this is the one response that
    /// never passes through [`Service::handle_frame`] — it gets its own
    /// counter and deliberately stays out of `requests` and the latency
    /// histogram (no work was timed, so a zero observation would only
    /// skew the distribution).
    pub fn oversized_frame_response(&self) -> String {
        self.ins.oversized_frames.inc();
        encode_err(
            &Json::Null,
            &ServiceError::new(
                ErrorKind::Protocol,
                format!("frame exceeds {} bytes", self.config.max_frame_bytes),
            ),
        )
    }

    /// A fresh per-request trace with a process-unique id.
    pub(crate) fn begin_trace(&self) -> Arc<Trace> {
        Trace::start(self.next_trace_id.fetch_add(1, Ordering::Relaxed))
    }

    /// The service's registered instruments, for sibling transports.
    pub(crate) fn ins(&self) -> &ServiceInstruments {
        &self.ins
    }

    fn counter_for(&self, kind: ErrorKind) -> &Counter {
        match kind {
            ErrorKind::Parse => &self.ins.parse_errors,
            ErrorKind::Analysis => &self.ins.analysis_errors,
            ErrorKind::Timeout => &self.ins.timeouts,
            ErrorKind::Overloaded => &self.ins.overloaded,
            ErrorKind::Protocol => &self.ins.protocol_errors,
            ErrorKind::SessionLost => &self.ins.session_lost,
            ErrorKind::Cancelled => &self.ins.cancelled,
        }
    }

    /// The `compact` verb: flushes pending appends, rewrites live records
    /// into fresh segments, and reports what was reclaimed.
    fn compact_store(&self) -> Result<Json, ServiceError> {
        let Some(tier) = &self.tier else {
            return Err(ServiceError::new(
                ErrorKind::Protocol,
                "no store configured (start with --store DIR)",
            ));
        };
        // Flush first so records still queued for the writer thread are
        // on disk and survive into the compacted generation.
        tier.flush();
        let report = tier.store_handle().compact().map_err(|e| {
            ServiceError::new(ErrorKind::Analysis, format!("compaction failed: {e}"))
        })?;
        Ok(Json::Obj(vec![
            ("live_records".into(), Json::Num(report.live_records as f64)),
            ("dropped".into(), Json::Num(report.dropped as f64)),
            ("bytes_before".into(), Json::Num(report.bytes_before as f64)),
            ("bytes_after".into(), Json::Num(report.bytes_after as f64)),
        ]))
    }

    /// Pushes a job onto the bounded queue. On `Ok` the `reply` closure is
    /// guaranteed to be invoked exactly once by a worker; on rejection
    /// (`Overloaded`: queue full or service stopping) the closure is
    /// handed back un-invoked along with the error, so the caller decides
    /// how to deliver the rejection.
    fn enqueue_job(
        &self,
        work: Work,
        accepted: Instant,
        deadline: Duration,
        cancel: CancelToken,
        trace: Arc<Trace>,
        reply: Reply,
    ) -> Result<(), (ServiceError, Reply)> {
        {
            let mut q = self.queue.lock().unwrap();
            if self.is_shutdown() {
                return Err((shutting_down(), reply));
            }
            if q.len() >= self.config.queue_capacity {
                return Err((
                    ServiceError::new(
                        ErrorKind::Overloaded,
                        format!("queue full ({} in flight)", q.len()),
                    ),
                    reply,
                ));
            }
            q.push_back(Job {
                work,
                accepted,
                enqueued: Instant::now(),
                deadline,
                cancel,
                trace,
                reply,
            });
            self.ins.queue_depth_hwm.set_max(q.len() as u64);
        }
        self.job_ready.notify_one();
        Ok(())
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            // Worker-crash seam, consulted between jobs so an injected
            // death never takes a claimed job with it: the job stays
            // queued for a surviving (or respawned) worker.
            if let Some(faults) = &self.config.faults {
                if faults.worker_exit() {
                    eprintln!("serve: worker-exit injected=true");
                    return;
                }
            }
            let job = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if let Some(job) = q.pop_front() {
                        break Some(job);
                    }
                    if self.is_shutdown() {
                        break None;
                    }
                    q = self.job_ready.wait(q).unwrap();
                }
            };
            let Some(job) = job else { return };
            // Queue wait ends now: record it as both a histogram
            // observation and a span on the request's trace (the span's
            // start is back-dated to the enqueue instant).
            let wait_us = job.enqueued.elapsed().as_micros() as u64;
            self.ins.queue_wait.observe(wait_us);
            let now_us = job.trace.elapsed_us();
            job.trace
                .record("queue_wait", now_us.saturating_sub(wait_us), wait_us);
            // Defense in depth under the engine's own panic isolation: a
            // panic anywhere in the job path still answers the waiter
            // (a dropped reply channel would read as a pool shutdown).
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                with_current(&job.trace, || self.run_job(&job))
            }))
            .unwrap_or_else(|payload| {
                Err(ServiceError::new(
                    ErrorKind::Analysis,
                    format!(
                        "internal: worker panicked: {}",
                        panic_message(payload.as_ref())
                    ),
                ))
            });
            (job.reply)(outcome);
        }
    }

    /// Replaces dead workers. Workers only exit on their own for two
    /// reasons — shutdown, or a crash (today reachable only through the
    /// `worker_exit` fault seam; the job path is panic-isolated) — so the
    /// supervisor polls cheaply and respawns until shutdown, keeping the
    /// pool at full strength no matter how many workers chaos kills.
    fn supervisor_loop(self: Arc<Self>) {
        while !self.is_shutdown() {
            std::thread::sleep(Duration::from_millis(20));
            let mut workers = self.workers.lock().unwrap();
            let mut i = 0;
            while i < workers.len() {
                if workers[i].is_finished() && !self.is_shutdown() {
                    let _ = workers.swap_remove(i).join();
                    self.ins.worker_restarts.inc();
                    eprintln!(
                        "serve: worker-restart total={} pool={}",
                        self.ins.worker_restarts.get(),
                        workers.len() + 1
                    );
                    let svc = Arc::clone(&self);
                    workers.push(std::thread::spawn(move || svc.worker_loop()));
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Counts one abandoned job (reason + wasted-work histogram) and
    /// builds the `cancelled` response. `passes` is the solver work the
    /// job burned before the stop landed — 0 for jobs shed at dequeue.
    fn shed_job(&self, job: &Job, passes: u64, when: &str) -> ServiceError {
        // A marker on the trace timeline pins down *where* the request
        // died in the slow-request log's breakdown.
        if let Some(trace) = arrayflow_obs::trace::current() {
            trace.mark("shed");
        }
        let reason = if job.cancel.is_cancelled() {
            self.ins.cancelled_disconnect.inc();
            "request abandoned"
        } else {
            self.ins.cancelled_expired.inc();
            "deadline budget exhausted"
        };
        self.ins.wasted_passes.observe(passes);
        ServiceError::new(
            ErrorKind::Cancelled,
            format!(
                "{reason} {when} (budget {} ms, {passes} solver passes wasted)",
                job.deadline.as_millis()
            ),
        )
    }

    fn run_job(&self, job: &Job) -> Result<Outcome, ServiceError> {
        // Dequeue-time shedding: a job whose client is gone or whose
        // budget drained while it sat queued is dropped for the cost of
        // two loads — the metastable-failure amplifier (a queue full of
        // dead work keeping workers busy) never gets started.
        if job.cancel.is_cancelled() || job.accepted.elapsed() >= job.deadline {
            return Err(self.shed_job(job, 0, "while queued"));
        }
        // In-flight cancellation: the solver polls this between iteration
        // passes, so once the connection drops or the budget runs out the
        // job costs at most one further pass.
        let stop_check = {
            let cancel = job.cancel.clone();
            let accepted = job.accepted;
            let deadline = job.deadline;
            move || cancel.is_cancelled() || accepted.elapsed() >= deadline
        };
        let should_stop: Option<arrayflow_engine::StopCheck<'_>> = Some(&stop_check);
        let parse = |source: &str| {
            let _span = observed_span("parse", &self.ins.phase_parse);
            parse_program_bytes(source.as_bytes())
                .map_err(|e| ServiceError::new(ErrorKind::Parse, e.to_string()))
        };
        match &job.work {
            Work::Analyze {
                program,
                problems,
                distance_bound,
            } => {
                let program = parse(program)?;
                let result = self.engine.analyze_with_ctrl(
                    0,
                    &program,
                    *problems,
                    *distance_bound,
                    should_stop,
                );
                if let Some(e) = &result.error {
                    if let Some(passes) = e.wasted_passes() {
                        return Err(self.shed_job(job, passes, "mid-analysis"));
                    }
                    return Err(ServiceError::new(ErrorKind::Analysis, e.to_string()));
                }
                Ok(Outcome::Analyze(result))
            }
            Work::Custom {
                program,
                spec,
                distance_bound,
            } => {
                let program = parse(program)?;
                let result = self.engine.analyze_custom_ctrl(
                    0,
                    &program,
                    *spec,
                    *distance_bound,
                    should_stop,
                );
                if let Some(e) = &result.error {
                    if let Some(passes) = e.wasted_passes() {
                        return Err(self.shed_job(job, passes, "mid-analysis"));
                    }
                    return Err(ServiceError::new(ErrorKind::Analysis, e.to_string()));
                }
                Ok(Outcome::Analyze(result))
            }
            Work::Open { program } => {
                let program = parse(program)?;
                let (session, report) = self
                    .engine
                    .open_session_ctrl(&program, should_stop)
                    .map_err(|e| match e.wasted_passes() {
                        Some(passes) => self.shed_job(job, passes, "mid-analysis"),
                        None => ServiceError::new(ErrorKind::Analysis, e.to_string()),
                    })?;
                Ok(Outcome::Session(session, report))
            }
            Work::Delta { session, edit } => {
                // Rejected edits are analysis-kind errors (the frame was
                // well-formed, the request could not be satisfied); a
                // session the node does not hold — expired here, or never
                // replicated to a failed-over replica — is the typed
                // `session_lost`, telling the client to re-open and
                // replay rather than treat it as an analysis failure.
                let delta = self
                    .engine
                    .analyze_delta_ctrl(*session, edit, should_stop)
                    .map_err(|e| {
                        if let Some(passes) = e.wasted_passes() {
                            return self.shed_job(job, passes, "mid-analysis");
                        }
                        let kind = match &e {
                            arrayflow_engine::AnalysisError::SessionLost(_) => {
                                ErrorKind::SessionLost
                            }
                            _ => ErrorKind::Analysis,
                        };
                        ServiceError::new(kind, e.to_string())
                    })?;
                Ok(Outcome::Delta(delta))
            }
        }
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let buckets = |h: &Histogram| {
            let snap = h.snapshot();
            let mut out = [0u64; LATENCY_BUCKETS_US.len() + 1];
            for (slot, b) in out.iter_mut().zip(&snap.buckets) {
                *slot = *b;
            }
            out
        };
        ServiceStats {
            connections: self.ins.connections.get(),
            requests: self.ins.requests.get(),
            worker_restarts: self.ins.worker_restarts.get(),
            ok: self.ins.ok.get(),
            parse_errors: self.ins.parse_errors.get(),
            analysis_errors: self.ins.analysis_errors.get(),
            timeouts: self.ins.timeouts.get(),
            overloaded: self.ins.overloaded.get(),
            protocol_errors: self.ins.protocol_errors.get(),
            session_lost: self.ins.session_lost.get(),
            cancelled: self.ins.cancelled.get(),
            cancelled_disconnect: self.ins.cancelled_disconnect.get(),
            cancelled_expired: self.ins.cancelled_expired.get(),
            deadline_propagated: self.ins.deadline_propagated.get(),
            idle_disconnects: self.ins.idle_disconnects.get(),
            oversized_frames: self.ins.oversized_frames.get(),
            queue_depth_hwm: self.ins.queue_depth_hwm.get() as usize,
            latency: buckets(&self.ins.latency),
            queue_wait: buckets(&self.ins.queue_wait),
        }
    }

    /// Snapshot of the shared engine's statistics.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// The `stats` verb payload: engine and cache one-liners (their
    /// `Display` impls) plus the structured service counters.
    fn stats_json(&self) -> Json {
        let e = self.engine_stats();
        let s = self.stats();
        let errors = Json::Obj(vec![
            ("parse".into(), Json::Num(s.parse_errors as f64)),
            ("analysis".into(), Json::Num(s.analysis_errors as f64)),
            ("timeout".into(), Json::Num(s.timeouts as f64)),
            ("overloaded".into(), Json::Num(s.overloaded as f64)),
            ("protocol".into(), Json::Num(s.protocol_errors as f64)),
            ("session_lost".into(), Json::Num(s.session_lost as f64)),
            ("cancelled".into(), Json::Num(s.cancelled as f64)),
        ]);
        let hist_obj = |buckets: &[u64; LATENCY_BUCKETS_US.len() + 1]| {
            let mut members = Vec::new();
            for (i, &edge) in LATENCY_BUCKETS_US.iter().enumerate() {
                members.push((format!("le_{edge}us"), Json::Num(buckets[i] as f64)));
            }
            members.push((
                "gt_1000000us".into(),
                Json::Num(buckets[LATENCY_BUCKETS_US.len()] as f64),
            ));
            Json::Obj(members)
        };
        let latency = hist_obj(&s.latency);
        let queue_wait = hist_obj(&s.queue_wait);
        let mut members = vec![
            ("engine".into(), Json::Str(e.to_string())),
            ("cache".into(), Json::Str(e.cache.to_string())),
        ];
        if let Some(tier) = &self.tier {
            let st = tier.store_stats();
            let tt = tier.stats();
            members.push((
                "store".into(),
                Json::Obj(vec![
                    ("records".into(), Json::Num(st.records as f64)),
                    ("segments".into(), Json::Num(st.segments as f64)),
                    ("bytes".into(), Json::Num(st.bytes as f64)),
                    ("disk_hits".into(), Json::Num(st.disk_hits as f64)),
                    ("disk_misses".into(), Json::Num(st.disk_misses as f64)),
                    ("read_errors".into(), Json::Num(st.read_errors as f64)),
                    ("appends".into(), Json::Num(st.appends as f64)),
                    (
                        "recovery_skipped".into(),
                        Json::Num(st.recovery_skipped as f64),
                    ),
                    ("compactions".into(), Json::Num(st.compactions as f64)),
                    ("queued_appends".into(), Json::Num(tt.queued_appends as f64)),
                    (
                        "dropped_appends".into(),
                        Json::Num(tt.dropped_appends as f64),
                    ),
                    (
                        "written_appends".into(),
                        Json::Num(tt.written_appends as f64),
                    ),
                    ("failed_appends".into(), Json::Num(tt.failed_appends as f64)),
                    (
                        "breaker_state".into(),
                        Json::Str(tier.breaker_state().as_str().into()),
                    ),
                    ("breaker_trips".into(), Json::Num(tt.breaker_trips as f64)),
                    (
                        "breaker_dropped_appends".into(),
                        Json::Num(tt.breaker_dropped_appends as f64),
                    ),
                    ("warm_loaded".into(), Json::Num(self.warm_loaded as f64)),
                ]),
            ));
        }
        let ss = self.engine.session_stats();
        members.push((
            "sessions".into(),
            Json::Obj(vec![
                ("open".into(), Json::Num(ss.open as f64)),
                ("opened_total".into(), Json::Num(ss.opened_total as f64)),
                (
                    "evicted_capacity".into(),
                    Json::Num(ss.evicted_capacity as f64),
                ),
                ("expired_ttl".into(), Json::Num(ss.expired_ttl as f64)),
                ("deltas_total".into(), Json::Num(ss.deltas_total as f64)),
                (
                    "delta_fallbacks".into(),
                    Json::Num(ss.delta_fallbacks as f64),
                ),
            ]),
        ));
        members.extend([(
            "service".into(),
            Json::Obj(vec![
                ("connections".into(), Json::Num(s.connections as f64)),
                ("requests".into(), Json::Num(s.requests as f64)),
                ("ok".into(), Json::Num(s.ok as f64)),
                ("errors".into(), errors),
                (
                    "oversized_frames".into(),
                    Json::Num(s.oversized_frames as f64),
                ),
                (
                    "cancelled_jobs".into(),
                    Json::Obj(vec![
                        (
                            "disconnect".into(),
                            Json::Num(s.cancelled_disconnect as f64),
                        ),
                        ("expired".into(), Json::Num(s.cancelled_expired as f64)),
                    ]),
                ),
                (
                    "deadline_propagated".into(),
                    Json::Num(s.deadline_propagated as f64),
                ),
                (
                    "idle_disconnects".into(),
                    Json::Num(s.idle_disconnects as f64),
                ),
                (
                    "queue_depth_hwm".into(),
                    Json::Num(s.queue_depth_hwm as f64),
                ),
                (
                    "worker_restarts".into(),
                    Json::Num(s.worker_restarts as f64),
                ),
                ("latency".into(), latency),
                ("queue_wait".into(), queue_wait),
            ]),
        )]);
        Json::Obj(members)
    }

    /// The `metrics` verb payload: every registered metric as structured
    /// JSON plus the full Prometheus text exposition, so scrapers can use
    /// whichever form they prefer.
    fn metrics_json(&self) -> Json {
        let snapshot = self.registry.snapshot();
        let metrics = snapshot
            .metrics
            .iter()
            .map(|m| {
                let labels = m
                    .labels
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect();
                let mut members = vec![
                    ("name".into(), Json::Str(m.name.clone())),
                    ("type".into(), Json::Str(m.value.type_name().into())),
                    ("labels".into(), Json::Obj(labels)),
                ];
                match &m.value {
                    MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                        members.push(("value".into(), Json::Num(*v as f64)));
                    }
                    MetricValue::Histogram(h) => {
                        members.push(("histogram".into(), histogram_json(h)));
                    }
                }
                Json::Obj(members)
            })
            .collect();
        Json::Obj(vec![
            ("metrics".into(), Json::Arr(metrics)),
            ("prometheus".into(), Json::Str(self.render_exposition())),
        ])
    }
}

/// Renders a histogram snapshot as `{edges, buckets, count, sum}` (bucket
/// counts are per-bucket, not cumulative; `buckets` has one final
/// unbounded slot beyond `edges`).
fn histogram_json(h: &HistogramSnapshot) -> Json {
    Json::Obj(vec![
        (
            "edges".into(),
            Json::Arr(h.edges.iter().map(|&e| Json::Num(e as f64)).collect()),
        ),
        (
            "buckets".into(),
            Json::Arr(h.buckets.iter().map(|&b| Json::Num(b as f64)).collect()),
        ),
        ("count".into(), Json::Num(h.count as f64)),
        ("sum".into(), Json::Num(h.sum as f64)),
    ])
}

/// The blocking transports' waiter for a queued job: its outcome, or a
/// `timeout` once the deadline has passed. The deadline is measured from
/// frame acceptance, not from enqueue, so decode time cannot silently
/// extend the budget.
fn wait_for(
    rx: &mpsc::Receiver<Result<Outcome, ServiceError>>,
    accepted: Instant,
    deadline: Duration,
    cancel: &CancelToken,
) -> Result<Outcome, ServiceError> {
    // A budget already gone is a plain deadline miss: answer `timeout`
    // without racing the worker's `cancelled` reply for the channel.
    let remaining = deadline.saturating_sub(accepted.elapsed());
    let waited = if remaining.is_zero() {
        Err(mpsc::RecvTimeoutError::Timeout)
    } else {
        rx.recv_timeout(remaining)
    };
    match waited {
        Ok(outcome) => outcome,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // Nobody is waiting for this answer anymore: flag the job so a
            // worker sheds it at dequeue (or mid-solve) instead of
            // finishing work whose reply lands in a dead channel.
            cancel.cancel();
            Err(ServiceError::new(
                ErrorKind::Timeout,
                format!("deadline of {} ms exceeded", deadline.as_millis()),
            ))
        }
        // Workers always reply before exiting (the queue is drained on
        // shutdown), so disconnection means the pool is gone entirely.
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(shutting_down()),
    }
}

/// The `overloaded` answer of a service that stopped accepting work.
fn shutting_down() -> ServiceError {
    ServiceError::new(ErrorKind::Overloaded, "service is shutting down")
}

/// Answers a fingerprint-first request from the cache tiers before any
/// parse work, when the client sent a fingerprint and `probe` hits.
fn probe_hit(
    fingerprint: Option<[u8; 16]>,
    probe: impl FnOnce(Fingerprint) -> Option<Arc<AnalysisReport>>,
) -> Option<Outcome> {
    let fp = Fingerprint(u128::from_le_bytes(fingerprint?));
    let report = probe(fp)?;
    Some(Outcome::Analyze(BatchResult {
        index: 0,
        loops: vec![LoopReport {
            fingerprint: fp,
            report,
        }],
        error: None,
        stats: QueryStats {
            cache_hits: 1,
            ..QueryStats::default()
        },
    }))
}

/// The source a cache miss must analyze: a fingerprint-only request that
/// missed cannot be answered.
fn program_source(source: Option<Vec<u8>>) -> Result<String, ServiceError> {
    let source = source.ok_or_else(|| {
        ServiceError::new(
            ErrorKind::Analysis,
            "unknown fingerprint (supply program source to analyze)",
        )
    })?;
    utf8(source, "program source")
}

/// DSL text as a string; invalid UTF-8 is a `parse` error naming `what`.
fn utf8(bytes: Vec<u8>, what: &str) -> Result<String, ServiceError> {
    String::from_utf8(bytes)
        .map_err(|_| ServiceError::new(ErrorKind::Parse, format!("{what} is not valid UTF-8")))
}

impl Drop for Service {
    fn drop(&mut self) {
        // Defensive: a service dropped without an explicit shutdown still
        // stops its workers (they hold Arc<Service>, so by the time Drop
        // runs they have already exited — this is for the join handles).
        self.shutdown.store(true, Ordering::SeqCst);
        self.job_ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start_small() -> Arc<Service> {
        Service::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .expect("no store configured, start cannot fail")
    }

    #[test]
    fn ping_and_analyze_roundtrip() {
        let svc = start_small();
        let r = svc.handle_frame(br#"{"id": 1, "verb": "ping"}"#);
        assert_eq!(r.line, r#"{"id":1,"ok":true,"result":"pong"}"#);
        let r = svc.handle_frame(
            br#"{"id": 2, "verb": "analyze", "program": "do i = 1, 9 A[i+2] := A[i]; end"}"#,
        );
        assert!(r.line.contains(r#""ok":true"#), "{}", r.line);
        assert!(r.line.contains("reuse"), "{}", r.line);
        let s = svc.stats();
        assert_eq!((s.requests, s.ok), (2, 2));
        svc.shutdown();
        svc.join_workers();
    }

    #[test]
    fn error_taxonomy_is_counted() {
        let svc = start_small();
        // protocol: malformed JSON
        let r = svc.handle_frame(b"} not json");
        assert!(r.line.contains(r#""kind":"protocol""#), "{}", r.line);
        // protocol: unknown verb
        let r = svc.handle_frame(br#"{"verb": "frobnicate"}"#);
        assert!(r.line.contains("unknown verb"), "{}", r.line);
        // parse: bad DSL
        let r = svc.handle_frame(br#"{"verb": "analyze", "program": "do do do"}"#);
        assert!(r.line.contains(r#""kind":"parse""#), "{}", r.line);
        let s = svc.stats();
        assert_eq!(s.protocol_errors, 2);
        assert_eq!(s.parse_errors, 1);
        assert_eq!(s.errors(), 3);
        assert_eq!(s.requests, 3);
        svc.shutdown();
        svc.join_workers();
    }

    #[test]
    fn zero_deadline_times_out() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            request_timeout: Duration::ZERO,
            ..ServiceConfig::default()
        })
        .unwrap();
        let r = svc.handle_frame(br#"{"id": 9, "verb": "analyze", "program": "x := 1;"}"#);
        assert!(r.line.contains(r#""kind":"timeout""#), "{}", r.line);
        assert_eq!(svc.stats().timeouts, 1);
        svc.shutdown();
        svc.join_workers();
    }

    #[test]
    fn shutdown_verb_reports_and_flags() {
        let svc = start_small();
        let r = svc.handle_frame(br#"{"id": 1, "verb": "shutdown"}"#);
        assert!(r.shutdown);
        assert!(r.line.contains("shutting down"), "{}", r.line);
        assert!(svc.is_shutdown());
        // Post-shutdown analyze is rejected as overloaded.
        let r = svc.handle_frame(br#"{"id": 2, "verb": "analyze", "program": "x := 1;"}"#);
        assert!(r.line.contains(r#""kind":"overloaded""#), "{}", r.line);
        svc.join_workers();
    }

    #[test]
    fn compact_without_store_is_a_protocol_error() {
        let svc = start_small();
        let r = svc.handle_frame(br#"{"id": 1, "verb": "compact"}"#);
        assert!(r.line.contains(r#""kind":"protocol""#), "{}", r.line);
        assert!(r.line.contains("no store configured"), "{}", r.line);
        svc.shutdown();
        svc.join_workers();
    }

    #[test]
    fn store_backed_service_persists_and_warm_starts() {
        let dir = std::env::temp_dir().join(format!("afsvc-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || ServiceConfig {
            workers: 2,
            store: Some(arrayflow_store::StoreConfig::at(&dir)),
            ..ServiceConfig::default()
        };
        let frame =
            br#"{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i+2] := A[i]; end"}"#;

        let svc = Service::start(config()).unwrap();
        assert_eq!(svc.warm_loaded(), 0);
        let first = svc.handle_frame(frame);
        assert!(first.line.contains(r#""ok":true"#), "{}", first.line);
        // stats carries a structured store section.
        let stats = svc.handle_frame(br#"{"id": 2, "verb": "stats"}"#);
        assert!(stats.line.contains(r#""store":{"#), "{}", stats.line);
        assert!(stats.line.contains(r#""warm_loaded":0"#), "{}", stats.line);
        // compact succeeds (flushes the writer first).
        let c = svc.handle_frame(br#"{"id": 3, "verb": "compact"}"#);
        assert!(c.line.contains(r#""live_records":1"#), "{}", c.line);
        svc.shutdown();
        svc.join_workers();
        drop(svc);

        // A fresh service over the same directory warm-starts and answers
        // the same program with byte-identical reports without re-solving
        // (the per-request stats legitimately differ: hit vs miss).
        let svc = Service::start(config()).unwrap();
        assert_eq!(svc.warm_loaded(), 1);
        let again = svc.handle_frame(frame);
        let loops = |line: &str| {
            let start = line.find(r#""loops":"#).unwrap();
            let end = line.find(r#","error":"#).unwrap();
            line[start..end].to_string()
        };
        assert_eq!(loops(&first.line), loops(&again.line));
        assert_eq!(svc.engine_stats().cache.misses, 0);
        svc.shutdown();
        svc.join_workers();
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fault surface that kills exactly one worker, at its first seam
    /// check.
    #[derive(Debug, Default)]
    struct ExitOnce(AtomicBool);

    impl FaultSurface for ExitOnce {
        fn worker_exit(&self) -> bool {
            !self.0.swap(true, Ordering::SeqCst)
        }
    }

    #[test]
    fn supervisor_replaces_dead_workers() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            faults: Some(Arc::new(ExitOnce::default())),
            ..ServiceConfig::default()
        })
        .unwrap();
        // The lone worker dies at its first seam check. Wait for the
        // supervisor to notice and respawn it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while svc.stats().worker_restarts == 0 {
            assert!(Instant::now() < deadline, "supervisor never respawned");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The replacement worker serves requests normally.
        let r = svc.handle_frame(
            br#"{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i+2] := A[i]; end"}"#,
        );
        assert!(r.line.contains(r#""ok":true"#), "{}", r.line);
        assert_eq!(svc.stats().worker_restarts, 1);
        // stats carries the restart count.
        let s = svc.handle_frame(br#"{"id": 2, "verb": "stats"}"#);
        assert!(s.line.contains(r#""worker_restarts":1"#), "{}", s.line);
        svc.shutdown();
        svc.join_workers();
    }

    #[test]
    fn injected_solver_panic_is_a_framed_analysis_error() {
        use arrayflow_resilience::FaultPlan;
        let svc = Service::start(ServiceConfig {
            workers: 2,
            faults: Some(Arc::new(FaultPlan::parse("solver_panic=100%").unwrap())),
            ..ServiceConfig::default()
        })
        .unwrap();
        let r = svc.handle_frame(
            br#"{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i+2] := A[i]; end"}"#,
        );
        assert!(r.line.contains(r#""kind":"analysis""#), "{}", r.line);
        assert!(r.line.contains("injected solver fault"), "{}", r.line);
        // The pool survives: another request is answered (with the same
        // injected failure), not dropped.
        let r = svc.handle_frame(
            br#"{"id": 2, "verb": "analyze", "program": "do i = 1, 9 A[i+1] := A[i]; end"}"#,
        );
        assert!(r.line.contains(r#""kind":"analysis""#), "{}", r.line);
        assert_eq!(svc.stats().analysis_errors, 2);
        svc.shutdown();
        svc.join_workers();
    }

    /// The acceptance bar for the `custom` verb: a wire spec equivalent to
    /// a canned instance must produce a byte-identical report to the
    /// built-in verb (the engine folds such specs onto the canned cache
    /// key, so this holds by construction — but the wire layer could still
    /// break it).
    #[test]
    fn custom_verb_matches_builtin_reports_byte_for_byte() {
        let svc = start_small();
        let program = "do i = 1, 9 A[i+2] := A[i]; end";
        let loops = |line: &str| {
            let start = line.find(r#""loops":"#).unwrap();
            let end = line.find(r#","error":"#).unwrap();
            line[start..end].to_string()
        };
        for (spec, problem) in [
            (r#"{"gen": ["defs"], "kill": ["defs"]}"#, "reaching"),
            (
                r#"{"gen": ["defs", "uses"], "kill": ["defs"]}"#,
                "available",
            ),
            (
                r#"{"gen": ["defs"], "kill": ["uses"], "direction": "backward"}"#,
                "busy",
            ),
            (
                r#"{"gen": ["defs", "uses"], "kill": ["defs"], "mode": "may"}"#,
                "reaching_refs",
            ),
        ] {
            let canned = svc.handle_frame(
                format!(
                    r#"{{"verb": "analyze", "program": "{program}", "problems": ["{problem}"]}}"#
                )
                .as_bytes(),
            );
            let custom = svc.handle_frame(
                format!(r#"{{"verb": "custom", "program": "{program}", "spec": {spec}}}"#)
                    .as_bytes(),
            );
            assert!(canned.line.contains(r#""ok":true"#), "{}", canned.line);
            assert!(custom.line.contains(r#""ok":true"#), "{}", custom.line);
            assert_eq!(loops(&canned.line), loops(&custom.line), "spec {spec}");
        }
        svc.shutdown();
        svc.join_workers();
    }

    #[test]
    fn custom_verb_solves_non_canned_problems() {
        let svc = start_small();
        // Live array elements: G = uses, K = defs, backward, may — the
        // canonical problem the canned quartet does not cover.
        let r = svc.handle_frame(
            br#"{"id": 1, "verb": "custom", "program": "do i = 1, 9 A[i+2] := A[i]; end",
                 "spec": {"gen": ["uses"], "kill": ["defs"],
                          "direction": "backward", "mode": "may"}}"#,
        );
        assert!(r.line.contains(r#""ok":true"#), "{}", r.line);
        assert!(r.line.contains("custom spec=gu-kd-bwd-may"), "{}", r.line);
        // Same program, same spec again: a cache hit, identical bytes.
        let again = svc.handle_frame(
            br#"{"id": 2, "verb": "custom", "program": "do i = 1, 9 A[i+2] := A[i]; end",
                 "spec": {"gen": ["uses"], "kill": ["defs"],
                          "direction": "backward", "mode": "may"}}"#,
        );
        let loops = |line: &str| {
            let start = line.find(r#""loops":"#).unwrap();
            let end = line.find(r#","error":"#).unwrap();
            line[start..end].to_string()
        };
        assert_eq!(loops(&r.line), loops(&again.line));
        assert_eq!(svc.engine_stats().cache.hits, 1);
        // A different spec over the same program is a distinct cache key.
        let other = svc.handle_frame(
            br#"{"id": 3, "verb": "custom", "program": "do i = 1, 9 A[i+2] := A[i]; end",
                 "spec": {"gen": ["uses"], "kill": ["defs"], "direction": "backward"}}"#,
        );
        assert!(
            other.line.contains("custom spec=gu-kd-bwd-must"),
            "{}",
            other.line
        );
        assert_ne!(loops(&r.line), loops(&other.line));
        assert_eq!(svc.engine_stats().cache.misses, 2);
        svc.shutdown();
        svc.join_workers();
    }

    #[test]
    fn per_request_problem_selection_hits_distinct_cache_entries() {
        let svc = start_small();
        let frame = |id: u32, problems: &str| {
            format!(
                r#"{{"id": {id}, "verb": "analyze", "program": "do i = 1, 9 A[i+2] := A[i]; end", "problems": {problems}}}"#
            )
        };
        let r1 = svc.handle_frame(frame(1, r#"["available"]"#).as_bytes());
        let r2 = svc.handle_frame(frame(2, r#"["busy"]"#).as_bytes());
        assert!(r1.line.contains("reuse"), "{}", r1.line);
        assert!(!r2.line.contains("reuse"), "{}", r2.line);
        // Distinct problem sets are distinct cache keys: two misses.
        assert_eq!(svc.engine_stats().cache.misses, 2);
        svc.shutdown();
        svc.join_workers();
    }
}
