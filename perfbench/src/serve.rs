//! `serve_hot` and `route_hop`: two closed-loop client connections send
//! `analyze` requests for a pre-warmed set of 16-statement loops, in fixed
//! thirds (binary fingerprint-first, binary source, JSON source), so every
//! request is a cache hit and the solver does no work.
//!
//! * `serve_hot` talks to one in-process `EventServer` whose `Service`
//!   has 2 workers: decode, parse/normalize/fingerprint, cache get,
//!   encode, queue handoff and socket.
//! * `route_hop` sends the same stream through an in-process
//!   `RouterServer` in front of two in-process nodes with 1 worker each,
//!   the only place `service::router` and the cluster ring do work.
//!
//! The traced pass times each round trip from the client, then replays
//! the same request in-process through each layer's public function. The
//! rest of the round trip is assigned to `service.socket_us`, and for
//! `route_hop` the routed round trip minus the direct one to the owning
//! node is `router.forward_us`.

use std::collections::{BTreeMap, HashSet};
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use arrayflow_analyses::loops_innermost_first;
use arrayflow_cluster::Topology;
use arrayflow_engine::{BatchResult, Engine, EngineConfig, LoopReport, ProblemSet, QueryStats};
use arrayflow_ir::{fingerprint_loop, normalize, parse_program, Fingerprint};
use arrayflow_obs::MetricValue;
use arrayflow_service::proto::{analyze_result_json, encode_ok, Request as JsonRequest};
use arrayflow_service::{
    Client, ClientConfig, EventServer, Json, ProtoMode, Router, RouterConfig, RouterServer,
    Service, ServiceConfig,
};
use arrayflow_store::codec::encode_report;
use arrayflow_wire::proto::{
    AnalyzeOk, AnalyzeRequest, LoopEntry, Request as WireRequest, Response,
};
use arrayflow_wire::{encode_frame, FrameDecoder};
use arrayflow_workloads::{random_loop, Prng};

use crate::cold::{fingerprint_of, shape};
use crate::measure::{peak_rss_mb, Block, Tracer};
use crate::report::{Counts, Pass};

/// Distinct programs in the warm set.
const WARM_SET: usize = 256;
/// Statements per program.
const STMTS: usize = 16;
/// Closed-loop client connections, one thread each.
const CLIENTS: usize = 2;
/// Ops per block of the timed phase, a multiple of `CLIENTS`.
const BLOCK_OPS: usize = 1500;
/// Untimed warm-up requests per client before timing starts.
const WARMUP_PER_CLIENT: usize = 300;
/// Dependence distance bound (the service default).
const DEP_MAX: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topo {
    /// Clients talk to one node.
    Direct,
    /// Clients talk to a router in front of two nodes.
    Routed,
}

/// The three request kinds, in stream order: op `i` is `KINDS[i % 3]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fingerprint,
    BinarySource,
    JsonSource,
}

const KINDS: [Kind; 3] = [Kind::Fingerprint, Kind::BinarySource, Kind::JsonSource];

/// One warm-set program with its expected answers, all computed by a
/// direct in-process engine before timing.
struct Prog {
    src: String,
    fingerprint: [u8; 16],
    /// The loops of a binary `analyze` answer.
    entries: Vec<LoopEntry>,
    /// A JSON answer after its `{"id":N` prefix.
    json_tail: String,
}

pub struct Inputs {
    topo: Topo,
    progs: Vec<Prog>,
    /// Program index of every timed op.
    ops: Vec<u32>,
    /// Program index of every warm-up op.
    warmup: Vec<u32>,
}

/// The batch result a cache hit answers with.
fn hit_batch(loops: Vec<LoopReport>) -> BatchResult {
    BatchResult {
        index: 0,
        loops,
        error: None,
        stats: QueryStats {
            cache_hits: 1,
            ..QueryStats::default()
        },
    }
}

impl Inputs {
    pub fn new(seed: u64, ops: usize, topo: Topo) -> Inputs {
        let mut rng = Prng::seed_from_u64(seed);
        let mut seen = HashSet::new();
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let mut progs = Vec::with_capacity(WARM_SET);
        while progs.len() < WARM_SET {
            let program = random_loop(&shape(STMTS), rng.next_u64());
            let fp = fingerprint_of(&program);
            if !seen.insert(fp) {
                continue;
            }
            let src = arrayflow_ir::pretty::print_program(&program);
            let r = engine.analyze_one(0, &parse_program(&src).expect("generated source parses"));
            assert!(
                r.error.is_none(),
                "reference analysis failed: {:?}",
                r.error
            );
            let entries = r
                .loops
                .iter()
                .map(|l| LoopEntry {
                    fingerprint: l.fingerprint.0.to_le_bytes(),
                    report: encode_report(&l.report),
                })
                .collect();
            let line = encode_ok(&Json::Num(0.0), analyze_result_json(&hit_batch(r.loops)));
            let json_tail = line
                .strip_prefix("{\"id\":0")
                .expect("responses start with their id")
                .to_string();
            progs.push(Prog {
                src,
                fingerprint: fp.0.to_le_bytes(),
                entries,
                json_tail,
            });
        }
        let draw =
            |rng: &mut Prng, n: usize| (0..n).map(|_| rng.below_usize(WARM_SET) as u32).collect();
        let ops = draw(&mut rng, ops.div_ceil(BLOCK_OPS) * BLOCK_OPS);
        let mut warm_rng = Prng::seed_from_u64(seed ^ 0x5741_524d_5550_0003);
        let warmup = draw(&mut warm_rng, WARMUP_PER_CLIENT * CLIENTS);
        Inputs {
            topo,
            progs,
            ops,
            warmup,
        }
    }
}

/// One request of the stream, ready to send.
enum Req {
    Binary(WireRequest),
    Json(String),
}

fn request(kind: Kind, id: u64, prog: &Prog) -> Req {
    let analyze = |fingerprint, source: Option<&str>| {
        WireRequest::Analyze(AnalyzeRequest {
            id,
            fingerprint,
            problems: None,
            distance_bound: None,
            source: source.map(|s| s.as_bytes().to_vec()),
        })
    };
    match kind {
        Kind::Fingerprint => Req::Binary(analyze(Some(prog.fingerprint), None)),
        Kind::BinarySource => Req::Binary(analyze(None, Some(&prog.src))),
        Kind::JsonSource => Req::Json(
            Json::Obj(vec![
                ("id".into(), Json::Num(id as f64)),
                ("verb".into(), Json::Str("analyze".into())),
                ("program".into(), Json::Str(prog.src.clone())),
            ])
            .to_string(),
        ),
    }
}

fn expected_binary(id: u64, prog: &Prog) -> Response {
    Response::Analyze(AnalyzeOk {
        id,
        loops: prog.entries.clone(),
        cache_hits: 1,
        cache_misses: 0,
        solver_passes: 0,
        node_visits: 0,
    })
}

/// What one op saw on the client's socket.
struct Answer {
    /// The answer equals the reference.
    ok: bool,
    /// Request bytes written plus reply bytes read.
    bytes: u64,
}

/// Sends one request and checks the answer against the reference.
fn send(client: &mut Client, req: &Req, id: u64, prog: &Prog) -> Answer {
    match req {
        Req::Binary(r) => {
            let sent = encode_frame(r.tag(), &r.encode_payload()).len() as u64;
            match client.request_binary(r) {
                Ok(resp) => {
                    // The wire codec is canonical, so the re-encoded reply
                    // is as long as the frame read.
                    let read = encode_frame(resp.tag(), &resp.encode_payload()).len() as u64;
                    let ok = match &resp {
                        Response::Analyze(ok) => {
                            ok.id == id
                                && ok.loops == prog.entries
                                && (
                                    ok.cache_hits,
                                    ok.cache_misses,
                                    ok.solver_passes,
                                    ok.node_visits,
                                ) == (1, 0, 0, 0)
                        }
                        _ => false,
                    };
                    Answer {
                        ok,
                        bytes: sent + read,
                    }
                }
                Err(_) => Answer {
                    ok: false,
                    bytes: sent,
                },
            }
        }
        Req::Json(frame) => {
            // The client writes the frame and a newline.
            let sent = frame.len() as u64 + 1;
            match client.request(frame) {
                Ok(line) => {
                    let read = line.len() as u64;
                    let line = line.strip_suffix('\n').unwrap_or(&line);
                    let head = format!("{{\"id\":{id}");
                    let ok = line.len() == head.len() + prog.json_tail.len()
                        && line.starts_with(&head)
                        && line.ends_with(&prog.json_tail);
                    Answer {
                        ok,
                        bytes: sent + read,
                    }
                }
                Err(_) => Answer {
                    ok: false,
                    bytes: sent,
                },
            }
        }
    }
}

struct Node {
    service: Arc<Service>,
    addr: String,
    thread: JoinHandle<std::io::Result<()>>,
}

fn service_config(workers: usize, node_id: Option<String>) -> ServiceConfig {
    ServiceConfig {
        engine: EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        workers,
        queue_capacity: 1024,
        request_timeout: Duration::from_secs(30),
        node_id,
        ..ServiceConfig::default()
    }
}

fn start_node(workers: usize, node_id: Option<String>) -> Node {
    let service = Service::start(service_config(workers, node_id)).expect("service starts");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind node");
    let addr = listener.local_addr().expect("node address").to_string();
    let server = EventServer::attach(listener, Arc::clone(&service));
    let thread = std::thread::spawn(move || server.run(ProtoMode::Auto));
    Node {
        service,
        addr,
        thread,
    }
}

/// The running servers of one pass.
struct Stack {
    /// The nodes doing analysis work.
    nodes: Vec<Node>,
    /// Address the clients talk to: the node, or the router.
    front: String,
    router: Option<(Arc<Router>, JoinHandle<std::io::Result<()>>, Topology)>,
}

impl Stack {
    fn start(topo: Topo) -> Stack {
        if topo == Topo::Direct {
            let node = start_node(2, None);
            return Stack {
                front: node.addr.clone(),
                nodes: vec![node],
                router: None,
            };
        }
        let nodes: Vec<Node> = (0..2)
            .map(|k| start_node(1, Some(format!("n{}", k + 1))))
            .collect();
        let spec = nodes
            .iter()
            .enumerate()
            .map(|(k, n)| format!("n{}={}", k + 1, n.addr))
            .collect::<Vec<_>>()
            .join(",");
        let topology = Topology::parse(&spec, 0).expect("topology");
        let mut config = RouterConfig::new(topology.clone());
        // Health probes would add periodic background work to the timed
        // phase; no node fails in this workload.
        config.probe_interval = Duration::from_secs(3600);
        let server = RouterServer::bind("127.0.0.1:0", config).expect("bind router");
        let front = server.local_addr().expect("router address").to_string();
        let router = server.router();
        let thread = std::thread::spawn(move || server.run());
        Stack {
            nodes,
            front,
            router: Some((router, thread, topology)),
        }
    }

    fn stop(self) {
        if let Some((router, thread, _)) = self.router {
            router.shutdown();
            thread.join().expect("router thread").expect("router run");
        }
        for node in self.nodes {
            node.service.shutdown();
            node.thread.join().expect("node thread").expect("node run");
        }
    }

    /// Cache, queue-wait and failover counters summed over the nodes.
    fn counters(&self) -> ServerCounters {
        let mut c = ServerCounters::default();
        for node in &self.nodes {
            let cache = node.service.engine_stats().cache;
            c.hits += cache.hits;
            c.misses += cache.misses;
            if let Some(m) = node
                .service
                .registry()
                .snapshot()
                .find("arrayflow_queue_wait_us")
            {
                if let MetricValue::Histogram(h) = &m.value {
                    c.queue_wait_us += h.sum;
                }
            }
        }
        if let Some((router, _, _)) = &self.router {
            if let Some(m) = router
                .registry()
                .snapshot()
                .find("arrayflow_router_failovers_total")
            {
                if let MetricValue::Counter(v) = m.value {
                    c.failovers = v;
                }
            }
        }
        c
    }
}

/// Server-side counters read from the nodes' and router's registries.
#[derive(Debug, Clone, Copy, Default)]
struct ServerCounters {
    hits: u64,
    misses: u64,
    queue_wait_us: u64,
    failovers: u64,
}

impl ServerCounters {
    fn since(&self, before: &ServerCounters) -> ServerCounters {
        ServerCounters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            queue_wait_us: self.queue_wait_us - before.queue_wait_us,
            failovers: self.failovers - before.failovers,
        }
    }
}

fn client_config(seed: u64) -> ClientConfig {
    ClientConfig {
        backoff_seed: Some(seed),
        ..ClientConfig::default()
    }
}

/// Fills every node's cache with the warm set, through the front door.
fn warm_fill(front: &str, progs: &[Prog]) {
    let mut client = Client::new(front, client_config(7));
    for p in progs {
        let ok = client.analyze_binary(&p.src).expect("warm fill request");
        assert_eq!(
            ok.loops, p.entries,
            "warm fill answer differs from the reference"
        );
    }
}

/// What one closed-loop phase measured.
struct Phase {
    blocks: Vec<Block>,
    /// `(op, latency ms, answer)` for every op.
    results: Vec<(u32, f64, Answer)>,
    retries: u64,
    /// Untimed warm-up requests whose answer did not match.
    warmup_failed: usize,
    /// Server-side counters over the timed ops.
    counters: ServerCounters,
    tracer: Option<Tracer>,
}

/// Where a closed-loop phase sends its requests.
#[derive(Clone, Copy)]
enum Target<'a> {
    /// The stack's front door: the node, or the router.
    Front,
    /// Straight to the node that owns each request's fingerprint.
    Owner(&'a Topology),
}

/// Runs the timed ops from `CLIENTS` closed-loop client threads to `target`.
/// A traced phase records one span named `span` around each round trip.
fn closed_loop(
    inputs: &Inputs,
    stack: &Stack,
    target: Target,
    trace: Option<(Instant, &'static str)>,
) -> Phase {
    let n_blocks = inputs.ops.len() / BLOCK_OPS;
    // Clients finish their warm-up, the counters are read, then the
    // blocks run: every client waits at a barrier before and after each
    // block, so the main thread can time it.
    let (ready, start, end) = (
        Barrier::new(CLIENTS + 1),
        Barrier::new(CLIENTS + 1),
        Barrier::new(CLIENTS + 1),
    );
    let (before, blocks, parts) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (ready, start, end) = (&ready, &start, &end);
                s.spawn(move || {
                    let connect = |addr: &str| Client::new(addr, client_config(1000 + c as u64));
                    let mut clients: Vec<Client> = match target {
                        Target::Front => vec![connect(&stack.front)],
                        Target::Owner(_) => stack.nodes.iter().map(|n| connect(&n.addr)).collect(),
                    };
                    let mut op = |tracer: &mut Option<Tracer>, i: usize, id: u64, prog: &Prog| {
                        let req = request(KINDS[i % 3], id, prog);
                        let client = match target {
                            Target::Front => &mut clients[0],
                            Target::Owner(t) => &mut clients[t.primary_for(prog.fingerprint)],
                        };
                        let t = Instant::now();
                        let answer = match (tracer.as_mut(), trace) {
                            (Some(tr), Some((_, span))) => {
                                tr.span(span, i as u32, |_| send(client, &req, id, prog))
                            }
                            _ => send(client, &req, id, prog),
                        };
                        (t.elapsed().as_secs_f64() * 1e3, answer)
                    };
                    // Untimed warm-up: dials the connections and settles
                    // the request path.
                    let mut untraced = None;
                    let mut warmup_failed = 0;
                    for (k, &p) in inputs.warmup.iter().enumerate().skip(c).step_by(CLIENTS) {
                        let prog = &inputs.progs[p as usize];
                        warmup_failed +=
                            !op(&mut untraced, k, 1_000_000 + k as u64, prog).1.ok as usize;
                    }
                    let mut tracer = trace.map(|(epoch, _)| Tracer::new(epoch));
                    let mut results = Vec::with_capacity(inputs.ops.len() / CLIENTS + 1);
                    ready.wait();
                    for (i, &p) in inputs.ops.iter().enumerate().skip(c).step_by(CLIENTS) {
                        if i % BLOCK_OPS < CLIENTS {
                            if i >= CLIENTS {
                                end.wait();
                            }
                            start.wait();
                        }
                        let prog = &inputs.progs[p as usize];
                        let (lat_ms, answer) = op(&mut tracer, i, i as u64 + 1, prog);
                        results.push((i as u32, lat_ms, answer));
                    }
                    end.wait();
                    let retries = clients.iter().map(Client::retries).sum::<u64>();
                    (results, retries, tracer, warmup_failed)
                })
            })
            .collect();
        ready.wait();
        let before = stack.counters();
        let blocks: Vec<Block> = (0..n_blocks)
            .map(|_| {
                start.wait();
                Block::time(BLOCK_OPS, || {
                    end.wait();
                })
            })
            .collect();
        let parts: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (before, blocks, parts)
    });
    let after = stack.counters();
    let mut phase = Phase {
        blocks,
        results: Vec::new(),
        retries: 0,
        warmup_failed: 0,
        counters: after.since(&before),
        tracer: trace.map(|(epoch, _)| Tracer::new(epoch)),
    };
    for (results, retries, tracer, warmup_failed) in parts {
        phase.warmup_failed += warmup_failed;
        phase.results.extend(results);
        phase.retries += retries;
        if let (Some(all), Some(t)) = (phase.tracer.as_mut(), tracer) {
            all.absorb(t);
        }
    }
    phase.results.sort_by_key(|r| r.0);
    phase
}

pub fn run(inputs: &Inputs, traced: bool, setup_repeats: usize) -> Pass {
    // Set-up: start the servers and fill their caches. It is repeated for
    // a steady median, half of the samples before the timed phase and the
    // rest after it, so they do not all rest on the host's speed at one
    // moment; the last stack started before the timed phase serves it.
    let set_up = || {
        let t = Instant::now();
        let s = Stack::start(inputs.topo);
        warm_fill(&s.front, &inputs.progs);
        (s, t.elapsed().as_secs_f64())
    };
    let repeats = setup_repeats.max(1);
    let mut setup_s = Vec::with_capacity(repeats);
    let mut stack = None;
    for _ in 0..repeats.div_ceil(2) {
        if let Some(old) = stack.take() {
            Stack::stop(old);
        }
        let (s, secs) = set_up();
        setup_s.push(secs);
        stack = Some(s);
    }
    let stack = stack.expect("at least one set-up");

    let epoch = Instant::now();
    let main = closed_loop(
        inputs,
        &stack,
        Target::Front,
        traced.then_some((epoch, "op")),
    );
    let server = main.counters;
    let topology = stack.router.as_ref().map(|(_, _, t)| t.clone());
    // A traced routed pass sends the same stream once more, at the same
    // concurrency, straight to the node that owns each fingerprint: the
    // routed round trip minus that one is the router hop.
    let direct = match (&topology, traced) {
        (Some(t), true) => Some(closed_loop(
            inputs,
            &stack,
            Target::Owner(t),
            Some((epoch, "direct")),
        )),
        _ => None,
    };

    let mut layers_us = BTreeMap::new();
    let mut tracer = main.tracer;
    let mut retries = main.retries;
    // A failed warm-up request fails the whole pass.
    let mut ok_ops: Vec<bool> = main
        .results
        .iter()
        .map(|r| r.2.ok && main.warmup_failed == 0)
        .collect();
    if let Some(d) = direct {
        for (ok, r) in ok_ops.iter_mut().zip(&d.results) {
            *ok &= r.2.ok && d.warmup_failed == 0;
        }
        retries += d.retries;
        if let (Some(all), Some(t)) = (tracer.as_mut(), d.tracer) {
            all.absorb(t);
        }
    }
    if let Some(tr) = tracer.as_mut() {
        let replay_ok = replay(inputs, tr, topology.as_ref());
        for (ok, r) in ok_ops.iter_mut().zip(replay_ok) {
            *ok &= r;
        }
        layers_us = attribute(tr, inputs.ops.len(), topology.is_some());
        // Per request a node answered in the timed phase, summed over
        // the ops.
        let per_request = server.queue_wait_us as f64 / (server.hits + server.misses).max(1) as f64;
        layers_us.insert(
            "service.queue_wait_us",
            per_request * inputs.ops.len() as f64,
        );
    }
    stack.stop();
    for _ in repeats.div_ceil(2)..repeats {
        let (s, secs) = set_up();
        setup_s.push(secs);
        s.stop();
    }

    let n = inputs.ops.len();
    let counts = Counts {
        hits: server.hits,
        lookups: server.hits + server.misses,
        solves: server.misses,
        wire_bytes: main.results.iter().map(|r| r.2.bytes).sum(),
        retries,
        failovers: server.failovers,
        ..Counts::default()
    };
    let shares = vec![
        format!(
            "request kinds: fingerprint-first {:.1}%, binary source {:.1}%, JSON source {:.1}%",
            100.0 * (0..n).filter(|i| i % 3 == 0).count() as f64 / n as f64,
            100.0 * (0..n).filter(|i| i % 3 == 1).count() as f64 / n as f64,
            100.0 * (0..n).filter(|i| i % 3 == 2).count() as f64 / n as f64,
        ),
        format!(
            "cache hits {:.2}% of {} lookups",
            100.0 * counts.hits as f64 / counts.lookups.max(1) as f64,
            counts.lookups
        ),
    ];
    Pass {
        ops: n,
        ok: ok_ops.iter().filter(|&&ok| ok).count(),
        blocks: main.blocks,
        lat_ms: main.results.iter().map(|r| r.1).collect(),
        setup_s,
        peak_rss_mb: peak_rss_mb(),
        counts,
        layers_us,
        shares,
        tracer,
    }
}

/// Replays every op in-process, one at a time: the whole request through
/// a fresh warmed `Service` (`service.handle`), then each layer's public
/// function on its own. Returns whether each replayed answer matched.
fn replay(inputs: &Inputs, tr: &mut Tracer, topology: Option<&Topology>) -> Vec<bool> {
    let workers = if topology.is_some() { 1 } else { 2 };
    let svc = Service::start(service_config(workers, None)).expect("replay service starts");
    for p in &inputs.progs {
        let r = svc
            .engine()
            .analyze_one(0, &parse_program(&p.src).expect("parses"));
        assert!(r.error.is_none(), "replay warm fill failed");
    }
    let mut decoder = FrameDecoder::new(64 << 20);
    let frame_roundtrip = |decoder: &mut FrameDecoder, tag: u8, payload: &[u8]| {
        decoder.extend(&encode_frame(tag, payload));
        decoder
            .next()
            .expect("well-formed frame")
            .expect("complete frame")
    };
    let mut ok = Vec::with_capacity(inputs.ops.len());
    for (i, &p) in inputs.ops.iter().enumerate() {
        let op = i as u32;
        let prog = &inputs.progs[p as usize];
        let id = i as u64 + 1;
        let kind = KINDS[i % 3];
        let req = request(kind, id, prog);
        if let Some(t) = topology {
            std::hint::black_box(tr.span("router.ring", op, |_| {
                t.ring().node_for_fingerprint(prog.fingerprint)
            }));
        }
        // The whole request, in-process.
        let matched = match &req {
            Req::Binary(r) => {
                let (tag, payload) = (r.tag(), r.encode_payload());
                let (tx, rx) = mpsc::channel();
                let frame = tr.span("service.handle", op, |_| {
                    svc.handle_binary_frame_async(
                        tag,
                        &payload,
                        Box::new(move |resp| {
                            let _ = tx.send(resp.frame);
                        }),
                    );
                    rx.recv().expect("replay answer")
                });
                let want = expected_binary(id, prog);
                frame == encode_frame(want.tag(), &want.encode_payload())
            }
            Req::Json(frame) => {
                let line = tr.span("service.handle", op, |_| {
                    svc.handle_frame(frame.as_bytes()).line
                });
                line == format!("{{\"id\":{id}{}", prog.json_tail)
            }
        };
        ok.push(matched);

        // The same request, one layer at a time.
        match &req {
            Req::Binary(r) => {
                let (tag, payload) = (r.tag(), r.encode_payload());
                let _ = std::hint::black_box(
                    tr.span("service.decode", op, |_| WireRequest::decode(tag, &payload)),
                );
            }
            Req::Json(frame) => {
                let _ = std::hint::black_box(tr.span("service.decode", op, |_| {
                    JsonRequest::decode(frame.as_bytes())
                }));
            }
        }
        let fingerprint = if kind == Kind::Fingerprint {
            Fingerprint(u128::from_le_bytes(prog.fingerprint))
        } else {
            let mut program = tr.span("ir.parse", op, |_| {
                parse_program(&prog.src).expect("parses")
            });
            tr.span("ir.normalize", op, |_| {
                normalize(&mut program);
                program.renumber();
            });
            tr.span("ir.fingerprint", op, |_| {
                let l = loops_innermost_first(&program)[0];
                fingerprint_loop(l, &program.symbols)
            })
        };
        let report = tr
            .span("engine.cache_get", op, |_| {
                svc.engine()
                    .analyze_by_fingerprint(fingerprint, ProblemSet::ALL, DEP_MAX)
            })
            .expect("replay cache is warm");
        match &req {
            Req::Binary(r) => {
                let resp = tr.span("service.encode", op, |_| {
                    let resp = Response::Analyze(AnalyzeOk {
                        id,
                        loops: vec![LoopEntry {
                            fingerprint: fingerprint.0.to_le_bytes(),
                            report: encode_report(&report),
                        }],
                        cache_hits: 1,
                        cache_misses: 0,
                        solver_passes: 0,
                        node_visits: 0,
                    });
                    (resp.tag(), resp.encode_payload())
                });
                let (tag, payload) = (r.tag(), r.encode_payload());
                tr.span("wire.frame", op, |_| {
                    std::hint::black_box(frame_roundtrip(&mut decoder, tag, &payload));
                    std::hint::black_box(frame_roundtrip(&mut decoder, resp.0, &resp.1));
                });
            }
            Req::Json(_) => {
                let loops = vec![LoopReport {
                    fingerprint,
                    report,
                }];
                std::hint::black_box(tr.span("service.encode", op, |_| {
                    encode_ok(
                        &Json::Num(id as f64),
                        analyze_result_json(&hit_batch(loops)),
                    )
                }));
            }
        }
    }
    svc.shutdown();
    svc.join_workers();
    ok
}

/// Turns the recorded spans into per-layer totals (microseconds over all
/// ops). All spans here are leaves, so a span's duration is its self
/// time; the handle span's self time is what its replayed parts do not
/// cover, and the socket and router hop are remainders of the round trip.
fn attribute(tr: &Tracer, ops: usize, routed: bool) -> BTreeMap<&'static str, f64> {
    let mut per_op: Vec<BTreeMap<&'static str, f64>> = vec![BTreeMap::new(); ops];
    for s in tr.spans() {
        *per_op[s.op as usize].entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e3;
    }
    const PARTS: [&str; 6] = [
        "service.decode",
        "ir.parse",
        "ir.normalize",
        "ir.fingerprint",
        "engine.cache_get",
        "service.encode",
    ];
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for m in per_op {
        let get = |name: &str| m.get(name).copied().unwrap_or(0.0);
        for name in PARTS.iter().chain(&["wire.frame", "router.ring"]) {
            *out.entry(metric_name(name)).or_insert(0.0) += get(name);
        }
        let handle = get("service.handle");
        let parts: f64 = PARTS.iter().map(|n| get(n)).sum();
        *out.entry("service.handle_us").or_insert(0.0) += handle - parts;
        let node_rt = if routed { get("direct") } else { get("op") };
        *out.entry("service.socket_us").or_insert(0.0) += node_rt - handle - get("wire.frame");
        if routed {
            *out.entry("router.forward_us").or_insert(0.0) +=
                get("op") - get("direct") - get("router.ring");
        }
    }
    out
}

fn metric_name(span: &str) -> &'static str {
    match span {
        "service.decode" => "service.decode_us",
        "ir.parse" => "ir.parse_us",
        "ir.normalize" => "ir.normalize_us",
        "ir.fingerprint" => "ir.fingerprint_us",
        "engine.cache_get" => "engine.cache_get_us",
        "service.encode" => "service.encode_us",
        "wire.frame" => "wire.frame_us",
        "router.ring" => "router.ring_us",
        other => unreachable!("no metric for span {other}"),
    }
}
