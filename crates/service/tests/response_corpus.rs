//! Response corpus: the exact bytes every verb answers with, pinned on
//! both protocols and through the router.
//!
//! Each case of [`cases`] is run in table order against four fresh
//! stacks: JSON through [`Service::handle_frame`], binary through
//! [`Service::handle_binary_frame_async`], and JSON and binary over TCP
//! through an in-process [`RouterServer`] in front of two event-driven
//! nodes. Every response is compared with the golden file
//! `tests/response_corpus.golden`. Responses that carry live counters,
//! timings or socket addresses (`stats`, `metrics`, `health`) are
//! compared with every run of digits masked to `#`; all others byte for
//! byte (binary frames as hex).
//!
//! After a deliberate protocol change, regenerate the golden file with
//! `cargo test -p arrayflow-service --test response_corpus -- --ignored regenerate`
//! and review its diff.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use arrayflow_cluster::Topology;
use arrayflow_engine::{CustomSpec, EngineConfig, ProblemSet};
use arrayflow_service::{
    ErrorKind, EventServer, Json, ProtoMode, Router, RouterConfig, RouterServer, Service,
    ServiceConfig,
};
use arrayflow_wire::encode_frame;
use arrayflow_wire::frame::read_frame;
use arrayflow_wire::proto::{
    with_deadline, AnalyzeRequest, CustomRequest, Request as WireRequest, Response as WireResponse,
    TAG_ANALYZE, TAG_CUSTOM,
};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/response_corpus.golden");

/// A single-loop program: fingerprint-routable, session-capable.
const P1: &str = "do i = 1, 100 A[i+2] := A[i] + x; end";
/// A two-loop program: routes by source hash, cannot open a session.
const P2: &str = "do i = 1, 9 A[i] := 1; end do j = 1, 9 B[j] := 2; end";
/// A program that does not parse.
const BAD: &str = "do do do";
/// Live array elements: gen uses, kill defs, backward, may.
const LIVE: u8 = 0b11_0110;
/// Gen defs, kill defs, forward, must: the canned `reaching` instance.
const REACHING: u8 = 0b00_0101;

/// The canonical fingerprint of a single-loop program, as wire bytes.
fn fingerprint(src: &str) -> [u8; 16] {
    let mut program = arrayflow_ir::parse_program(src).unwrap();
    arrayflow_ir::normalize(&mut program);
    program.renumber();
    let l = program.sole_loop().unwrap();
    arrayflow_ir::fingerprint_loop(l, &program.symbols)
        .0
        .to_le_bytes()
}

fn fingerprint_hex(src: &str) -> String {
    arrayflow_ir::Fingerprint(u128::from_le_bytes(fingerprint(src))).to_string()
}

/// One request of the corpus, in JSON and/or binary form.
struct Case {
    name: &'static str,
    json: Option<String>,
    binary: Option<(u8, Vec<u8>)>,
    /// Compare with digit runs masked (live counters, timings, ports).
    masked: bool,
    /// Only sent straight to a node: the router closes the connection
    /// after its own `shutdown`.
    node_only: bool,
}

fn case(name: &'static str, json: Option<&str>, binary: Option<WireRequest>) -> Case {
    Case {
        name,
        json: json.map(str::to_string),
        binary: binary.map(|r| (r.tag(), r.encode_payload())),
        masked: false,
        node_only: false,
    }
}

fn json_only(name: &'static str, json: &str) -> Case {
    case(name, Some(json), None)
}

fn raw(name: &'static str, tag: u8, payload: Vec<u8>) -> Case {
    Case {
        name,
        json: None,
        binary: Some((tag, payload)),
        masked: false,
        node_only: false,
    }
}

fn masked(mut c: Case) -> Case {
    c.masked = true;
    c
}

fn analyze(id: u64, src: &[u8]) -> WireRequest {
    WireRequest::Analyze(AnalyzeRequest {
        id,
        fingerprint: None,
        problems: None,
        distance_bound: None,
        source: Some(src.to_vec()),
    })
}

fn custom(id: u64, spec: u8, distance_bound: Option<u64>, src: &str) -> WireRequest {
    WireRequest::Custom(CustomRequest {
        id,
        spec,
        fingerprint: None,
        distance_bound,
        source: Some(src.as_bytes().to_vec()),
    })
}

fn json_str(s: &str) -> String {
    Json::Str(s.into()).to_string()
}

/// The corpus, in the order it is sent. Cache state carries from case to
/// case (the second `analyze` of a program is a hit), so order matters.
fn cases() -> Vec<Case> {
    let p1 = json_str(P1);
    let p2 = json_str(P2);
    let bad = json_str(BAD);
    let fp = fingerprint(P1);
    let fp_hex = fingerprint_hex(P1);
    let over_cap = CustomSpec::MAX_DISTANCE_BOUND + 1;
    let delta = |id: u64, session: u64, stmt: u64, text: &str| {
        (
            format!(
                r#"{{"id":{id},"verb":"delta","session":{session},"fingerprint":"{fp_hex}","stmt":{stmt},"text":{}}}"#,
                json_str(text)
            ),
            WireRequest::Delta {
                id,
                session,
                fingerprint: fp,
                stmt,
                text: text.as_bytes().to_vec(),
            },
        )
    };
    let deadline = |req: WireRequest, ms: u64| with_deadline(req.tag(), &req.encode_payload(), ms);
    let mut out = vec![
        case(
            "ping",
            Some(r#"{"id":1,"verb":"ping"}"#),
            Some(WireRequest::Ping { id: 1 }),
        ),
        masked(case(
            "health",
            Some(r#"{"id":2,"verb":"health"}"#),
            Some(WireRequest::Health { id: 2 }),
        )),
        case(
            "analyze_miss",
            Some(&format!(r#"{{"id":3,"verb":"analyze","program":{p1}}}"#)),
            Some(analyze(3, P1.as_bytes())),
        ),
        case(
            "analyze_hit",
            Some(&format!(r#"{{"id":4,"verb":"analyze","program":{p1}}}"#)),
            Some(analyze(4, P1.as_bytes())),
        ),
        case(
            "analyze_selection",
            Some(&format!(
                r#"{{"id":5,"verb":"analyze","program":{p1},"problems":["available","busy"],"distance_bound":4}}"#
            )),
            Some(WireRequest::Analyze(AnalyzeRequest {
                id: 5,
                fingerprint: None,
                problems: Some(
                    ProblemSet {
                        available: true,
                        busy: true,
                        ..ProblemSet::NONE
                    }
                    .bits(),
                ),
                distance_bound: Some(4),
                source: Some(P1.as_bytes().to_vec()),
            })),
        ),
        case(
            "analyze_empty_selection",
            Some(&format!(
                r#"{{"id":6,"verb":"analyze","program":{p1},"problems":[]}}"#
            )),
            Some(WireRequest::Analyze(AnalyzeRequest {
                id: 6,
                fingerprint: None,
                problems: Some(0),
                distance_bound: None,
                source: Some(P1.as_bytes().to_vec()),
            })),
        ),
        case(
            "analyze_two_loops",
            Some(&format!(r#"{{"id":7,"verb":"analyze","program":{p2}}}"#)),
            Some(analyze(7, P2.as_bytes())),
        ),
        case(
            "analyze_parse_error",
            Some(&format!(r#"{{"id":8,"verb":"analyze","program":{bad}}}"#)),
            Some(analyze(8, BAD.as_bytes())),
        ),
        case(
            "custom_live",
            Some(&format!(
                r#"{{"id":9,"verb":"custom","program":{p1},"spec":{{"gen":["uses"],"kill":["defs"],"direction":"backward","mode":"may"}}}}"#
            )),
            Some(custom(9, LIVE, None, P1)),
        ),
        case(
            "custom_canned",
            Some(&format!(
                r#"{{"id":10,"verb":"custom","program":{p1},"spec":{{"gen":["defs"],"kill":["defs"]}}}}"#
            )),
            Some(custom(10, REACHING, None, P1)),
        ),
        case(
            "custom_over_cap",
            Some(&format!(
                r#"{{"id":11,"verb":"custom","program":{p1},"spec":{{"gen":["defs"]}},"distance_bound":{over_cap}}}"#
            )),
            Some(custom(11, 0b01, Some(over_cap), P1)),
        ),
        case(
            "custom_parse_error",
            Some(&format!(
                r#"{{"id":12,"verb":"custom","program":{bad},"spec":{{"gen":["defs"]}}}}"#
            )),
            Some(custom(12, 0b01, None, BAD)),
        ),
        case(
            "open",
            Some(&format!(r#"{{"id":13,"verb":"open","program":{p1}}}"#)),
            Some(WireRequest::Open {
                id: 13,
                source: P1.as_bytes().to_vec(),
            }),
        ),
    ];
    for (name, id, session, stmt, text) in [
        ("delta", 14, 1, 0, "A[i+3] := A[i] + x;"),
        ("delta_bad_stmt", 15, 1, 99, "A[i+3] := A[i] + x;"),
        ("delta_bad_text", 16, 1, 0, "A[i := ;"),
        ("delta_session_lost", 17, 999, 0, "A[i+3] := A[i] + x;"),
    ] {
        let (json, wire) = delta(id, session, stmt, text);
        out.push(case(name, Some(&json), Some(wire)));
    }
    out.extend([
        case(
            "open_two_loops",
            Some(&format!(r#"{{"id":18,"verb":"open","program":{p2}}}"#)),
            Some(WireRequest::Open {
                id: 18,
                source: P2.as_bytes().to_vec(),
            }),
        ),
        case(
            "open_parse_error",
            Some(&format!(r#"{{"id":19,"verb":"open","program":{bad}}}"#)),
            Some(WireRequest::Open {
                id: 19,
                source: BAD.as_bytes().to_vec(),
            }),
        ),
        case(
            "compact_without_store",
            Some(r#"{"id":20,"verb":"compact"}"#),
            Some(WireRequest::Compact { id: 20 }),
        ),
    ]);
    let (tag, payload) = deadline(analyze(21, P1.as_bytes()), 0);
    out.push(Case {
        binary: Some((tag, payload)),
        ..json_only(
            "analyze_zero_budget",
            &format!(r#"{{"id":21,"verb":"analyze","program":{p1},"deadline_ms":0}}"#),
        )
    });
    let (tag, payload) = deadline(analyze(22, P1.as_bytes()), 60_000);
    out.push(Case {
        binary: Some((tag, payload)),
        ..json_only(
            "analyze_with_budget",
            &format!(r#"{{"id":22,"verb":"analyze","program":{p1},"deadline_ms":60000}}"#),
        )
    });

    // Binary-only: fingerprint-first probes and hostile payloads.
    let probe = |id: u64, fingerprint: [u8; 16]| {
        WireRequest::Analyze(AnalyzeRequest {
            id,
            fingerprint: Some(fingerprint),
            problems: None,
            distance_bound: None,
            source: None,
        })
    };
    out.extend([
        case("fingerprint_hit", None, Some(probe(30, fp))),
        case("fingerprint_unknown", None, Some(probe(31, [7; 16]))),
        case(
            "custom_fingerprint_hit",
            None,
            Some(WireRequest::Custom(CustomRequest {
                id: 32,
                spec: LIVE,
                fingerprint: Some(fp),
                distance_bound: None,
                source: None,
            })),
        ),
        case(
            "custom_fingerprint_unknown",
            None,
            Some(WireRequest::Custom(CustomRequest {
                id: 33,
                spec: LIVE,
                fingerprint: Some([7; 16]),
                distance_bound: None,
                source: None,
            })),
        ),
        case(
            "fingerprint_miss_with_source",
            None,
            Some(WireRequest::Analyze(AnalyzeRequest {
                id: 34,
                fingerprint: Some([9; 16]),
                problems: None,
                distance_bound: None,
                source: Some(P1.as_bytes().to_vec()),
            })),
        ),
        case("analyze_not_utf8", None, Some(analyze(35, b"\xff\xfe"))),
        case(
            "custom_not_utf8",
            None,
            Some(WireRequest::Custom(CustomRequest {
                id: 36,
                spec: LIVE,
                fingerprint: None,
                distance_bound: None,
                source: Some(b"\xff".to_vec()),
            })),
        ),
        case(
            "open_not_utf8",
            None,
            Some(WireRequest::Open {
                id: 37,
                source: b"\xff".to_vec(),
            }),
        ),
        case(
            "delta_not_utf8",
            None,
            Some(WireRequest::Delta {
                id: 38,
                session: 1,
                fingerprint: fp,
                stmt: 0,
                text: b"\xff".to_vec(),
            }),
        ),
        case(
            "bad_problem_bits",
            None,
            Some(WireRequest::Analyze(AnalyzeRequest {
                id: 39,
                fingerprint: None,
                problems: Some(0xF0),
                distance_bound: None,
                source: Some(P1.as_bytes().to_vec()),
            })),
        ),
        case(
            "replicate_without_store",
            None,
            Some(WireRequest::Replicate {
                id: 40,
                batch: Vec::new(),
            }),
        ),
    ]);
    let mut bad_spec = custom(41, REACHING, None, P1).encode_payload();
    bad_spec[1] = 0; // the spec byte sits right after the 1-byte id
    out.push(raw("custom_empty_gen_byte", TAG_CUSTOM, bad_spec));
    let truncated = analyze(42, P1.as_bytes()).encode_payload();
    out.push(raw(
        "analyze_truncated",
        TAG_ANALYZE,
        truncated[..truncated.len() - 3].to_vec(),
    ));
    out.push(raw("unknown_tag", 0x3F, vec![43]));
    out.push(raw("bad_deadline_prefix", TAG_ANALYZE | 0x40, vec![0x80]));

    // JSON-only: every decode-time validation message.
    for (name, line) in [
        ("json_malformed", "} not json".to_string()),
        ("json_not_object", "[1,2]".to_string()),
        ("json_missing_verb", r#"{"id":50}"#.to_string()),
        (
            "json_unknown_verb",
            r#"{"id":"q7","verb":"nope"}"#.to_string(),
        ),
        (
            "json_analyze_no_program",
            r#"{"id":51,"verb":"analyze"}"#.to_string(),
        ),
        (
            "json_program_not_string",
            r#"{"id":52,"verb":"analyze","program":7}"#.to_string(),
        ),
        (
            "json_custom_no_program",
            r#"{"id":53,"verb":"custom","spec":{"gen":["defs"]}}"#.to_string(),
        ),
        (
            "json_open_no_program",
            r#"{"id":54,"verb":"open"}"#.to_string(),
        ),
        (
            "json_problems_not_array",
            format!(r#"{{"id":55,"verb":"analyze","program":{p1},"problems":"busy"}}"#),
        ),
        (
            "json_unknown_problem",
            format!(r#"{{"id":56,"verb":"analyze","program":{p1},"problems":["bogus"]}}"#),
        ),
        (
            "json_problem_not_string",
            format!(r#"{{"id":57,"verb":"analyze","program":{p1},"problems":[1]}}"#),
        ),
        (
            "json_bad_distance",
            format!(r#"{{"id":58,"verb":"analyze","program":{p1},"distance_bound":-1}}"#),
        ),
        (
            "json_custom_no_spec",
            format!(r#"{{"id":59,"verb":"custom","program":{p1}}}"#),
        ),
        (
            "json_spec_not_object",
            format!(r#"{{"id":60,"verb":"custom","program":{p1},"spec":7}}"#),
        ),
        (
            "json_spec_empty_gen",
            format!(
                r#"{{"id":61,"verb":"custom","program":{p1},"spec":{{"gen":[],"kill":["defs"]}}}}"#
            ),
        ),
        (
            "json_spec_unknown_member",
            format!(
                r#"{{"id":62,"verb":"custom","program":{p1},"spec":{{"gen":["defs"],"bogus":1}}}}"#
            ),
        ),
        (
            "json_spec_unknown_role",
            format!(r#"{{"id":63,"verb":"custom","program":{p1},"spec":{{"gen":["stores"]}}}}"#),
        ),
        (
            "json_spec_roles_not_array",
            format!(r#"{{"id":64,"verb":"custom","program":{p1},"spec":{{"gen":"defs"}}}}"#),
        ),
        (
            "json_spec_too_many_roles",
            format!(
                r#"{{"id":65,"verb":"custom","program":{p1},"spec":{{"gen":["defs","defs","defs"]}}}}"#
            ),
        ),
        (
            "json_spec_bad_direction",
            format!(
                r#"{{"id":66,"verb":"custom","program":{p1},"spec":{{"gen":["defs"],"direction":"up"}}}}"#
            ),
        ),
        (
            "json_spec_bad_mode",
            format!(
                r#"{{"id":67,"verb":"custom","program":{p1},"spec":{{"gen":["defs"],"mode":3}}}}"#
            ),
        ),
        (
            "json_delta_missing_fields",
            r#"{"id":68,"verb":"delta","session":1}"#.to_string(),
        ),
        (
            "json_bad_fingerprint_hex",
            r#"{"id":69,"verb":"delta","session":1,"fingerprint":"xyz","stmt":0,"text":"x := 1;"}"#
                .to_string(),
        ),
        (
            "json_fingerprint_not_string",
            r#"{"id":70,"verb":"ping","fingerprint":5}"#.to_string(),
        ),
        (
            "json_bad_session",
            r#"{"id":71,"verb":"ping","session":"x"}"#.to_string(),
        ),
        (
            "json_bad_stmt",
            r#"{"id":72,"verb":"ping","stmt":-1}"#.to_string(),
        ),
        (
            "json_text_not_string",
            r#"{"id":73,"verb":"ping","text":5}"#.to_string(),
        ),
        (
            "json_bad_deadline",
            r#"{"id":74,"verb":"ping","deadline_ms":"soon"}"#.to_string(),
        ),
        (
            "json_ping_extra_fields",
            format!(
                r#"{{"id":75,"verb":"ping","program":{p1},"distance_bound":3,"fingerprint":"{fp_hex}"}}"#
            ),
        ),
    ] {
        out.push(json_only(name, &line));
    }

    out.extend([
        masked(case(
            "stats",
            Some(r#"{"id":90,"verb":"stats"}"#),
            Some(WireRequest::Stats { id: 90 }),
        )),
        masked(case(
            "metrics",
            Some(r#"{"id":91,"verb":"metrics"}"#),
            Some(WireRequest::Metrics { id: 91 }),
        )),
        case(
            "shutdown",
            Some(r#"{"id":92,"verb":"shutdown"}"#),
            Some(WireRequest::Shutdown { id: 92 }),
        ),
    ]);
    out.push(Case {
        node_only: true,
        ..case(
            "analyze_after_shutdown",
            Some(&format!(r#"{{"id":93,"verb":"analyze","program":{p1}}}"#)),
            Some(analyze(93, P1.as_bytes())),
        )
    });
    out
}

/// Every run of ASCII digits replaced by `#`.
fn mask_digits(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_digits = false;
    for c in s.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('#');
            }
            in_digits = true;
        } else {
            out.push(c);
            in_digits = false;
        }
    }
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// How a response is written into the golden file: JSON lines as-is,
/// binary frames as hex; masked cases decode the frame first so the
/// digits of its text can be masked.
fn render_json(c: &Case, line: &str) -> String {
    if c.masked {
        mask_digits(line)
    } else {
        line.to_string()
    }
}

fn render_binary(c: &Case, frame: &[u8]) -> String {
    if !c.masked {
        return hex(frame);
    }
    let (tag, payload) = read_frame(&mut std::io::Cursor::new(frame), usize::MAX).unwrap();
    match WireResponse::decode(tag, &payload).unwrap() {
        WireResponse::Text { id, text } => {
            format!("text id={id} {}", mask_digits(&Json::Str(text).to_string()))
        }
        other => panic!("masked case {} answered {other:?}", c.name),
    }
}

fn node_config(node_id: Option<&str>, engine: EngineConfig) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        node_id: node_id.map(str::to_string),
        engine,
        ..ServiceConfig::default()
    }
}

/// Runs the corpus in order over JSON through `handle_frame`.
fn run_json_node(cases: &[Case]) -> Vec<(String, String)> {
    let svc = Service::start(node_config(None, EngineConfig::default())).unwrap();
    let out = cases
        .iter()
        .filter_map(|c| {
            let line = c.json.as_ref()?;
            Some((
                c.name.to_string(),
                render_json(c, &svc.handle_frame(line.as_bytes()).line),
            ))
        })
        .collect();
    svc.shutdown();
    svc.join_workers();
    out
}

fn binary_call(svc: &Arc<Service>, tag: u8, payload: &[u8]) -> Vec<u8> {
    let (tx, rx) = mpsc::channel();
    svc.handle_binary_frame_async(
        tag,
        payload,
        Box::new(move |resp| {
            let _ = tx.send(resp.frame);
        }),
    );
    rx.recv_timeout(Duration::from_secs(30))
        .expect("every frame is answered")
}

/// Runs the corpus in order over binary through `handle_binary_frame_async`.
fn run_binary_node(cases: &[Case]) -> Vec<(String, String)> {
    let svc = Service::start(node_config(None, EngineConfig::default())).unwrap();
    let out = cases
        .iter()
        .filter_map(|c| {
            let (tag, payload) = c.binary.as_ref()?;
            Some((
                c.name.to_string(),
                render_binary(c, &binary_call(&svc, *tag, payload)),
            ))
        })
        .collect();
    svc.shutdown();
    svc.join_workers();
    out
}

/// Two event-driven nodes behind an in-process router.
struct Cluster {
    router: Arc<Router>,
    router_thread: JoinHandle<std::io::Result<()>>,
    nodes: Vec<(Arc<Service>, JoinHandle<std::io::Result<()>>)>,
    addr: String,
}

impl Cluster {
    fn start(engine: EngineConfig) -> Cluster {
        let mut spec = Vec::new();
        let mut nodes = Vec::new();
        for k in 1..=2 {
            let id = format!("n{k}");
            let svc = Service::start(node_config(Some(&id), engine.clone())).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            spec.push(format!("{id}={}", listener.local_addr().unwrap()));
            let server = EventServer::attach(listener, Arc::clone(&svc));
            nodes.push((svc, std::thread::spawn(move || server.run(ProtoMode::Auto))));
        }
        let topology = Topology::parse(&spec.join(","), 0).unwrap();
        let server = RouterServer::bind("127.0.0.1:0", RouterConfig::new(topology)).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let router = server.router();
        let router_thread = std::thread::spawn(move || server.run());
        Cluster {
            router,
            router_thread,
            nodes,
            addr,
        }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
    }

    fn stop(self) {
        self.router.shutdown();
        self.router_thread.join().unwrap().unwrap();
        for (svc, thread) in self.nodes {
            svc.shutdown();
            thread.join().unwrap().unwrap();
        }
    }
}

/// One JSON request over a router connection.
fn json_exchange(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut resp = String::new();
    assert!(reader.read_line(&mut resp).unwrap() > 0, "router closed");
    resp.trim_end_matches('\n').to_string()
}

/// Runs the corpus in order over JSON through the router.
fn run_json_router(cases: &[Case]) -> Vec<(String, String)> {
    let cluster = Cluster::start(EngineConfig::default());
    let mut stream = cluster.connect();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let out = cases
        .iter()
        .filter(|c| !c.node_only)
        .filter_map(|c| {
            let line = c.json.as_ref()?;
            let resp = json_exchange(&mut stream, &mut reader, line);
            Some((c.name.to_string(), render_json(c, &resp)))
        })
        .collect();
    cluster.stop();
    out
}

/// Runs the corpus in order over binary through the router.
fn run_binary_router(cases: &[Case]) -> Vec<(String, String)> {
    let cluster = Cluster::start(EngineConfig::default());
    let mut stream = cluster.connect();
    let out = cases
        .iter()
        .filter(|c| !c.node_only)
        .filter_map(|c| {
            let (tag, payload) = c.binary.as_ref()?;
            stream.write_all(&encode_frame(*tag, payload)).unwrap();
            let (rtag, rpayload) = read_frame(&mut stream, 64 << 20).unwrap();
            Some((
                c.name.to_string(),
                render_binary(c, &encode_frame(rtag, &rpayload)),
            ))
        })
        .collect();
    cluster.stop();
    out
}

/// The whole corpus as golden-file text: one `transport case response`
/// line per response.
fn corpus_text() -> String {
    let cases = cases();
    let mut text = String::new();
    for (transport, responses) in [
        ("json-node", run_json_node(&cases)),
        ("binary-node", run_binary_node(&cases)),
        ("json-router", run_json_router(&cases)),
        ("binary-router", run_binary_router(&cases)),
    ] {
        for (name, resp) in responses {
            text.push_str(&format!("{transport} {name} {resp}\n"));
        }
    }
    text
}

#[test]
fn responses_match_the_golden_corpus() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let actual = corpus_text();
    let mut drift = Vec::new();
    let (want, got): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), actual.lines().collect());
    for (w, g) in want.iter().zip(&got) {
        if w != g {
            drift.push(format!("  want {w}\n  got  {g}"));
        }
    }
    assert_eq!(
        want.len(),
        got.len(),
        "corpus size changed; drifted lines:\n{}",
        drift.join("\n")
    );
    assert!(
        drift.is_empty(),
        "response bytes drifted:\n{}",
        drift.join("\n")
    );
}

/// `CustomSpec::MAX_DISTANCE_BOUND` caps the bound a custom solve actually
/// uses: a server default above the cap rejects an unbounded `custom` on
/// both protocols, direct and through the router, while `analyze` (which
/// the cap does not cover) still runs.
#[test]
fn custom_distance_cap_applies_to_the_server_default() {
    let engine = EngineConfig {
        dep_max_distance: 2_000_000,
        ..EngineConfig::default()
    };
    let want = "distance bound 2000000 exceeds the 1000000 cap";
    let json = format!(
        r#"{{"id":1,"verb":"custom","program":{},"spec":{{"gen":["defs"]}}}}"#,
        json_str(P1)
    );
    let wire = custom(1, 0b01, None, P1);
    let check_json = |line: &str| {
        let v = Json::parse(line.as_bytes()).unwrap();
        let error = v.get("error").unwrap_or_else(|| panic!("{line}"));
        assert_eq!(error.get("kind").and_then(Json::as_str), Some("protocol"));
        assert_eq!(error.get("message").and_then(Json::as_str), Some(want));
    };
    let check_binary = |frame: &[u8]| {
        let (tag, payload) = read_frame(&mut std::io::Cursor::new(frame), usize::MAX).unwrap();
        match WireResponse::decode(tag, &payload).unwrap() {
            WireResponse::Err { id, kind, message } => {
                assert_eq!(
                    (id, kind),
                    (1, arrayflow_service::kind_byte(ErrorKind::Protocol))
                );
                assert_eq!(message, want);
            }
            other => panic!("expected the cap error, got {other:?}"),
        }
    };

    let svc = Service::start(node_config(None, engine.clone())).unwrap();
    check_json(&svc.handle_frame(json.as_bytes()).line);
    check_binary(&binary_call(&svc, wire.tag(), &wire.encode_payload()));
    let analyze = format!(r#"{{"id":2,"verb":"analyze","program":{}}}"#, json_str(P1));
    let line = svc.handle_frame(analyze.as_bytes()).line;
    assert!(line.contains("maxdist=2000000"), "{line}");
    svc.shutdown();
    svc.join_workers();

    let cluster = Cluster::start(engine);
    let mut stream = cluster.connect();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    check_json(&json_exchange(&mut stream, &mut reader, &json));
    let mut stream = cluster.connect();
    stream
        .write_all(&encode_frame(wire.tag(), &wire.encode_payload()))
        .unwrap();
    let (tag, payload) = read_frame(&mut stream, 64 << 20).unwrap();
    check_binary(&encode_frame(tag, &payload));
    cluster.stop();
}

/// Rewrites the golden file from the current code. Run only for a
/// deliberate protocol change, then review the diff.
#[test]
#[ignore]
fn regenerate() {
    std::fs::write(GOLDEN, corpus_text()).unwrap();
}
