//! The binary protocol's service-side half: strips the deadline prefix
//! of an `AFWIRE01` frame, decodes it with `arrayflow-wire` into the same
//! typed request a JSON line decodes into, hands it to the one
//! [`Service`] dispatcher, and encodes the outcome as a response frame —
//! same worker pool, same counters, same error taxonomy as JSON.
//!
//! Analysis reports travel as store-codec bytes. A request carrying a
//! client-precomputed fingerprint takes the dispatcher's
//! **fingerprint-first** path: the memo cache (and, through it, the
//! persistent tier) is probed *before* any parse or normalize work, and a
//! hit never touches the worker pool. JSON requests carry no analyze
//! fingerprint; the cluster router adds one when it forwards them.

use std::sync::Arc;
use std::time::Instant;

use arrayflow_obs::{observed_span, Trace};
use arrayflow_resilience::CancelToken;
use arrayflow_store::codec::encode_report;
use arrayflow_wire::encode_frame;
use arrayflow_wire::proto::{
    strip_deadline, AnalyzeOk, DeltaOk, LoopEntry, Request, Response, SessionOk,
};

use crate::json::Json;
use crate::proto::{ErrorKind, ServiceError};
use crate::service::{Outcome, Service};

/// The outcome of handling one binary frame.
pub struct BinaryResponse {
    /// The complete response frame (header + payload), ready to write.
    pub frame: Vec<u8>,
    /// True when the request was a `shutdown`; the transport should send
    /// the frame, stop reading, and let the server drain.
    pub shutdown: bool,
}

/// [`ErrorKind`] as a single wire byte. Stable protocol values: new kinds
/// append, existing bytes never renumber.
pub fn kind_byte(kind: ErrorKind) -> u8 {
    match kind {
        ErrorKind::Parse => 0,
        ErrorKind::Analysis => 1,
        ErrorKind::Timeout => 2,
        ErrorKind::Overloaded => 3,
        ErrorKind::Protocol => 4,
        ErrorKind::SessionLost => 5,
        ErrorKind::Cancelled => 6,
    }
}

/// Inverse of [`kind_byte`]; `None` for bytes from a newer server.
pub fn kind_from_byte(b: u8) -> Option<ErrorKind> {
    Some(match b {
        0 => ErrorKind::Parse,
        1 => ErrorKind::Analysis,
        2 => ErrorKind::Timeout,
        3 => ErrorKind::Overloaded,
        4 => ErrorKind::Protocol,
        5 => ErrorKind::SessionLost,
        6 => ErrorKind::Cancelled,
        _ => return None,
    })
}

fn frame_of(resp: &Response) -> Vec<u8> {
    encode_frame(resp.tag(), &resp.encode_payload())
}

fn err_response(id: u64, kind: ErrorKind, message: impl Into<String>) -> Response {
    Response::Err {
        id,
        kind: kind_byte(kind),
        message: message.into(),
    }
}

impl Service {
    /// Handles one decoded binary frame (tag + payload). Cheap verbs and
    /// fingerprint cache hits answer inline — `respond` runs before this
    /// returns; full analyses go through the bounded queue with `respond`
    /// called from a worker. `respond` is invoked exactly once either way.
    pub fn handle_binary_frame_async(
        self: &Arc<Self>,
        tag: u8,
        payload: &[u8],
        respond: Box<dyn FnOnce(BinaryResponse) + Send>,
    ) {
        self.handle_binary_frame_async_ctrl(tag, payload, CancelToken::new(), respond)
    }

    /// [`Service::handle_binary_frame_async`] with a caller-owned
    /// [`CancelToken`] — the event server hands each frame its
    /// connection's token so a teardown cancels the connection's queued
    /// and in-flight work.
    pub fn handle_binary_frame_async_ctrl(
        self: &Arc<Self>,
        tag: u8,
        payload: &[u8],
        cancel: CancelToken,
        respond: Box<dyn FnOnce(BinaryResponse) + Send>,
    ) {
        let accepted = Instant::now();
        let trace = self.begin_trace();
        // The deadline prefix is framing, not request content: strip it
        // before the request decoder sees the payload. A frame whose
        // prefix fails to decode is hostile by definition. The id of a
        // frame that fails to decode cannot be recovered; 0 is the
        // protocol's "unattributable" id.
        let decoded = strip_deadline(tag, payload)
            .map_err(|e| format!("bad deadline prefix: {e}"))
            .and_then(|(tag, budget_ms, offset)| {
                let _span = observed_span("decode", &self.ins().phase_decode);
                Request::decode(tag, &payload[offset..])
                    .map(|req| (req, budget_ms))
                    .map_err(|e| format!("bad frame: {e}"))
            });
        let (req, budget_ms) = match decoded {
            Ok(decoded) => decoded,
            Err(message) => {
                let e = ServiceError::new(ErrorKind::Protocol, message);
                return respond(self.finish_binary(&trace, accepted, 0, Err(e)));
            }
        };
        let id = req.id();
        let svc = Arc::clone(self);
        let done_trace = Arc::clone(&trace);
        self.dispatch(
            req,
            budget_ms,
            accepted,
            cancel,
            trace,
            Box::new(move |outcome| respond(svc.finish_binary(&done_trace, accepted, id, outcome))),
        );
    }

    /// The binary counterpart of `finish_json`: encodes the response
    /// frame, then the same outcome counters, latency histogram and
    /// slow-request log.
    fn finish_binary(
        &self,
        trace: &Arc<Trace>,
        accepted: Instant,
        id: u64,
        outcome: Result<Outcome, ServiceError>,
    ) -> BinaryResponse {
        let shutdown = matches!(outcome, Ok(Outcome::Shutdown));
        let counted = self.count_outcome(&outcome);
        let frame = frame_of(&self.binary_response(id, outcome));
        self.observe_outcome(trace, accepted, counted);
        BinaryResponse { frame, shutdown }
    }

    /// The binary encoder of an [`Outcome`]: reports travel as store-codec
    /// bytes, text bodies as UTF-8.
    fn binary_response(&self, id: u64, outcome: Result<Outcome, ServiceError>) -> Response {
        let text = |text: String| Response::Text { id, text };
        match outcome {
            Err(e) => err_response(id, e.kind, e.message),
            Ok(Outcome::Text(Json::Str(s))) => text(s),
            Ok(Outcome::Text(json)) => text(json.to_string()),
            // Binary metrics ship the Prometheus exposition directly — the
            // form a scraper wants, with no JSON wrapper to unpick.
            Ok(Outcome::Metrics) => text(self.render_exposition()),
            Ok(Outcome::Shutdown) => text("shutting down".into()),
            Ok(Outcome::Analyze(result)) => Response::Analyze(AnalyzeOk {
                id,
                loops: result
                    .loops
                    .iter()
                    .map(|l| LoopEntry {
                        fingerprint: l.fingerprint.0.to_le_bytes(),
                        report: encode_report(&l.report),
                    })
                    .collect(),
                cache_hits: result.stats.cache_hits,
                cache_misses: result.stats.cache_misses,
                solver_passes: result.stats.solver_passes,
                node_visits: result.stats.node_visits,
            }),
            Ok(Outcome::Session(session, report)) => Response::Session(SessionOk {
                id,
                session,
                fingerprint: report.fingerprint.0.to_le_bytes(),
                report: encode_report(&report),
            }),
            Ok(Outcome::Delta(d)) => Response::Delta(DeltaOk {
                id,
                session: d.session,
                fingerprint: d.fingerprint.0.to_le_bytes(),
                report: encode_report(&d.report),
                fallback: d.fallback,
                dirty_columns: d.dirty_columns as u64,
                total_columns: d.total_columns as u64,
            }),
        }
    }

    /// The response to a binary frame whose declared payload exceeds the
    /// size cap. Counted in the oversized-frames counter, *not* the
    /// request latency histogram — the frame was discarded, not timed.
    pub fn oversized_binary_response(&self, declared: u64) -> BinaryResponse {
        self.ins().oversized_frames.inc();
        let resp = err_response(
            0,
            ErrorKind::Protocol,
            format!(
                "frame of {declared} bytes exceeds the {} byte cap",
                self.config().max_frame_bytes
            ),
        );
        BinaryResponse {
            frame: frame_of(&resp),
            shutdown: false,
        }
    }
}

/// Turns a [`ServiceError`] into an encoded error frame (used by
/// transports for framing-level failures that never reach the service).
pub fn error_frame(id: u64, e: &ServiceError) -> Vec<u8> {
    frame_of(&err_response(id, e.kind, e.message.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use arrayflow_engine::{CustomSpec, ProblemSet};
    use arrayflow_wire::proto::{AnalyzeRequest, CustomRequest};
    use std::sync::mpsc;

    const SRC: &str = "do i = 1, 100 A[i+2] := A[i] + x; end";

    fn svc() -> Arc<Service> {
        Service::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        })
        .unwrap()
    }

    /// Blocks on the async path — what a transport does, minus the socket.
    fn binary_sync(svc: &Arc<Service>, tag: u8, payload: &[u8]) -> BinaryResponse {
        let (tx, rx) = mpsc::channel();
        svc.handle_binary_frame_async(
            tag,
            payload,
            Box::new(move |resp| {
                let _ = tx.send(resp);
            }),
        );
        rx.recv().expect("respond is invoked exactly once")
    }

    #[test]
    fn ping_round_trips() {
        let svc = svc();
        let req = Request::Ping { id: 9 };
        let out = binary_sync(&svc, req.tag(), &req.encode_payload());
        let resp = decode_response_frame(&out.frame);
        assert_eq!(
            resp,
            Response::Text {
                id: 9,
                text: "pong".into()
            }
        );
        assert!(!out.shutdown);
    }

    #[test]
    fn analyze_by_source_then_fingerprint_hit_is_byte_identical() {
        let svc = svc();
        let req = Request::Analyze(AnalyzeRequest {
            id: 1,
            fingerprint: None,
            problems: None,
            distance_bound: None,
            source: Some(SRC.as_bytes().to_vec()),
        });
        let full =
            decode_response_frame(&binary_sync(&svc, req.tag(), &req.encode_payload()).frame);
        let Response::Analyze(full) = full else {
            panic!("expected analyze response, got {full:?}");
        };
        assert_eq!(full.loops.len(), 1);

        // Probe by the fingerprint the full analysis reported.
        let probe = Request::Analyze(AnalyzeRequest {
            id: 2,
            fingerprint: Some(full.loops[0].fingerprint),
            problems: None,
            distance_bound: None,
            source: None,
        });
        let hit =
            decode_response_frame(&binary_sync(&svc, probe.tag(), &probe.encode_payload()).frame);
        let Response::Analyze(hit) = hit else {
            panic!("expected analyze response, got {hit:?}");
        };
        assert_eq!(hit.cache_hits, 1);
        assert_eq!(
            hit.loops[0].report, full.loops[0].report,
            "report bytes moved"
        );
        assert_eq!(svc.engine().stats().fingerprint_fast_hits, 1);
    }

    #[test]
    fn unknown_fingerprint_without_source_is_an_analysis_error() {
        let svc = svc();
        let probe = Request::Analyze(AnalyzeRequest {
            id: 3,
            fingerprint: Some([7; 16]),
            problems: None,
            distance_bound: None,
            source: None,
        });
        let resp =
            decode_response_frame(&binary_sync(&svc, probe.tag(), &probe.encode_payload()).frame);
        let Response::Err { id, kind, .. } = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(id, 3);
        assert_eq!(kind_from_byte(kind), Some(ErrorKind::Analysis));
        assert_eq!(svc.engine().stats().fingerprint_misses, 1);
    }

    #[test]
    fn custom_by_source_then_fingerprint_hit_is_byte_identical() {
        let svc = svc();
        // Live elements — gen uses, kill defs, backward, may — has no
        // canned equivalent, so this exercises the true custom path.
        let spec = 0b11_0110;
        let req = Request::Custom(CustomRequest {
            id: 1,
            spec,
            fingerprint: None,
            distance_bound: None,
            source: Some(SRC.as_bytes().to_vec()),
        });
        let full =
            decode_response_frame(&binary_sync(&svc, req.tag(), &req.encode_payload()).frame);
        let Response::Analyze(full) = full else {
            panic!("expected analyze response, got {full:?}");
        };
        assert_eq!(full.loops.len(), 1);

        let probe = Request::Custom(CustomRequest {
            id: 2,
            spec,
            fingerprint: Some(full.loops[0].fingerprint),
            distance_bound: None,
            source: None,
        });
        let hit =
            decode_response_frame(&binary_sync(&svc, probe.tag(), &probe.encode_payload()).frame);
        let Response::Analyze(hit) = hit else {
            panic!("expected analyze response, got {hit:?}");
        };
        assert_eq!(hit.cache_hits, 1);
        assert_eq!(
            hit.loops[0].report, full.loops[0].report,
            "custom report bytes moved"
        );

        // A different spec over the same fingerprint is a distinct cache
        // entry — it must miss, not serve the wrong problem's answer.
        let other = Request::Custom(CustomRequest {
            id: 3,
            spec: 0b01_0110,
            fingerprint: Some(full.loops[0].fingerprint),
            distance_bound: None,
            source: None,
        });
        let miss =
            decode_response_frame(&binary_sync(&svc, other.tag(), &other.encode_payload()).frame);
        let Response::Err { kind, .. } = miss else {
            panic!("expected a miss error, got {miss:?}");
        };
        assert_eq!(kind_from_byte(kind), Some(ErrorKind::Analysis));
    }

    #[test]
    fn custom_delegates_canned_specs_to_the_shared_cache_entry() {
        let svc = svc();
        // gen defs + kill defs, forward, must — exactly must-reaching.
        let req = Request::Custom(CustomRequest {
            id: 1,
            spec: 0b00_0101,
            fingerprint: None,
            distance_bound: None,
            source: Some(SRC.as_bytes().to_vec()),
        });
        let full =
            decode_response_frame(&binary_sync(&svc, req.tag(), &req.encode_payload()).frame);
        let Response::Analyze(full) = full else {
            panic!("expected analyze response, got {full:?}");
        };

        // The canned verb probing the reaching-only selection by
        // fingerprint must hit the entry the custom solve populated.
        let reaching_only = ProblemSet {
            reaching: true,
            ..ProblemSet::NONE
        };
        let probe = Request::Analyze(AnalyzeRequest {
            id: 2,
            fingerprint: Some(full.loops[0].fingerprint),
            problems: Some(reaching_only.bits()),
            distance_bound: None,
            source: None,
        });
        let hit =
            decode_response_frame(&binary_sync(&svc, probe.tag(), &probe.encode_payload()).frame);
        let Response::Analyze(hit) = hit else {
            panic!("expected analyze response, got {hit:?}");
        };
        assert_eq!(hit.cache_hits, 1);
        assert_eq!(
            hit.loops[0].report, full.loops[0].report,
            "delegated custom report must be byte-identical to the canned one"
        );
    }

    #[test]
    fn bad_custom_spec_or_distance_is_a_protocol_error() {
        let svc = svc();
        // An empty-G spec byte is rejected by the wire decoder before the
        // service sees a request — tampering with the encoded payload
        // exercises that path end to end.
        let good = Request::Custom(CustomRequest {
            id: 1,
            spec: 0b00_0101,
            fingerprint: None,
            distance_bound: None,
            source: Some(SRC.as_bytes().to_vec()),
        });
        let mut payload = good.encode_payload();
        payload[1] = 0; // the spec byte sits right after the 1-byte id
        let resp = decode_response_frame(&binary_sync(&svc, good.tag(), &payload).frame);
        let Response::Err { kind, .. } = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(kind_from_byte(kind), Some(ErrorKind::Protocol));

        // An absurd distance bound passes framing but fails validation.
        let req = Request::Custom(CustomRequest {
            id: 2,
            spec: 0b00_0101,
            fingerprint: None,
            distance_bound: Some(CustomSpec::MAX_DISTANCE_BOUND + 1),
            source: Some(SRC.as_bytes().to_vec()),
        });
        let resp =
            decode_response_frame(&binary_sync(&svc, req.tag(), &req.encode_payload()).frame);
        let Response::Err { id, kind, .. } = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(id, 2);
        assert_eq!(kind_from_byte(kind), Some(ErrorKind::Protocol));
    }

    #[test]
    fn oversized_counts_in_its_own_counter_not_latency() {
        let svc = svc();
        let before = svc.stats();
        let out = svc.oversized_binary_response(1 << 30);
        let resp = decode_response_frame(&out.frame);
        assert!(matches!(resp, Response::Err { .. }));
        let after = svc.stats();
        assert_eq!(after.oversized_frames, before.oversized_frames + 1);
        assert_eq!(after.requests, before.requests);
        assert_eq!(after.latency, before.latency);
        // The taxonomy counter is also untouched: oversized is not a
        // "response by outcome", it is a discarded frame.
        assert_eq!(after.protocol_errors, before.protocol_errors);
    }

    #[test]
    fn health_reports_node_identity() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            node_id: Some("n1".into()),
            ..Default::default()
        })
        .unwrap();
        let req = Request::Health { id: 4 };
        let out = binary_sync(&svc, req.tag(), &req.encode_payload());
        let resp = decode_response_frame(&out.frame);
        let Response::Text { id, text } = resp else {
            panic!("expected text response, got {resp:?}");
        };
        assert_eq!(id, 4);
        assert!(text.contains(r#""status":"ok""#), "{text}");
        assert!(text.contains(r#""node":"n1""#), "{text}");
        assert!(text.contains(r#""shutting_down":false"#), "{text}");
    }

    #[test]
    fn replicate_without_store_is_a_protocol_error() {
        let svc = svc();
        let req = Request::Replicate {
            id: 5,
            batch: Vec::new(),
        };
        let out = binary_sync(&svc, req.tag(), &req.encode_payload());
        let resp = decode_response_frame(&out.frame);
        let Response::Err { id, kind, message } = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(id, 5);
        assert_eq!(kind_from_byte(kind), Some(ErrorKind::Protocol));
        assert!(message.contains("no store configured"), "{message}");
    }

    #[test]
    fn replicate_applies_batch_and_warms_fingerprint_path() {
        use arrayflow_store::{Store, StoreConfig};

        let src_dir = std::env::temp_dir().join(format!("afbin-repl-src-{}", std::process::id()));
        let dst_dir = std::env::temp_dir().join(format!("afbin-repl-dst-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&src_dir);
        let _ = std::fs::remove_dir_all(&dst_dir);

        // Build a donor store by running a real analysis through a
        // store-backed service, then export its live set.
        let donor = Service::start(ServiceConfig {
            workers: 1,
            store: Some(StoreConfig::at(&src_dir)),
            ..Default::default()
        })
        .unwrap();
        let req = Request::Analyze(AnalyzeRequest {
            id: 1,
            fingerprint: None,
            problems: None,
            distance_bound: None,
            source: Some(SRC.as_bytes().to_vec()),
        });
        let full =
            decode_response_frame(&binary_sync(&donor, req.tag(), &req.encode_payload()).frame);
        let Response::Analyze(full) = full else {
            panic!("expected analyze response, got {full:?}");
        };
        let fp_bytes = full.loops[0].fingerprint;
        donor.shutdown();
        donor.join_workers();
        let batch = Store::open(StoreConfig::at(&src_dir))
            .unwrap()
            .export_live();
        assert!(!batch.is_empty());

        // A fresh replica node ingests the batch over the wire verb …
        let replica = Service::start(ServiceConfig {
            workers: 1,
            store: Some(StoreConfig::at(&dst_dir)),
            ..Default::default()
        })
        .unwrap();
        let req = Request::Replicate { id: 2, batch };
        let out = binary_sync(&replica, req.tag(), &req.encode_payload());
        let resp = decode_response_frame(&out.frame);
        let Response::Text { id, text } = resp else {
            panic!("expected text response, got {resp:?}");
        };
        assert_eq!(id, 2);
        assert!(text.contains(r#""applied":1"#), "{text}");

        // … and then answers the fingerprint probe from the replicated
        // store without any source — the warm-failover contract.
        let probe = Request::Analyze(AnalyzeRequest {
            id: 3,
            fingerprint: Some(fp_bytes),
            problems: None,
            distance_bound: None,
            source: None,
        });
        let hit = decode_response_frame(
            &binary_sync(&replica, probe.tag(), &probe.encode_payload()).frame,
        );
        let Response::Analyze(hit) = hit else {
            panic!("expected analyze response, got {hit:?}");
        };
        assert_eq!(hit.cache_hits, 1);
        assert_eq!(hit.loops[0].report, full.loops[0].report);

        replica.shutdown();
        replica.join_workers();
        let _ = std::fs::remove_dir_all(&src_dir);
        let _ = std::fs::remove_dir_all(&dst_dir);
    }

    #[test]
    fn kind_bytes_round_trip() {
        for kind in [
            ErrorKind::Parse,
            ErrorKind::Analysis,
            ErrorKind::Timeout,
            ErrorKind::Overloaded,
            ErrorKind::Protocol,
            ErrorKind::SessionLost,
            ErrorKind::Cancelled,
        ] {
            assert_eq!(kind_from_byte(kind_byte(kind)), Some(kind));
        }
        assert_eq!(kind_from_byte(200), None);
    }

    fn decode_response_frame(frame: &[u8]) -> Response {
        let mut d = arrayflow_wire::FrameDecoder::new(usize::MAX);
        d.extend(frame);
        match d.next().unwrap().unwrap() {
            arrayflow_wire::FrameEvent::Frame { tag, payload } => {
                Response::decode(tag, &payload).unwrap()
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
