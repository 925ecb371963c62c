//! `edit_session`: one caller thread keeps four analysis sessions open on
//! 64-statement loops and applies a seeded chain of single-statement
//! edits to them, round-robin, through `Engine::analyze_delta`. Only the
//! columns an edit dirties are re-solved, and session state is written
//! where `cold_solve` writes the cache.
//!
//! Delta cost varies by about a quarter from one 64-statement loop to the
//! next, so four loops alone would make the figures depend on the seed.
//! The run therefore rotates: after each round the four sessions are
//! closed and four fresh loops opened, with the clock stopped, until
//! `ROUNDS × SESSIONS` loops have been edited. Each round's opens are one
//! `setup_s` sample.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use arrayflow_engine::{AnalysisReport, CacheKey, Engine, EngineConfig, MemoCache, ProblemSet};
use arrayflow_incremental::Session;
use arrayflow_ir::{apply_edit, Edit, Program};
use arrayflow_store::codec::encode_report;
use arrayflow_workloads::{random_edits, random_loop, Prng};

use crate::cold::{shape, within_pass_bound};
use crate::measure::{fnv64, peak_rss_mb, Block, Tracer};
use crate::report::{Counts, Pass};

/// Sessions held open at once.
const SESSIONS: usize = 4;
/// Rounds of four sessions per run.
const ROUNDS: usize = 32;
/// Blocks of the timed phase per round; each block applies the same
/// number of edits to each of the round's sessions.
const BLOCKS_PER_ROUND: usize = 2;
/// Statements per session loop.
const STMTS: usize = 64;
/// Dependence distance bound of session reports (the engine default).
const DEP_MAX: u64 = 8;

/// One session's base program and its edit chain.
struct Chain {
    base: Program,
    edits: Vec<Edit>,
    /// Hash of the store-codec bytes of a fresh `Engine::analyze_one`
    /// report of the source after each edit.
    refs: Vec<u64>,
}

fn chain(seed: u64, edits: usize) -> Chain {
    let mut base = random_loop(&shape(STMTS), seed);
    base.renumber();
    let edits = random_edits(&base, &shape(STMTS), edits, seed.rotate_left(17));
    Chain {
        base,
        edits,
        refs: Vec::new(),
    }
}

/// The reference for a chain: each edit applied to a plain copy of the
/// source and analyzed from scratch by a fresh engine, no session
/// involved.
fn with_references(mut c: Chain) -> Chain {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let mut program = c.base.clone();
    c.refs = c
        .edits
        .iter()
        .map(|edit| {
            apply_edit(&mut program, edit).expect("generated edits apply");
            let r = engine.analyze_one(0, &program);
            assert!(
                r.error.is_none(),
                "reference analysis failed: {:?}",
                r.error
            );
            fnv64(&encode_report(&r.loops[0].report))
        })
        .collect();
    c
}

pub struct Inputs {
    chains: Vec<Chain>,
    /// One throwaway chain for the untimed warm-up.
    warm: Chain,
    ops: usize,
    /// Edits per chain.
    per: usize,
}

impl Inputs {
    pub fn new(seed: u64, ops: usize) -> Inputs {
        let loops = SESSIONS * ROUNDS;
        let per = ops.div_ceil(loops * BLOCKS_PER_ROUND) * BLOCKS_PER_ROUND;
        let mut rng = Prng::seed_from_u64(seed);
        let chains: Vec<Chain> = (0..loops).map(|_| chain(rng.next_u64(), per)).collect();
        // Two reference threads, half the chains each.
        let chains = std::thread::scope(|s| {
            let mut it = chains.into_iter();
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let mine: Vec<Chain> = it.by_ref().take(loops / 2).collect();
                    s.spawn(move || mine.into_iter().map(with_references).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread"))
                .collect()
        });
        let warm = chain(seed ^ 0x5741_524d_5550_0002, 40);
        Inputs {
            chains,
            warm,
            ops: per * loops,
            per,
        }
    }

    /// The chain and edit index of op `i`: round `r` edits chains
    /// `4r..4r+4` round-robin.
    fn op(&self, i: usize) -> (usize, usize) {
        let per_round = self.per * SESSIONS;
        let (round, k) = (i / per_round, i % per_round);
        (round * SESSIONS + k % SESSIONS, k / SESSIONS)
    }

    fn round(&self, r: usize) -> &[Chain] {
        &self.chains[r * SESSIONS..(r + 1) * SESSIONS]
    }
}

fn open_all(engine: &Engine, chains: &[Chain]) -> Vec<u64> {
    chains
        .iter()
        .map(|c| engine.open_session(&c.base).expect("session opens").0)
        .collect()
}

/// A delta's report with its dirty and total column counts and whether
/// it fell back to a full re-analysis.
type DeltaOut = Option<(Arc<AnalysisReport>, usize, usize, bool)>;

/// How a pass drives its four open sessions.
enum Editor {
    /// Untraced: the engine's session API, as a caller uses it.
    Engine { engine: Box<Engine>, ids: Vec<u64> },
    /// Traced: the incremental layer's own sessions, with the engine's
    /// report and memoization steps replayed around each delta.
    Traced {
        tr: Tracer,
        sessions: Vec<Session>,
        cache: MemoCache,
        opens: u32,
    },
}

impl Editor {
    fn new(traced: bool) -> Editor {
        if traced {
            Editor::Traced {
                tr: Tracer::new(Instant::now()),
                sessions: Vec::new(),
                cache: MemoCache::new(16, 65_536),
                opens: 0,
            }
        } else {
            Editor::Engine {
                engine: Box::new(Engine::new(EngineConfig {
                    workers: 1,
                    ..EngineConfig::default()
                })),
                ids: Vec::new(),
            }
        }
    }

    /// Closes the open sessions and opens one per chain. Open spans get
    /// op ids above `ops` so they never mix with a delta's.
    fn open(&mut self, chains: &[Chain], ops: usize) {
        match self {
            Editor::Engine { engine, ids } => {
                for id in ids.drain(..) {
                    engine.close_session(id);
                }
                *ids = open_all(engine, chains);
            }
            Editor::Traced {
                tr,
                sessions,
                opens,
                ..
            } => {
                *sessions = chains
                    .iter()
                    .map(|c| {
                        *opens += 1;
                        tr.span("incremental.open", ops as u32 + *opens, |_| {
                            Session::open(c.base.clone()).expect("session opens")
                        })
                    })
                    .collect();
            }
        }
    }

    fn delta(&mut self, op: u32, slot: usize, edit: &Edit) -> DeltaOut {
        match self {
            Editor::Engine { engine, ids } => engine
                .analyze_delta(ids[slot], edit)
                .ok()
                .map(|d| (d.report, d.dirty_columns, d.total_columns, d.fallback)),
            Editor::Traced {
                tr,
                sessions,
                cache,
                ..
            } => {
                let session = &mut sessions[slot];
                tr.span("op", op, |tr| {
                    let outcome = tr
                        .span("incremental.delta", op, |_| session.apply(edit))
                        .ok()?;
                    let report = tr.span("engine.report", op, |_| {
                        Arc::new(AnalysisReport::of_analysis(
                            session.fingerprint(),
                            session.analysis(),
                            ProblemSet::ALL,
                            DEP_MAX,
                        ))
                    });
                    let key = CacheKey {
                        fingerprint: report.fingerprint,
                        problems: ProblemSet::ALL,
                        dep_max_distance: DEP_MAX,
                        custom: None,
                    };
                    tr.span("engine.cache_insert", op, |_| {
                        cache.insert(key, Arc::clone(&report))
                    });
                    Some((
                        report,
                        outcome.dirty_columns,
                        outcome.total_columns,
                        outcome.fallback,
                    ))
                })
            }
        }
    }
}

pub fn run(inputs: &Inputs, traced: bool) -> Pass {
    // Untimed warm-up on a throwaway engine and session.
    {
        let mut scratch = Editor::new(false);
        scratch.open(std::slice::from_ref(&inputs.warm), 0);
        for edit in &inputs.warm.edits {
            std::hint::black_box(scratch.delta(0, 0, edit).expect("warm-up delta"));
        }
    }

    let n = inputs.ops;
    let per_round = n / ROUNDS;
    let mut setup_s = Vec::with_capacity(ROUNDS);
    let mut lat_ms = Vec::with_capacity(n);
    let mut results: Vec<DeltaOut> = Vec::with_capacity(n);
    let mut blocks = Vec::with_capacity(ROUNDS * BLOCKS_PER_ROUND);
    let per_block = per_round / BLOCKS_PER_ROUND;
    let mut editor: Option<Editor> = None;
    for round in 0..ROUNDS {
        // Set-up, off the clock: the first round builds the engine, and
        // every round closes the last round's sessions and opens its own.
        let t = Instant::now();
        let ed = editor.get_or_insert_with(|| Editor::new(traced));
        ed.open(inputs.round(round), n);
        setup_s.push(t.elapsed().as_secs_f64());

        for block in 0..BLOCKS_PER_ROUND {
            let first = round * per_round + block * per_block;
            blocks.push(Block::time(per_block, || {
                for i in first..first + per_block {
                    let (c, e) = inputs.op(i);
                    let t = Instant::now();
                    let out = ed.delta(i as u32, c % SESSIONS, &inputs.chains[c].edits[e]);
                    lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    results.push(out);
                }
            }));
        }
    }
    let editor = editor.expect("at least one round");

    let mut layers_us = BTreeMap::new();
    let tracer = match editor {
        Editor::Traced { tr, opens, .. } => {
            let by_name = tr.self_us_by_name();
            let get = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
            layers_us.insert("incremental.delta_us", get("incremental.delta"));
            layers_us.insert("engine.report_us", get("engine.report"));
            layers_us.insert("engine.cache_insert_us", get("engine.cache_insert"));
            // Per session open, not per op.
            layers_us.insert(
                "incremental.open_us",
                get("incremental.open") / opens as f64,
            );
            Some(tr)
        }
        Editor::Engine { .. } => None,
    };

    let mut counts = Counts::default();
    let mut ok = 0;
    for (i, r) in results.iter().enumerate() {
        let (s, e) = inputs.op(i);
        let Some((report, dirty, total, fallback)) = r else {
            continue;
        };
        counts.deltas += 1;
        counts.dirty_columns += *dirty as u64;
        counts.total_columns += *total as u64;
        counts.fallbacks += *fallback as u64;
        counts.flow_cells += (report.nodes * total) as u64;
        counts.node_visits += report.node_visits() as u64;
        counts.passes += report.solver_passes() as u64;
        let expected = inputs.chains[s].refs[e];
        ok += (within_pass_bound(report) && fnv64(&encode_report(report)) == expected) as usize;
    }
    let shares = vec![
        format!(
            "dirty columns {:.2}% of {} columns re-solvable",
            100.0 * counts.dirty_columns as f64 / counts.total_columns.max(1) as f64,
            counts.total_columns
        ),
        format!(
            "fallbacks {:.2}% of {} deltas",
            100.0 * counts.fallbacks as f64 / counts.deltas.max(1) as f64,
            counts.deltas
        ),
    ];
    Pass {
        ops: n,
        ok,
        blocks,
        lat_ms,
        setup_s,
        peak_rss_mb: peak_rss_mb(),
        counts,
        layers_us,
        shares,
        tracer,
    }
}
