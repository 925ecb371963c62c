//! `cold_solve`: one caller thread analyzes distinct seeded loops, given
//! as DSL source, through `Engine::analyze_with` with all four instances.
//! Every op is a cache miss and a cache insert: the compiler's
//! compile-time cost, with no service stack in the way.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use arrayflow_analyses::{build_spec, enumerate_sites, Instance, LoopAnalysis, GK};
use arrayflow_core::{solve, solve_worklist, Direction, FlowTable, Mode};
use arrayflow_engine::{
    passes_to_fix, AnalysisReport, BatchResult, CacheKey, Engine, EngineConfig, MemoCache,
    ProblemSet,
};
use arrayflow_graph::build_loop_graph;
use arrayflow_ir::pretty::print_program;
use arrayflow_ir::{fingerprint_loop, normalize, parse_program, Fingerprint, Program};
use arrayflow_store::codec::encode_report;
use arrayflow_workloads::{random_loop, LoopShape, Prng};

use crate::measure::{fnv64, peak_rss_mb, shuffle, Block, Tracer};
use crate::report::{Counts, Pass};

/// Loop sizes in statements and their share of the ops, in percent.
const SIZE_MIX: [(usize, usize); 4] = [(16, 40), (32, 30), (64, 20), (128, 10)];
/// Dependence distance bound of every query (the engine default).
const DEP_MAX: u64 = 8;
/// The four framework instances, in the order `LoopAnalysis::of_loop` runs
/// them, with the pass bound the paper proves for each.
const INSTANCES: [(GK, Direction, Mode); 4] = [
    (GK::REACHING_DEFS, Direction::Forward, Mode::Must),
    (GK::AVAILABLE, Direction::Forward, Mode::Must),
    (GK::BUSY_STORES, Direction::Backward, Mode::Must),
    (GK::REACHING_REFS, Direction::Forward, Mode::May),
];

pub fn shape(stmts: usize) -> LoopShape {
    LoopShape {
        stmts,
        arrays: 4,
        ..LoopShape::default()
    }
}

/// Canonical fingerprint of a single-loop program, as the engine keys it.
pub fn fingerprint_of(program: &Program) -> Fingerprint {
    let mut p = program.clone();
    normalize(&mut p);
    p.renumber();
    fingerprint_loop(
        p.sole_loop().expect("generated programs are one loop"),
        &p.symbols,
    )
}

/// Ops per block of the timed phase; each block holds the exact size mix.
const BLOCK_OPS: usize = 40;
/// Engines built per `setup_s` sample: one construction takes
/// microseconds, so a sample times a batch.
const ENGINES_PER_SAMPLE: usize = 100;

/// Draws `count` loops (a multiple of 10) with exactly the size mix
/// above, in seeded order, skipping any whose fingerprint is already in
/// `seen`.
fn draw(rng: &mut Prng, count: usize, seen: &mut HashSet<Fingerprint>) -> Vec<(usize, String)> {
    let mut classes: Vec<usize> = Vec::with_capacity(count);
    for (class, &(_, pct)) in SIZE_MIX.iter().enumerate() {
        classes.extend(std::iter::repeat_n(class, count * pct / 100));
    }
    shuffle(&mut classes, rng);
    classes
        .into_iter()
        .map(|class| loop {
            let program = random_loop(&shape(SIZE_MIX[class].0), rng.next_u64());
            if seen.insert(fingerprint_of(&program)) {
                break (class, print_program(&program));
            }
        })
        .collect()
}

/// What the reference path computes for one loop.
struct Reference {
    /// Hash of the store-codec bytes of the report built from
    /// `solve_worklist` solutions.
    report_hash: u64,
    /// Flow-table cells: nodes × columns, summed over the instances.
    flow_cells: u64,
}

/// The reference for one source, outside the layers under measurement:
/// the pass-emulating worklist solver instead of the round-robin `solve`
/// the engine runs, distilled into the same report.
fn reference(src: &str) -> Reference {
    let mut p = parse_program(src).expect("generated source parses");
    normalize(&mut p);
    p.renumber();
    let l = p.sole_loop().expect("one loop");
    let fingerprint = fingerprint_loop(l, &p.symbols);
    let graph = build_loop_graph(l);
    let (sites, lin) = enumerate_sites(l, &graph, &p.symbols);
    let mut flow_cells = 0u64;
    let mut instances = INSTANCES.iter().map(|&(gk, direction, mode)| {
        let built = build_spec(&sites, gk, direction, mode);
        flow_cells += (graph.len() * built.spec.width()) as u64;
        let sol = solve_worklist(&graph, &built.spec).solution;
        Instance { gk, built, sol }
    });
    let (reaching, available, busy, reaching_refs) = (
        instances.next().expect("four instances"),
        instances.next().expect("four instances"),
        instances.next().expect("four instances"),
        instances.next().expect("four instances"),
    );
    drop(instances);
    let analysis = LoopAnalysis {
        symbols: lin.symbols,
        graph,
        sites,
        reaching,
        available,
        busy,
        reaching_refs,
    };
    let report = AnalysisReport::of_analysis(fingerprint, &analysis, ProblemSet::ALL, DEP_MAX);
    Reference {
        report_hash: fnv64(&encode_report(&report)),
        flow_cells,
    }
}

/// True when every instance reached its fixed point within the paper's
/// bound: 3 passes for must-problems, 2 for the may-problem.
pub fn within_pass_bound(report: &AnalysisReport) -> bool {
    report.instance_stats().all(|(name, s)| {
        let bound = if name == "reaching_refs" { 2 } else { 3 };
        passes_to_fix(&s) <= bound
    })
}

pub struct Inputs {
    /// Size class and DSL source of each timed op.
    ops: Vec<(usize, String)>,
    refs: Vec<Reference>,
    /// Warm-up loops: a disjoint seed stream, never timed.
    warm: Vec<String>,
}

impl Inputs {
    pub fn new(seed: u64, ops: usize) -> Inputs {
        let mut seen = HashSet::new();
        let mut rng = Prng::seed_from_u64(seed);
        let timed: Vec<(usize, String)> = (0..ops.div_ceil(BLOCK_OPS))
            .flat_map(|_| draw(&mut rng, BLOCK_OPS, &mut seen))
            .collect();
        let mut warm_rng = Prng::seed_from_u64(seed ^ 0x5741_524d_5550_0001);
        let warm = draw(&mut warm_rng, 2 * BLOCK_OPS, &mut seen)
            .into_iter()
            .map(|(_, src)| src)
            .collect();
        // The references cost about as much as the timed ops; two threads
        // halve the wait without ever exceeding the host's two cores.
        let half = timed.len().div_ceil(2);
        let refs = std::thread::scope(|s| {
            let parts: Vec<_> = timed
                .chunks(half.max(1))
                .map(|chunk| {
                    s.spawn(move || {
                        chunk
                            .iter()
                            .map(|(_, src)| reference(src))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            parts
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread"))
                .collect()
        });
        Inputs {
            ops: timed,
            refs,
            warm,
        }
    }
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    }
}

/// Checks one op's report against its reference and the pass bound.
fn matches(report: &AnalysisReport, reference: &Reference) -> bool {
    within_pass_bound(report) && fnv64(&encode_report(report)) == reference.report_hash
}

pub fn run(inputs: &Inputs, traced: bool, setup_repeats: usize) -> Pass {
    // Warm-up on a throwaway engine, so the timed ops stay misses.
    {
        let scratch = Engine::new(engine_config());
        for src in &inputs.warm {
            let p = parse_program(src).expect("generated source parses");
            std::hint::black_box(scratch.analyze_with(0, &p, ProblemSet::ALL, DEP_MAX));
        }
    }

    let n = inputs.ops.len();
    let engine = Engine::new(engine_config());
    let mut setup_s = Vec::new();
    let mut lat_ms = Vec::with_capacity(n);
    let mut reports: Vec<Option<Arc<AnalysisReport>>> = Vec::with_capacity(n);
    let mut counts = Counts::default();
    let mut tracer = traced.then(|| Tracer::new(Instant::now()));
    let cache = MemoCache::new(16, 65_536);
    let n_blocks = n / BLOCK_OPS;
    let mut blocks = Vec::with_capacity(n_blocks);

    // The timed phase runs in `sections` parts of whole blocks. Before
    // each, off the clock, one set-up sample times a batch of engine
    // constructions, so the samples spread over the run instead of resting
    // on the host's speed at its start.
    let sections = setup_repeats.max(1);
    for section in 0..sections {
        let t = Instant::now();
        let batch: Vec<Engine> = (0..ENGINES_PER_SAMPLE)
            .map(|_| Engine::new(engine_config()))
            .collect();
        setup_s.push(t.elapsed().as_secs_f64() / ENGINES_PER_SAMPLE as f64);
        drop(batch);

        for b in section * n_blocks / sections..(section + 1) * n_blocks / sections {
            blocks.push(Block::time(BLOCK_OPS, || {
                for i in b * BLOCK_OPS..(b + 1) * BLOCK_OPS {
                    let src = &inputs.ops[i].1;
                    let t = Instant::now();
                    let report = match tracer.as_mut() {
                        None => {
                            let p = parse_program(src).expect("generated source parses");
                            let r: BatchResult =
                                engine.analyze_with(i, &p, ProblemSet::ALL, DEP_MAX);
                            counts.solves += r.stats.cache_misses;
                            counts.hits += r.stats.cache_hits;
                            counts.lookups += r.stats.cache_hits + r.stats.cache_misses;
                            match (r.error, r.loops.as_slice()) {
                                (None, [one]) => Some(Arc::clone(&one.report)),
                                _ => None,
                            }
                        }
                        Some(tr) => {
                            let (report, hit) =
                                tr.span("op", i as u32, |tr| traced_op(tr, i as u32, src, &cache));
                            counts.solves += !hit as u64;
                            counts.hits += hit as u64;
                            counts.lookups += 1;
                            Some(report)
                        }
                    };
                    lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    reports.push(report);
                }
            }));
        }
    }

    let mut ok = 0;
    for (report, reference) in reports.iter().zip(&inputs.refs) {
        if let Some(r) = report {
            counts.node_visits += r.node_visits() as u64;
            counts.passes += r.solver_passes() as u64;
            ok += matches(r, reference) as usize;
        }
        counts.flow_cells += reference.flow_cells;
    }

    let mut layers_us = BTreeMap::new();
    let mut shares = Vec::new();
    let mix = SIZE_MIX
        .iter()
        .enumerate()
        .map(|(class, &(stmts, _))| {
            let k = inputs.ops.iter().filter(|(c, _)| *c == class).count();
            format!("{stmts} stmts {:.1}%", 100.0 * k as f64 / n as f64)
        })
        .collect::<Vec<_>>()
        .join(", ");
    shares.push(format!("size classes: {mix}"));
    if let Some(tr) = &tracer {
        let by_name = tr.self_us_by_name();
        let get = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
        for (span, metric) in [
            ("ir.parse", "ir.parse_us"),
            ("ir.normalize", "ir.normalize_us"),
            ("ir.fingerprint", "ir.fingerprint_us"),
            ("graph.build", "graph.build_us"),
            ("analyses.sites", "analyses.sites_us"),
            ("analyses.spec", "analyses.spec_us"),
            ("core.flow_table", "core.flow_table_us"),
            ("engine.report", "engine.report_us"),
            ("engine.cache_get", "engine.cache_get_us"),
            ("engine.cache_insert", "engine.cache_insert_us"),
        ] {
            layers_us.insert(metric, get(span));
        }
        // `solve` builds its own flow table; the sweep is the rest.
        layers_us.insert("core.sweep_us", get("core.solve") - get("core.flow_table"));
        // The traced op time holds the extra table build once more.
        let engine_path = lat_ms.iter().sum::<f64>() * 1e3 - get("core.flow_table");
        shares.push(format!(
            "core.flow_table_us: {:.1}% of traced op time, less the extra build",
            100.0 * get("core.flow_table") / engine_path
        ));
    } else {
        shares.push("core.flow_table_us: measured by the traced run".into());
    }

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
        tracer: tracer.take(),
    }
}

/// The engine's miss path, replayed through each layer's public function
/// with a span around every call. The flow table is built once more on
/// its own so its time can be split from the sweep inside `solve`: the
/// sweep is `solve` minus that build.
fn traced_op(
    tr: &mut Tracer,
    op: u32,
    src: &str,
    cache: &MemoCache,
) -> (Arc<AnalysisReport>, bool) {
    let mut p = tr.span("ir.parse", op, |_| {
        parse_program(src).expect("generated source parses")
    });
    tr.span("ir.normalize", op, |_| {
        normalize(&mut p);
        p.renumber();
    });
    let l = p.sole_loop().expect("one loop");
    let fingerprint = tr.span("ir.fingerprint", op, |_| fingerprint_loop(l, &p.symbols));
    let key = CacheKey {
        fingerprint,
        problems: ProblemSet::ALL,
        dep_max_distance: DEP_MAX,
        custom: None,
    };
    if let Some(hit) = tr.span("engine.cache_get", op, |_| cache.get(&key)) {
        return (hit, true);
    }
    // `AnalysisReport::of_loop` fingerprints the loop a second time.
    let fingerprint = tr.span("ir.fingerprint", op, |_| fingerprint_loop(l, &p.symbols));
    let graph = tr.span("graph.build", op, |_| build_loop_graph(l));
    let (sites, lin) = tr.span("analyses.sites", op, |_| {
        enumerate_sites(l, &graph, &p.symbols)
    });
    let run = |tr: &mut Tracer, (gk, direction, mode): (GK, Direction, Mode)| {
        let built = tr.span("analyses.spec", op, |_| {
            build_spec(&sites, gk, direction, mode)
        });
        // `solve` first, so it runs on caches as cold as the engine's;
        // the extra table build after it only splits that time.
        let sol = tr.span("core.solve", op, |_| solve(&graph, &built.spec));
        std::hint::black_box(tr.span("core.flow_table", op, |_| {
            FlowTable::build(&graph, &built.spec)
        }));
        Instance { gk, built, sol }
    };
    let reaching = run(tr, INSTANCES[0]);
    let available = run(tr, INSTANCES[1]);
    let busy = run(tr, INSTANCES[2]);
    let reaching_refs = run(tr, INSTANCES[3]);
    let analysis = LoopAnalysis {
        symbols: lin.symbols,
        graph,
        sites,
        reaching,
        available,
        busy,
        reaching_refs,
    };
    let report = tr.span("engine.report", op, |_| {
        Arc::new(AnalysisReport::of_analysis(
            fingerprint,
            &analysis,
            ProblemSet::ALL,
            DEP_MAX,
        ))
    });
    tr.span("engine.cache_insert", op, |_| {
        cache.insert(key, Arc::clone(&report))
    });
    (report, false)
}
