//! Single-flight memoization: a cold key is solved exactly once however
//! many callers race on it, a cancelled leader hands the solve to a
//! waiter without caching anything partial, and the engine's statistics
//! are the same for any worker count.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use arrayflow_engine::{Engine, EngineConfig, EngineStats};
use arrayflow_ir::{parse_program, Program};
use arrayflow_resilience::FaultSurface;

/// Stretches every solve so concurrent callers reliably arrive while the
/// first one is still solving.
#[derive(Debug)]
struct SlowSolve(Duration);

impl FaultSurface for SlowSolve {
    fn solve_latency(&self) -> Option<Duration> {
        Some(self.0)
    }
}

fn slow_engine(workers: usize, delay: Duration) -> Engine {
    let mut engine = Engine::new(EngineConfig {
        workers,
        ..EngineConfig::default()
    });
    engine.set_fault_surface(Arc::new(SlowSolve(delay)));
    engine
}

fn program(iv: &str, offset: u32) -> Program {
    parse_program(&format!(
        "do {iv} = 1, 60 A[{iv}+{offset}] := A[{iv}] + x; B[{iv}] := A[{iv}-1]; end"
    ))
    .unwrap()
}

/// Everything in [`EngineStats`] except wall-clock.
fn counts(s: EngineStats) -> EngineStats {
    EngineStats {
        busy_micros: 0,
        ..s
    }
}

#[test]
fn racing_callers_on_one_cold_key_solve_it_once() {
    const CALLERS: usize = 8;
    let engine = slow_engine(1, Duration::from_millis(40));
    let reference = Engine::new(EngineConfig::default()).analyze_one(0, &program("i", 2));
    let barrier = Barrier::new(CALLERS);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|k| {
                let (engine, barrier) = (&engine, &barrier);
                // Alpha-renamed copies: one canonical key.
                let p = program(&format!("v{k}"), 2);
                scope.spawn(move || {
                    barrier.wait();
                    engine.analyze_one(k, &p)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = engine.stats();
    assert_eq!(stats.cache.misses, 1, "{}", stats.cache);
    assert_eq!(stats.cache.hits, CALLERS as u64 - 1, "{}", stats.cache);
    assert_eq!((stats.cache.inserts, stats.cache.reinserts), (1, 0));
    assert_eq!(stats.solver_passes, reference.stats.solver_passes);
    assert_eq!(stats.node_visits, reference.stats.node_visits);
    let solved: u64 = results.iter().map(|r| r.stats.cache_misses).sum();
    assert_eq!(solved, 1);
    for r in &results {
        assert!(r.error.is_none(), "{:?}", r.error);
        assert!(Arc::ptr_eq(&r.loops[0].report, &results[0].loops[0].report));
        assert_eq!(
            r.loops[0].report.render(),
            reference.loops[0].report.render()
        );
    }
}

#[test]
fn stats_are_identical_for_one_two_and_four_workers() {
    // 24 programs over 4 canonical shapes, each shape alpha-renamed.
    let batch: Vec<Program> = (0..24)
        .map(|k| program(["i", "j", "k", "m", "n", "p"][k % 6], 1 + (k % 4) as u32))
        .collect();
    let run = |workers| {
        let engine = slow_engine(workers, Duration::from_millis(2));
        let rendered: Vec<String> = engine
            .analyze_batch(&batch)
            .iter()
            .map(|r| r.loops[0].report.render())
            .collect();
        (counts(engine.stats()), rendered)
    };
    let (one, reports) = run(1);
    assert_eq!(one.cache.misses, 4, "{}", one.cache);
    for workers in [2, 4] {
        let (stats, rendered) = run(workers);
        assert_eq!(stats, one, "{workers} workers");
        assert_eq!(rendered, reports, "{workers} workers");
    }
}

#[test]
fn a_cancelled_leader_hands_the_solve_to_a_waiter() {
    let engine = slow_engine(1, Duration::from_millis(150));
    let p = program("i", 3);
    let problems = engine.config().problems;
    let bound = engine.config().dep_max_distance;
    let (cancelled, finished) = std::thread::scope(|scope| {
        let leader = scope.spawn(|| {
            let stop = || true;
            engine.analyze_with_ctrl(0, &p, problems, bound, Some(&stop))
        });
        // Arrive while the leader is still in its (stretched) solve.
        std::thread::sleep(Duration::from_millis(50));
        let waiter = scope.spawn(|| engine.analyze_with(1, &p, problems, bound));
        (leader.join().unwrap(), waiter.join().unwrap())
    });

    assert!(
        cancelled
            .error
            .as_ref()
            .and_then(|e| e.wasted_passes())
            .is_some(),
        "{:?}",
        cancelled.error
    );
    assert!(cancelled.loops.is_empty());
    assert!(finished.error.is_none(), "{:?}", finished.error);
    assert_eq!(finished.stats.cache_misses, 1);
    let fresh = Engine::new(EngineConfig::default()).analyze_one(0, &p);
    assert_eq!(
        finished.loops[0].report.render(),
        fresh.loops[0].report.render()
    );
    // Only the waiter's complete solve was cached.
    let stats = engine.stats();
    assert_eq!((stats.cache.inserts, stats.cache.reinserts), (1, 0));
    assert_eq!(engine.cached_reports(), 1);
}
