//! What one pass of a workload produced, and how it becomes the
//! end-to-end metrics, the exact counts and the per-layer ledger.

use std::collections::BTreeMap;

use crate::measure::{median, percentile, Block, Tracer};

/// The highest of per-block costs: the cost of the slowest block.
///
/// On a shared virtual machine the CPU speed moves between levels up to
/// twice apart, in spells of seconds to minutes, and a run spends a share
/// in each that changes from run to run. The slowest block reads
/// the slowest level the run visits, which varies least between runs,
/// while a change to the program moves every block.
fn slowest(per_block: impl Iterator<Item = f64>) -> f64 {
    per_block.fold(f64::NEG_INFINITY, f64::max)
}

/// Every per-layer time metric, as self time per op in microseconds.
/// A layer a workload never enters reads 0.
pub const LAYER_US: [&str; 21] = [
    "ir.parse_us",
    "ir.normalize_us",
    "ir.fingerprint_us",
    "graph.build_us",
    "analyses.sites_us",
    "analyses.spec_us",
    "core.flow_table_us",
    "core.sweep_us",
    "engine.report_us",
    "engine.cache_insert_us",
    "engine.cache_get_us",
    "incremental.open_us",
    "incremental.delta_us",
    "service.decode_us",
    "service.encode_us",
    "service.handle_us",
    "service.queue_wait_us",
    "service.socket_us",
    "wire.frame_us",
    "router.forward_us",
    "router.ring_us",
];

/// Layer metrics that stay out of the closure sum. Session opens are
/// set-up, not part of an op. Queue wait is part of an op, but no span
/// measures it: `service.handle_us` comes from an in-process replay that
/// handles one request at a time, so the live servers' queue wait falls
/// into the `service.socket_us` remainder, and adding it again would
/// count it twice.
pub const OUTSIDE_LEDGER: [&str; 2] = ["incremental.open_us", "service.queue_wait_us"];

/// Exact work counts of one pass. Two passes over the same seed must
/// produce identical counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Flow-table cells (nodes × columns, summed over instances).
    pub flow_cells: u64,
    /// Solver node visits, from the reported instance statistics.
    pub node_visits: u64,
    /// Solver iteration passes, from the reported instance statistics.
    pub passes: u64,
    /// Engine cache misses that ran a full solve.
    pub solves: u64,
    /// Engine cache hits.
    pub hits: u64,
    /// Engine cache lookups (hits + misses).
    pub lookups: u64,
    /// Lattice columns re-solved by session deltas.
    pub dirty_columns: u64,
    /// Lattice columns the same deltas could have re-solved.
    pub total_columns: u64,
    /// Deltas that fell back to a full re-analysis.
    pub fallbacks: u64,
    /// Deltas applied.
    pub deltas: u64,
    /// Request plus response bytes on the client's socket.
    pub wire_bytes: u64,
    /// Client-side retries.
    pub retries: u64,
    /// Router failovers.
    pub failovers: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Counts {
    /// The counts as per-layer metrics, per op where the name says so.
    pub fn metrics(&self, ops: usize) -> Vec<(&'static str, f64, &'static str)> {
        let per_op = |n: u64| n as f64 / ops as f64;
        vec![
            ("core.flow_cells", per_op(self.flow_cells), "count"),
            ("core.node_visits", per_op(self.node_visits), "count"),
            ("core.passes", per_op(self.passes), "count"),
            ("engine.solves_per_op", per_op(self.solves), "count"),
            ("engine.hit_ratio", ratio(self.hits, self.lookups), "ratio"),
            (
                "incremental.dirty_column_ratio",
                ratio(self.dirty_columns, self.total_columns),
                "ratio",
            ),
            (
                "incremental.fallback_ratio",
                ratio(self.fallbacks, self.deltas),
                "ratio",
            ),
            ("wire.bytes_per_op", per_op(self.wire_bytes), "count"),
            ("client.retries", self.retries as f64, "count"),
            ("router.failovers", self.failovers as f64, "count"),
        ]
    }

    /// Names of the determinism-checked counts that differ between two
    /// passes over the same inputs.
    pub fn mismatches(a: &Counts, b: &Counts, ops: usize) -> Vec<&'static str> {
        const CHECKED: [&str; 7] = [
            "core.flow_cells",
            "core.node_visits",
            "core.passes",
            "engine.solves_per_op",
            "engine.hit_ratio",
            "incremental.dirty_column_ratio",
            "wire.bytes_per_op",
        ];
        a.metrics(ops)
            .into_iter()
            .zip(b.metrics(ops))
            .filter(|((name, x, _), (_, y, _))| CHECKED.contains(name) && x != y)
            .map(|((name, _, _), _)| name)
            .collect()
    }
}

/// One pass of a workload: set-up, untimed warm-up, timed phase, checks.
pub struct Pass {
    /// Timed ops attempted.
    pub ops: usize,
    /// Timed ops answered and equal to their reference.
    pub ok: usize,
    /// The timed phase, block by block, in op order.
    pub blocks: Vec<Block>,
    /// Per-op latency as the caller sees it, milliseconds.
    pub lat_ms: Vec<f64>,
    /// Duration of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Peak resident set of the process at the end of the pass.
    pub peak_rss_mb: f64,
    pub counts: Counts,
    /// Traced passes: total self time per layer metric, microseconds
    /// (divided by `ops` for the ledger; `incremental.open_us` is
    /// already per open).
    pub layers_us: BTreeMap<&'static str, f64>,
    /// Property shares of the inputs and of the work, one line each.
    pub shares: Vec<String>,
    /// Traced passes: the recorded spans.
    pub tracer: Option<Tracer>,
}

impl Pass {
    pub fn failed(&self) -> usize {
        self.ops - self.ok
    }

    /// Each block's median latency. Ops are numbered in block order, so
    /// block `b` is the next `blocks[b].ops` samples.
    fn block_p50s(&self) -> Vec<f64> {
        let mut rest = self.lat_ms.as_slice();
        self.blocks
            .iter()
            .map(|b| {
                let (mine, tail) = rest.split_at(b.ops);
                rest = tail;
                let mut v = mine.to_vec();
                v.sort_by(f64::total_cmp);
                percentile(&v, 50.0)
            })
            .collect()
    }

    /// Median latency: the highest of the blocks' medians.
    pub fn latency_p50(&self) -> f64 {
        slowest(self.block_p50s().into_iter())
    }

    /// 99th-percentile latency over every timed op: the tail is set by
    /// the slowest ops of the whole run, so it is not read per block.
    pub fn latency_p99(&self) -> f64 {
        let mut all = self.lat_ms.clone();
        all.sort_by(f64::total_cmp);
        percentile(&all, 99.0)
    }

    /// Ops per second of the slowest block.
    pub fn throughput(&self) -> f64 {
        1.0 / slowest(self.blocks.iter().map(|b| b.wall_s / b.ops as f64))
    }

    /// Process CPU milliseconds per op of the block that spent the most.
    pub fn cpu_ms_per_op(&self) -> f64 {
        slowest(self.blocks.iter().map(|b| 1e3 * b.cpu_s / b.ops as f64))
    }

    pub fn end_to_end(&self) -> Vec<(String, f64, &'static str)> {
        vec![
            ("throughput_ops_s".into(), self.throughput(), "ops/s"),
            ("latency_p50_ms".into(), self.latency_p50(), "ms"),
            ("latency_p99_ms".into(), self.latency_p99(), "ms"),
            ("cpu_ms_per_op".into(), self.cpu_ms_per_op(), "ms"),
            ("ok_ratio".into(), self.ok as f64 / self.ops as f64, "ratio"),
            ("setup_s".into(), median(&self.setup_s), "s"),
            ("peak_rss_mb".into(), self.peak_rss_mb, "MiB"),
        ]
    }

    /// Per-layer metrics that are not self times: the counts.
    pub fn per_layer_extras(&self) -> Vec<(String, f64, &'static str)> {
        self.counts
            .metrics(self.ops)
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect()
    }

    pub fn print_summary(&self, label: &str) {
        let wall_s: f64 = self.blocks.iter().map(|b| b.wall_s).sum();
        let cpu_s: f64 = self.blocks.iter().map(|b| b.cpu_s).sum();
        let mut all = self.lat_ms.clone();
        all.sort_by(f64::total_cmp);
        println!(
            "{label}: {} ops in {} blocks, {:.3} s; {} latency samples, {} beyond p99; ok {}/{}",
            self.ops,
            self.blocks.len(),
            wall_s,
            self.lat_ms.len(),
            self.lat_ms.len() - (0.99 * self.lat_ms.len() as f64).ceil() as usize,
            self.ok,
            self.ops
        );
        println!(
            "{label}: whole phase {:.2} ops/s, {:.4} ms CPU/op, p50 {:.4} ms; slowest block {:.2} ops/s, {:.4} ms CPU/op, p50 {:.4} ms; p99 {:.4} ms",
            self.ops as f64 / wall_s,
            1e3 * cpu_s / self.ops as f64,
            percentile(&all, 50.0),
            self.throughput(),
            self.cpu_ms_per_op(),
            self.latency_p50(),
            self.latency_p99()
        );
        let list = |v: Vec<f64>| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "{label}: ops/s by block: {}",
            list(
                self.blocks
                    .iter()
                    .map(|b| b.ops as f64 / b.wall_s)
                    .collect()
            )
        );
        println!("{label}: p50 ms by block: {}", list(self.block_p50s()));
        for line in &self.shares {
            println!("{label}: share {line}");
        }
        let counts = self
            .counts
            .metrics(self.ops)
            .iter()
            .map(|(n, v, _)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!("{label}: counts {counts}");
    }
}

/// The closure check of a traced pass against its untraced twin.
pub struct Ledger {
    /// Self time per op of every layer metric, microseconds.
    pub layers: BTreeMap<&'static str, f64>,
    /// Sum of the layers on the op's blocking path.
    pub layer_sum_us: f64,
    /// Mean untraced op latency, microseconds.
    pub untraced_us: f64,
    /// `100 × (untraced − layer sum) / untraced`.
    pub unattributed_pct: f64,
    /// Throughput lost to tracing, percent of the untraced throughput.
    pub tracing_overhead_pct: f64,
}

pub fn ledger(base: &Pass, traced: &Pass) -> Ledger {
    let layers: BTreeMap<&'static str, f64> = LAYER_US
        .iter()
        .map(|&name| {
            let total = traced.layers_us.get(name).copied().unwrap_or(0.0);
            let per = if name == "incremental.open_us" {
                total
            } else {
                total / traced.ops as f64
            };
            (name, per)
        })
        .collect();
    let layer_sum_us: f64 = layers
        .iter()
        .filter(|(name, _)| !OUTSIDE_LEDGER.contains(name))
        .map(|(_, us)| us)
        .sum();
    let untraced_us = 1e3 * base.lat_ms.iter().sum::<f64>() / base.lat_ms.len() as f64;
    let base_tp = base.throughput();
    let traced_tp = traced.throughput();
    Ledger {
        layers,
        layer_sum_us,
        untraced_us,
        unattributed_pct: 100.0 * (untraced_us - layer_sum_us) / untraced_us,
        tracing_overhead_pct: 100.0 * (base_tp - traced_tp) / base_tp,
    }
}
