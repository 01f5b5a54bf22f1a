//! The one file that calls into the workspace crates.
//!
//! Every in-process call the benchmark makes — generating inputs, building and encoding
//! oracles, booting snapshots, the protocol functions `msrpctl`'s connection loop uses, the
//! epoch swap — goes through a function or re-export here. When a workspace API is renamed
//! or merged (for example when the `_csr` twins go away), only this file changes; the stage
//! files keep their call sites.

use std::io::BufRead;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

pub use msrp_graph::{
    BfsScratch, CsrGraph, Distance, Edge, Graph, Vertex, Weight, WeightedCsrGraph,
};
pub use msrp_oracle::RebuildStats;
pub use msrp_serve::{EpochOracle, LineOutcome, Query, QueryService, Request, ShardedOracle};

use msrp_graph::generators::{connected_gnm, weighted_connected_gnm};
use msrp_graph::WeightedDigraph;
use msrp_obs::StageProfile;
use msrp_oracle::{ReplacementPathOracle, WeightedReplacementOracle};
use msrp_serve::{ServiceConfig, WeightedShardedOracle};

/// Oracle shards, as `msrpctl create --shards 2` builds them.
pub const SHARDS: usize = 2;
/// Service workers, as `msrpctl serve` starts them by default.
pub const WORKERS: usize = 2;
/// Largest edge weight of the weighted input, `msrpctl create --weighted`'s default.
pub const WEIGHT_MAX: Weight = 1000;
/// The line cap `msrpctl serve` reads requests with.
pub const MAX_LINE_BYTES: usize = msrp_serve::MAX_LINE_BYTES;

/// σ evenly spread sources `i·n/σ`, as `msrpctl create` picks them.
pub fn evenly_spread(n: usize, sigma: usize) -> Vec<Vertex> {
    (0..sigma).map(|i| i * n / sigma).collect()
}

/// Seed of every input graph: `msrpctl create`'s default. The workload seed varies the
/// query and event streams; the graphs stay fixed so that construction cost, which
/// depends on the graph, compares across runs of different workload seeds.
pub const GRAPH_SEED: u64 = 42;

/// The `connected_gnm` input with m = 4n that `msrpctl create --n N` builds.
pub fn hop_graph(n: usize) -> Graph {
    connected_gnm(n, 4 * n, &mut StdRng::seed_from_u64(GRAPH_SEED))
        .expect("m = 4n connects n vertices")
}

/// The weighted input of `msrpctl create --weighted --n N`, frozen.
pub fn weighted_graph(n: usize) -> WeightedCsrGraph {
    weighted_connected_gnm(n, 4 * n, WEIGHT_MAX, &mut StdRng::seed_from_u64(GRAPH_SEED))
        .expect("m = 4n connects n vertices")
        .freeze()
}

/// Freezes a graph into the CSR view every construction route traverses.
pub fn freeze(g: &Graph) -> CsrGraph {
    g.freeze()
}

/// Toggles `e` in `g`: removes it when present, adds it back otherwise.
pub fn toggle_edge(g: &mut Graph, e: Edge) {
    let (u, v) = e.endpoints();
    if g.has_edge(u, v) {
        g.remove_edge(u, v).expect("edge is present");
    } else {
        g.add_edge(u, v).expect("edge endpoints are in range");
    }
}

/// The hop `create` path: sharded Bernstein–Karger build.
pub fn build_bk(g: &CsrGraph, sources: &[Vertex]) -> ShardedOracle {
    ShardedOracle::build_bk_csr(g, sources, SHARDS)
}

/// Encodes a hop oracle as the snapshot `msrpctl create` writes.
pub fn encode(oracle: &ShardedOracle, g: &CsrGraph) -> Vec<u8> {
    oracle.to_snapshot(g)
}

/// Boots a hop snapshot the way `msrpctl serve` does (checksums, then adopt).
pub fn boot(bytes: &[u8]) -> Result<(CsrGraph, ShardedOracle), String> {
    ShardedOracle::from_snapshot(bytes).map_err(|e| format!("snapshot rejected: {e}"))
}

/// `true` when two frozen graphs have identical adjacency.
pub fn same_graph(a: &CsrGraph, b: &CsrGraph) -> bool {
    a.offsets() == b.offsets() && a.targets() == b.targets()
}

/// `true` when two sharded oracles hold identical replacement rows, shard for shard.
pub fn same_rows(a: &ShardedOracle, b: &ShardedOracle) -> bool {
    a.shard_count() == b.shard_count()
        && a.shards().iter().zip(b.shards()).all(|(x, y)| x.per_source() == y.per_source())
}

/// The weighted `create` path: sharded weighted build (msrp-core's weighted solver plus
/// Dijkstra), then snapshot encoding. Returns the oracle and the snapshot bytes.
pub fn build_weighted(g: &WeightedCsrGraph, sources: &[Vertex]) -> (WeightedOracle, Vec<u8>) {
    let oracle = WeightedShardedOracle::build(g, sources, SHARDS);
    let bytes = oracle.to_snapshot(g);
    (WeightedOracle(oracle), bytes)
}

/// A built weighted oracle, kept opaque so the stage files need no weighted types.
pub struct WeightedOracle(WeightedShardedOracle);

impl WeightedOracle {
    /// The replacement distance the oracle answers for `q`.
    pub fn query(&self, q: Query) -> Option<Weight> {
        self.0.query(q)
    }

    /// The canonical `s → t` path of the shard's Dijkstra tree.
    pub fn canonical_path(&self, s: Vertex, t: Vertex) -> Option<Vec<Vertex>> {
        let shard = self.0.shard_for(s)?;
        self.0.shards()[shard].canonical_path(s, t)
    }

    /// Encodes the oracle as a weighted snapshot.
    pub fn encode(&self, g: &WeightedCsrGraph) -> Vec<u8> {
        self.0.to_snapshot(g)
    }
}

/// Wall time of each weighted shard built on its own, in shard order.
pub fn weighted_shard_build_times(g: &WeightedCsrGraph, sources: &[Vertex]) -> Vec<Duration> {
    msrp_oracle::shard_sources(sources, SHARDS)
        .into_iter()
        .map(|chunk| {
            let start = Instant::now();
            std::hint::black_box(WeightedReplacementOracle::build(g, chunk));
            start.elapsed()
        })
        .collect()
}

/// Every edge of a weighted graph.
pub fn weighted_edges(g: &WeightedCsrGraph) -> Vec<Edge> {
    g.edge_vec().into_iter().map(|(e, _)| e).collect()
}

/// Distances from `source` in `g` without `avoid`, by a Dijkstra that shares no code with
/// the oracle's: a fresh digraph holding every edge but `avoid`, in both directions.
pub fn independent_avoiding_dijkstra(
    g: &WeightedCsrGraph,
    source: Vertex,
    avoid: Edge,
) -> Vec<Weight> {
    let mut d = WeightedDigraph::new(g.vertex_count());
    for (e, w) in g.edges() {
        if e != avoid {
            let (u, v) = e.endpoints();
            d.add_edge(u, v, w);
            d.add_edge(v, u, w);
        }
    }
    d.freeze().dijkstra(source).dist
}

/// The paper's Theorem-1 solver on the benchmark parameters (the E2 bench's).
pub struct PaperSolve {
    out: msrp_core::MsrpOutput,
}

impl PaperSolve {
    /// Runs `solve_msrp_csr` with `MsrpParams::scaled_for_benchmarks()`.
    pub fn run(g: &CsrGraph, sources: &[Vertex]) -> Self {
        let params = msrp_core::MsrpParams::scaled_for_benchmarks();
        PaperSolve { out: msrp_core::solve_msrp_csr(g, sources, &params) }
    }

    /// The solver's own per-phase timings and set sizes, as it records them on every run.
    pub fn phases(&self) -> PaperPhases {
        let stats = &self.out.stats;
        let phase = |name: &str| stats.phase(name).unwrap_or(Duration::ZERO);
        PaperPhases {
            source_to_center: phase("source-to-center (8.1)"),
            center_to_landmark: phase("center-to-landmark (8.2.2)"),
            assembly: phase("intervals, bottlenecks, assembly (8.3)"),
            refinement: phase("refinement sweeps"),
            completion: phase("far/near completion"),
            total: stats.total_time(),
            landmarks: stats.landmark_count,
            centers: stats.center_count,
            near_small_edges: stats.near_small_edges,
        }
    }

    /// `true` when Bernstein–Karger, built from scratch on the same input, produces the
    /// same replacement rows for every source.
    pub fn rows_equal_bk(&self, g: &CsrGraph) -> bool {
        let bk = ReplacementPathOracle::build_bk_csr(g, &self.out.sources);
        bk.per_source() == self.out.per_source.as_slice()
    }
}

/// Phase timings and set sizes of one Theorem-1 solve (`AlgorithmStats`).
pub struct PaperPhases {
    /// Section 8.1: source-to-center replacement paths.
    pub source_to_center: Duration,
    /// Section 8.2.2: center-to-landmark replacement paths.
    pub center_to_landmark: Duration,
    /// Section 8.3: intervals, bottlenecks and row assembly.
    pub assembly: Duration,
    /// The refinement sweeps.
    pub refinement: Duration,
    /// Far/near completion of the rows.
    pub completion: Duration,
    /// Sum of every recorded phase.
    pub total: Duration,
    /// Landmarks sampled.
    pub landmarks: usize,
    /// Centers sampled.
    pub centers: usize,
    /// Edges of the Section 7.1 auxiliary graphs, over all sources.
    pub near_small_edges: usize,
}

/// Stage totals of a profiled BK build: each shard built by `build_bk_csr_profiled` in turn,
/// then merged (`ShardedOracle::from_shards`, the `"merge"` stage), as experiment E12 does.
pub struct BkProfile {
    /// `(stage, total)` for every stage of `msrp_oracle::BK_STAGES`, in that order.
    pub stages: Vec<(&'static str, Duration)>,
    /// Cut solves performed (the `"cuts"` stage's invocation count).
    pub cuts: u64,
    /// Stage invocations over all stages: each read the clock twice.
    pub invocations: u64,
    /// Wall time of the whole sequence.
    pub wall: Duration,
    /// The merged oracle.
    pub oracle: ShardedOracle,
}

/// Builds the shards one after another through the profiled BK entry point.
pub fn build_bk_profiled(g: &CsrGraph, sources: &[Vertex]) -> BkProfile {
    let mut profile = StageProfile::new();
    let start = Instant::now();
    let shards: Vec<ReplacementPathOracle> = msrp_oracle::shard_sources(sources, SHARDS)
        .into_iter()
        .map(|chunk| ReplacementPathOracle::build_bk_csr_profiled(g, chunk, &mut profile))
        .collect();
    let oracle = msrp_obs::timed(&mut profile, "merge", || ShardedOracle::from_shards(shards));
    let wall = start.elapsed();
    let stages = msrp_oracle::BK_STAGES
        .iter()
        .map(|&s| (s, profile.get(s).map_or(Duration::ZERO, |t| t.total)))
        .collect();
    let cuts = profile.get("cuts").map_or(0, |t| t.count);
    let invocations = profile.stages().iter().map(|t| t.count).sum();
    BkProfile { stages, cuts, invocations, wall, oracle }
}

/// The same shard sequence without a profiler, the untraced twin of [`build_bk_profiled`].
pub fn build_bk_sequential(g: &CsrGraph, sources: &[Vertex]) -> ShardedOracle {
    let shards = msrp_oracle::shard_sources(sources, SHARDS)
        .into_iter()
        .map(|chunk| ReplacementPathOracle::build_bk_csr(g, chunk))
        .collect();
    ShardedOracle::from_shards(shards)
}

/// The canonical `s → t` path of the oracle's shortest-path tree.
pub fn canonical_path(oracle: &ShardedOracle, s: Vertex, t: Vertex) -> Option<Vec<Vertex>> {
    let shard = oracle.shard_for(s)?;
    oracle.shards()[shard].canonical_path(s, t)
}

/// Ground truth for one query by an avoiding BFS (the `run_churn` rule: unroutable sources
/// answer `None`).
pub fn avoiding_bfs(
    g: &CsrGraph,
    sources: &[Vertex],
    q: Query,
    scratch: &mut BfsScratch,
) -> Option<Distance> {
    if !sources.contains(&q.source) {
        return None;
    }
    scratch.run_avoiding(g, q.source, q.avoid);
    Some(scratch.dist()[q.target])
}

/// `QueryService::start` with `msrpctl serve`'s worker count.
pub fn start_service(oracle: ShardedOracle) -> QueryService {
    QueryService::start(oracle, &ServiceConfig { workers: WORKERS })
}

/// An epoch-swapping service over an initial shard set.
pub fn start_epoch_service(oracle: ShardedOracle) -> QueryService<EpochOracle> {
    QueryService::start(EpochOracle::new(oracle), &ServiceConfig { workers: WORKERS })
}

/// The epoch the service currently answers from.
pub fn current_epoch(service: &QueryService<EpochOracle>) -> std::sync::Arc<EpochSet> {
    service.oracle().current()
}

/// One published generation of an [`EpochOracle`].
pub type EpochSet = msrp_serve::Epoch;

/// Id of the epoch the service currently answers from.
pub fn epoch_id(service: &QueryService<EpochOracle>) -> u64 {
    service.oracle().epoch_id()
}

/// Publishes a rebuilt shard set as the next epoch.
pub fn publish(service: &QueryService<EpochOracle>, oracle: ShardedOracle) {
    service.oracle().publish(oracle);
}

/// Formats a query as the `Q` line a client sends (newline included).
pub fn query_line(q: &Query) -> String {
    let mut line = msrp_serve::format_query(q);
    line.push('\n');
    line
}

/// The reply line (newline excluded) `msrpctl serve` sends for an answer.
pub fn format_answer(answer: Option<Distance>) -> String {
    msrp_serve::format_answer(answer)
}

/// `read_line_bounded` under `msrpctl serve`'s cap.
pub fn read_line<R: BufRead>(reader: &mut R, line: &mut String) -> std::io::Result<LineOutcome> {
    msrp_serve::read_line_bounded(reader, line, MAX_LINE_BYTES)
}

/// `parse_request`, the protocol's grammar check.
pub fn parse_request(line: &str) -> Result<Request, String> {
    msrp_serve::parse_request(line).map_err(|e| e.to_string())
}

/// `validate_query`, the protocol's id-range check.
pub fn validate_query(q: &Query, vertex_count: usize) -> Result<(), String> {
    msrp_serve::validate_query(q, vertex_count).map_err(|e| e.to_string())
}

/// `true` when a reply line is the `STATS` verb's answer.
pub fn is_stats_reply(line: &str) -> bool {
    msrp_serve::parse_stats(line.trim_end()).is_ok()
}

/// Vertex count of the graph an oracle answers for.
pub fn vertex_count(oracle: &ShardedOracle) -> usize {
    oracle.vertex_count()
}

/// Edge count of a frozen graph.
pub fn edge_count(g: &CsrGraph) -> usize {
    g.edge_count()
}

/// Every edge of a graph, in the graph's order.
pub fn edges(g: &Graph) -> Vec<Edge> {
    g.edge_vec()
}

/// Every edge of a frozen graph.
pub fn csr_edges(g: &CsrGraph) -> Vec<Edge> {
    g.edge_vec()
}

/// A query for `source → target` avoiding `avoid`.
pub fn query(source: Vertex, target: Vertex, avoid: Edge) -> Query {
    Query::new(source, target, avoid)
}

/// The edge between two vertices (endpoints in either order).
pub fn edge(u: Vertex, v: Vertex) -> Edge {
    Edge::new(u, v)
}

/// One in-process oracle lookup.
pub fn lookup(oracle: &ShardedOracle, q: Query) -> Option<Distance> {
    oracle.query(q)
}

/// One batch through the service's worker pool.
pub fn answer_batch<O: msrp_serve::RouteOracle>(
    service: &QueryService<O>,
    batch: &[Query],
) -> Vec<Option<O::Answer>> {
    service.answer_batch(batch)
}

/// Drains and stops a service.
pub fn shutdown<O: msrp_serve::RouteOracle>(service: QueryService<O>) {
    service.shutdown();
}

/// The incremental BK rebuild of an epoch's shard set after `changed` toggled.
pub fn rebuild(epoch: &EpochSet, g_new: &CsrGraph, changed: Edge) -> (ShardedOracle, RebuildStats) {
    epoch.oracle.rebuild_bk_csr(g_new, changed)
}

/// The shard set an epoch answers from.
pub fn epoch_oracle(epoch: &EpochSet) -> &ShardedOracle {
    &epoch.oracle
}
