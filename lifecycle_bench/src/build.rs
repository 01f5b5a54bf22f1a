//! The `create` stage: time to solution for the three construction routes the repo ships.
//!
//! * hop: `ShardedOracle::build_bk_csr` + `to_snapshot` at n = 2¹⁶, σ = 16 (`msrpctl create`);
//! * weighted: `WeightedShardedOracle::build` + `to_snapshot` at n = 2¹⁴, σ = 16
//!   (`msrpctl create --weighted`);
//! * paper: `solve_msrp_csr` with the scaled benchmark parameters at n = 512, σ = 8.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adapter::{self, CsrGraph, PaperSolve, Vertex, WeightedCsrGraph};
use crate::report::{median, median_secs, ms, Report};

const HOP_N: usize = 1 << 16;
const WEIGHTED_N: usize = 1 << 14;
const PAPER_N: usize = 512;
const SIGMA: usize = 16;
const PAPER_SIGMA: usize = 8;
/// Build rounds every run makes; each route reports its median.
const ROUNDS: usize = 3;
/// Set-ups per run; `setup_s` takes their median.
const SETUPS: usize = 5;
/// Weighted queries checked against the independent avoiding Dijkstra.
const WEIGHTED_SAMPLE: usize = 24;
/// The E12 rule: staged time must cover the wall within max(10%, this floor).
const BUDGET_FLOOR: Duration = Duration::from_millis(5);
/// Seed stream of the weighted sample.
const SAMPLE_TAG: u64 = 0xB11D;

/// The three generated and frozen inputs.
pub struct Inputs {
    hop: CsrGraph,
    hop_sources: Vec<Vertex>,
    weighted: WeightedCsrGraph,
    weighted_sources: Vec<Vertex>,
    paper: CsrGraph,
    paper_sources: Vec<Vertex>,
}

/// Generates and freezes the inputs `SETUPS` times; returns the last set and the median
/// set-up time.
pub fn setup(trace: bool, report: &mut Report) -> (Inputs, f64) {
    let mut times = Vec::new();
    let mut generate = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let hop = adapter::hop_graph(HOP_N);
        generate.push(ms(start.elapsed()));
        let hop = adapter::freeze(&hop);
        let weighted = adapter::weighted_graph(WEIGHTED_N);
        let paper = adapter::freeze(&adapter::hop_graph(PAPER_N));
        times.push(start.elapsed());
        inputs = Some(Inputs {
            hop,
            hop_sources: adapter::evenly_spread(HOP_N, SIGMA),
            weighted,
            weighted_sources: adapter::evenly_spread(WEIGHTED_N, SIGMA),
            paper,
            paper_sources: adapter::evenly_spread(PAPER_N, PAPER_SIGMA),
        });
    }
    if trace {
        report.metric("graph.generate_ms", median(&mut generate), "ms");
    }
    (inputs.expect("SETUPS > 0"), median_secs(&times))
}

/// Builds through all three routes `ROUNDS` times, checks the results, and records the
/// median of each route.
pub fn run(inputs: &Inputs, seed: u64, trace: bool, report: &mut Report) {
    let (mut bk, mut weighted, mut paper) = (Vec::new(), Vec::new(), Vec::new());
    let mut snapshot_len = 0;
    for round in 0..ROUNDS {
        let t = Instant::now();
        let oracle = adapter::build_bk(&inputs.hop, &inputs.hop_sources);
        let bytes = adapter::encode(&oracle, &inputs.hop);
        bk.push(t.elapsed());

        let t = Instant::now();
        let (w_oracle, w_bytes) =
            adapter::build_weighted(&inputs.weighted, &inputs.weighted_sources);
        weighted.push(t.elapsed());

        let t = Instant::now();
        let solve = PaperSolve::run(&inputs.paper, &inputs.paper_sources);
        paper.push(t.elapsed());
        report.ops_ok(3);

        if round == 0 {
            check_snapshot(inputs, &bytes, report);
            check_weighted(inputs, &w_oracle, seed, report);
            let equal = solve.rows_equal_bk(&inputs.paper);
            report.op(equal);
            report.check(equal, "paper solver rows differ from Bernstein–Karger rows");
            snapshot_len = bytes.len();
            if trace {
                trace_layers(inputs, &w_oracle, &w_bytes, &solve, report);
            }
        }
    }
    if !trace {
        report.metric("build_bk_s", median_secs(&bk), "s");
        report.metric("build_weighted_s", median_secs(&weighted), "s");
        report.metric("solve_msrp_s", median_secs(&paper), "s");
        let per_edge = snapshot_len as f64 / adapter::edge_count(&inputs.hop) as f64;
        report.metric("snapshot_bytes_per_edge", per_edge, "B");
    }
}

/// Booting the hop snapshot and encoding it again must give identical bytes, over the
/// same graph the generator made.
fn check_snapshot(inputs: &Inputs, bytes: &[u8], report: &mut Report) {
    let ok = match adapter::boot(bytes) {
        Ok((g, oracle)) => {
            adapter::same_graph(&g, &inputs.hop) && adapter::encode(&oracle, &g) == bytes
        }
        Err(e) => {
            eprintln!("{e}");
            false
        }
    };
    report.op(ok);
    report.check(ok, "re-encoding the booted hop snapshot changed its bytes");
}

/// A seeded sample of weighted answers against an avoiding Dijkstra that shares no code
/// with the oracle. Half the avoided edges lie on the canonical path.
fn check_weighted(
    inputs: &Inputs,
    oracle: &adapter::WeightedOracle,
    seed: u64,
    report: &mut Report,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ SAMPLE_TAG);
    let edges = adapter::weighted_edges(&inputs.weighted);
    let sources = &inputs.weighted_sources;
    for _ in 0..WEIGHTED_SAMPLE {
        let s = sources[rng.gen_range(0..sources.len())];
        let t = rng.gen_range(0..WEIGHTED_N);
        let path = oracle.canonical_path(s, t).unwrap_or_default();
        let avoid = if path.len() >= 2 && rng.gen_range(0..2usize) == 0 {
            let i = rng.gen_range(0..path.len() - 1);
            adapter::edge(path[i], path[i + 1])
        } else {
            edges[rng.gen_range(0..edges.len())]
        };
        let truth = adapter::independent_avoiding_dijkstra(&inputs.weighted, s, avoid)[t];
        let ok = oracle.query(adapter::query(s, t, avoid)) == Some(truth);
        report.op(ok);
        report
            .check(ok, format!("weighted answer for ({s}, {t}, {avoid:?}) differs from Dijkstra"));
    }
}

/// Per-layer numbers of the build stage, from calls timed one by one.
fn trace_layers(
    inputs: &Inputs,
    w_oracle: &adapter::WeightedOracle,
    w_bytes: &[u8],
    solve: &PaperSolve,
    report: &mut Report,
) {
    // BK stages: the shards built one after another, profiled and plain.
    let plain_start = Instant::now();
    let plain = adapter::build_bk_sequential(&inputs.hop, &inputs.hop_sources);
    let plain_wall = plain_start.elapsed();
    let profile = adapter::build_bk_profiled(&inputs.hop, &inputs.hop_sources);
    let same = adapter::same_rows(&plain, &profile.oracle);
    report.op(same);
    report.check(same, "profiled BK build differs from the plain build");
    for (stage, total) in &profile.stages {
        report.metric(&format!("oracle.bk.{stage}_ms"), ms(*total), "ms");
    }
    report.metric("oracle.bk.cuts", profile.cuts as f64, "count");
    // Each stage invocation reads the clock twice, and those reads fall partly outside the
    // stage windows; over ~10⁶ cut solves that is a visible line of its own.
    let clock = clock_read_cost() * 2 * u32::try_from(profile.invocations).expect("fits u32");
    let staged: Duration = profile.stages.iter().map(|(_, d)| *d).sum::<Duration>() + clock;
    let ratio = staged.as_secs_f64() / profile.wall.as_secs_f64();
    report.metric("budget.build_staged_ratio", ratio, "ratio");
    let within = profile.wall.abs_diff(staged) <= (profile.wall / 10).max(BUDGET_FLOOR);
    report.check(within, format!("BK stages cover {ratio:.3} of the build wall"));
    report.metric(
        "trace.build_overhead_pct",
        100.0 * (profile.wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0),
        "%",
    );

    let mut encode = Vec::new();
    let mut w_encode = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        std::hint::black_box(adapter::encode(&plain, &inputs.hop));
        encode.push(t.elapsed());
        let t = Instant::now();
        let again = w_oracle.encode(&inputs.weighted);
        w_encode.push(t.elapsed());
        report.check(again == w_bytes, "weighted snapshot encoding is not deterministic");
    }
    report.metric("snap.encode_ms", 1e3 * median_secs(&encode), "ms");
    report.metric("snap.weighted_encode_ms", 1e3 * median_secs(&w_encode), "ms");

    let shard_times =
        adapter::weighted_shard_build_times(&inputs.weighted, &inputs.weighted_sources);
    let per_shard = shard_times.iter().map(|d| ms(*d)).sum::<f64>() / shard_times.len() as f64;
    report.metric("core.weighted.build_ms", per_shard, "ms");

    let phases = solve.phases();
    let named = [
        ("source_to_center", phases.source_to_center),
        ("center_to_landmark", phases.center_to_landmark),
        ("assembly", phases.assembly),
        ("refinement", phases.refinement),
        ("completion", phases.completion),
    ];
    let mut covered = Duration::ZERO;
    for (name, d) in named {
        covered += d;
        report.metric(&format!("core.msrp.{name}_ms"), ms(d), "ms");
    }
    report.metric("core.msrp.other_ms", ms(phases.total.saturating_sub(covered)), "ms");
    report.metric("core.msrp.landmarks", phases.landmarks as f64, "count");
    report.metric("core.msrp.centers", phases.centers as f64, "count");
    report.metric("core.msrp.near_small_edges", phases.near_small_edges as f64, "count");
}

/// Median cost of one `Instant::now()` on this machine.
fn clock_read_cost() -> Duration {
    const READS: u32 = 100_000;
    let mut runs: Vec<Duration> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            start.elapsed() / READS
        })
        .collect();
    runs.sort();
    runs[runs.len() / 2]
}
