//! The `churn` stage: edge failures and repairs beside reads.
//!
//! A hop oracle (n = 4096, σ = 16, 2 shards) is served by a `QueryService<EpochOracle>`.
//! One reader thread issues closed-loop batches of 16 queries through `answer_batch` while
//! the main thread applies a seeded stream of edge events, the `msrp_netsim::run_churn`
//! rule: fail a present edge, or with probability 1/3 repair a failed one. Each event runs
//! freeze, the incremental `rebuild_bk_csr` and `publish`; that interval is its staleness.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adapter::{self, BfsScratch, CsrGraph, Distance, Edge, Query, RebuildStats, Vertex};
use crate::report::{chunked, median, median_secs, ms, percentile, Report};
use crate::Budget;

const N: usize = 4096;
const SIGMA: usize = 16;
/// Events every run applies; layer counts are taken over exactly these.
const MIN_EVENTS: usize = 250;
/// Events a run applies when churn is the workload.
const MIN_EVENTS_EMPHASIZED: usize = 350;
const BATCH: usize = 16;
/// The reader offers every this-many-th batch for checking.
const SAMPLE_EVERY: usize = 64;
/// Sampled batches the main thread checks after each event; later ones are dropped.
const CHECKS_PER_EVENT: usize = 4;
/// Every this-many-th epoch is compared with a from-scratch build.
const VERIFY_EVERY: u64 = 25;
/// Graphs of the most recent epochs, kept for checking sampled batches.
const HISTORY: usize = 8;
/// Set-ups per run; `setup_s` takes their median.
const SETUPS: usize = 5;
/// Budget-check floor for freeze + rebuild + publish against staleness.
const BUDGET_FLOOR: Duration = Duration::from_millis(1);
const EVENT_TAG: u64 = 0xC4A2;
const READER_TAG: u64 = 0x4EAD;

/// A batch the reader offers for checking, with the epoch ids read before and after it.
struct Sample {
    before: u64,
    after: u64,
    batch: Vec<Query>,
    answers: Vec<Option<Distance>>,
}

/// Per-event times of a traced run.
#[derive(Default)]
struct EventTrace {
    freeze: Vec<Duration>,
    rebuild: Vec<Duration>,
    publish: Vec<Duration>,
    traced_staleness: Vec<Duration>,
    plain_staleness: Vec<Duration>,
}

/// Runs the stage; returns the median set-up time in seconds.
pub fn run(seed: u64, budget: Budget, trace: bool, report: &mut Report) -> f64 {
    let mut g = adapter::hop_graph(N);
    let sources = adapter::evenly_spread(N, SIGMA);
    let edge_pool = adapter::edges(&g);

    let mut setups = Vec::new();
    let mut service = None;
    let g0 = adapter::freeze(&g);
    for _ in 0..SETUPS {
        if let Some(previous) = service.take() {
            adapter::shutdown(previous);
        }
        let start = Instant::now();
        service = Some(adapter::start_epoch_service(adapter::build_bk(&g0, &sources)));
        setups.push(start.elapsed());
    }
    let service = service.expect("SETUPS > 0");

    let mut rng = StdRng::seed_from_u64(seed ^ EVENT_TAG);
    let mut down: Vec<Edge> = Vec::new();
    let mut history: VecDeque<(u64, CsrGraph)> = VecDeque::from([(0, g0)]);
    let mut scratch = BfsScratch::new();
    let mut staleness = Vec::new();
    let mut rebuild_stats = RebuildStats::default();
    let mut events = EventTrace::default();
    let (sample_tx, sample_rx) = mpsc::channel::<Sample>();
    let stop = AtomicBool::new(false);

    let start = Instant::now();
    let reads = thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut rng = StdRng::seed_from_u64(seed ^ READER_TAG);
            let mut latencies = Vec::new();
            // ordering: a plain stop flag; it publishes no data (the samples travel over
            // the channel), so Relaxed suffices.
            while !stop.load(Ordering::Relaxed) {
                let batch: Vec<Query> = (0..BATCH)
                    .map(|_| {
                        let s = sources[rng.gen_range(0..SIGMA)];
                        let avoid = edge_pool[rng.gen_range(0..edge_pool.len())];
                        adapter::query(s, rng.gen_range(0..N), avoid)
                    })
                    .collect();
                let before = adapter::epoch_id(&service);
                let sent = Instant::now();
                let answers = adapter::answer_batch(&service, &batch);
                latencies.push(sent.elapsed().as_secs_f64() * 1e6);
                let after = adapter::epoch_id(&service);
                if latencies.len() % SAMPLE_EVERY == 1 {
                    let _ = sample_tx.send(Sample { before, after, batch, answers });
                }
            }
            latencies
        });

        let mut done = 0usize;
        let min_events = if budget.emphasized { MIN_EVENTS_EMPHASIZED } else { MIN_EVENTS };
        while done < min_events || start.elapsed() < budget.time {
            // The run_churn rule: repair a failed edge with probability 1/3 when one
            // exists, otherwise fail a present edge.
            let repair = !down.is_empty() && rng.gen_range(0..3usize) == 0;
            let e = if repair {
                down.swap_remove(rng.gen_range(0..down.len()))
            } else {
                let present = adapter::edges(&g);
                let e = present[rng.gen_range(0..present.len())];
                down.push(e);
                e
            };
            adapter::toggle_edge(&mut g, e);
            let traced = trace && done % 2 == 1;
            let t0 = Instant::now();
            let csr = adapter::freeze(&g);
            let t1 = traced.then(Instant::now);
            let current = adapter::current_epoch(&service);
            let (next, stats) = adapter::rebuild(&current, &csr, e);
            let t2 = traced.then(Instant::now);
            adapter::publish(&service, next);
            let t3 = Instant::now();
            staleness.push(t3 - t0);
            if let (Some(t1), Some(t2)) = (t1, t2) {
                events.freeze.push(t1 - t0);
                events.rebuild.push(t2 - t1);
                events.publish.push(t3 - t2);
                events.traced_staleness.push(t3 - t0);
            } else if trace {
                events.plain_staleness.push(t3 - t0);
            }
            if done < MIN_EVENTS {
                rebuild_stats.merge(&stats);
            }
            done += 1;
            report.ops_ok(1);

            let epoch = done as u64;
            if epoch.is_multiple_of(VERIFY_EVERY) {
                let current = adapter::current_epoch(&service);
                let full = adapter::build_bk(&csr, &sources);
                let same = adapter::same_rows(&full, adapter::epoch_oracle(&current));
                report.op(same);
                report.check(same, format!("epoch {epoch} differs from a from-scratch build"));
            }
            history.push_back((epoch, csr));
            if history.len() > HISTORY {
                history.pop_front();
            }
            for sample in sample_rx.try_iter().take(CHECKS_PER_EVENT) {
                check_sample(&sample, &history, &sources, &mut scratch, report);
            }
            // Batches beyond the per-event check quota are not checked.
            sample_rx.try_iter().for_each(drop);
        }
        // ordering: see the reader's load; nothing is published through the flag.
        stop.store(true, Ordering::Relaxed);
        let reads = reader.join().expect("churn reader panicked");
        for sample in sample_rx.try_iter() {
            check_sample(&sample, &history, &sources, &mut scratch, report);
        }
        reads
    });
    adapter::shutdown(service);
    report.ops_ok(reads.len() as u64);

    if trace {
        trace_metrics(&events, &rebuild_stats, report);
    } else {
        let mut stale: Vec<f64> = staleness.iter().map(|d| ms(*d)).collect();
        report.metric("staleness_p50_ms", percentile(&mut stale, 50.0), "ms");
        report.metric("staleness_p95_ms", percentile(&mut stale, 95.0), "ms");
        report.metric("read_p50_us", chunked(&reads, 50.0), "us");
        // Printed for reading, not gated, like the socket tails (see README.md).
        eprintln!("not gated: read_p99_us {:.1}", chunked(&reads, 99.0));
    }
    median_secs(&setups)
}

/// A sampled batch must equal, query for query, the ground truth of one epoch it could
/// have been answered by (the `run_churn` rule). Samples older than the kept history are
/// skipped.
fn check_sample(
    sample: &Sample,
    history: &VecDeque<(u64, CsrGraph)>,
    sources: &[Vertex],
    scratch: &mut BfsScratch,
    report: &mut Report,
) {
    let candidates: Vec<&CsrGraph> = history
        .iter()
        .filter(|(id, _)| (sample.before..=sample.after).contains(id))
        .map(|(_, g)| g)
        .collect();
    if candidates.len() as u64 != sample.after - sample.before + 1 {
        return;
    }
    let ok = candidates.iter().any(|g| {
        sample
            .batch
            .iter()
            .zip(&sample.answers)
            .all(|(&q, &answer)| adapter::avoiding_bfs(g, sources, q, scratch) == answer)
    });
    report.op(ok);
    report.check(
        ok,
        format!("a batch read during epochs {}..={} matches none", sample.before, sample.after),
    );
}

fn trace_metrics(events: &EventTrace, stats: &RebuildStats, report: &mut Report) {
    let med_ms = |v: &[Duration]| median(&mut v.iter().map(|d| ms(*d)).collect::<Vec<_>>());
    report.metric("graph.freeze_ms", med_ms(&events.freeze), "ms");
    report.metric("oracle.incremental.rebuild_ms", med_ms(&events.rebuild), "ms");
    report.metric("epoch.publish_us", 1e3 * med_ms(&events.publish), "us");
    report.metric("oracle.incremental.sources_reused", stats.sources_reused as f64, "count");
    report.metric("oracle.incremental.sources_patched", stats.sources_patched as f64, "count");
    report.metric("oracle.incremental.sources_rebuilt", stats.sources_rebuilt as f64, "count");
    let ratio = stats.cuts_recomputed as f64 / stats.cuts_total.max(1) as f64;
    report.metric("oracle.incremental.cuts_recomputed_ratio", ratio, "ratio");

    let parts: Duration = events.freeze.iter().chain(&events.rebuild).chain(&events.publish).sum();
    let wall: Duration = events.traced_staleness.iter().sum();
    let coverage = parts.as_secs_f64() / wall.as_secs_f64();
    report.metric("budget.churn_staleness_ratio", coverage, "ratio");
    report.check(
        wall.abs_diff(parts) <= (wall / 10).max(BUDGET_FLOOR),
        format!("freeze + rebuild + publish cover {coverage:.3} of staleness"),
    );
    let traced = med_ms(&events.traced_staleness);
    let plain = med_ms(&events.plain_staleness);
    report.metric("trace.churn_overhead_pct", 100.0 * (traced / plain - 1.0), "%");
}
