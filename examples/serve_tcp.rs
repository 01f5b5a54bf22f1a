//! The TCP front end of the replacement-path query service: the sharded oracle behind a real
//! socket, speaking the newline-delimited text protocol of `msrp::serve::protocol`.
//!
//! Four modes:
//!
//! ```text
//! cargo run --release --example serve_tcp                      # self-contained smoke run
//! cargo run --release --example serve_tcp -- --metrics         # smoke run with tracing on
//! cargo run --release --example serve_tcp -- --serve ADDR      # serve until the process dies
//! cargo run --release --example serve_tcp -- --client ADDR     # drive an external server
//! ```
//!
//! The default mode is what CI runs: it starts the server on an OS-assigned localhost port,
//! connects a client over the real socket, issues single and batched queries — hop-metric
//! `Q`/`B` lines served from Bernstein–Karger-built shards and weighted `QW`/`BW` lines
//! served from the weighted oracle — cross-checks every answer against single-threaded
//! in-process oracles, exercises the `STATS` and `METRICS` metrics plane, and shuts down
//! cleanly. The `--serve` / `--client` pair runs the same code split across two processes.
//! `--metrics` is the same smoke run with the full observability plane on — span journal,
//! slow-query log, seed-stable trace ids — and dumps the per-stage span accounting, the
//! slow-query replay lines, and the complete text exposition before exiting.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use msrp::core::MsrpParams;
use msrp::graph::generators::{connected_gnm, weighted_connected_gnm};
use msrp::graph::{Graph, WeightedCsrGraph};
use msrp::obs::is_well_formed;
use msrp::oracle::{ReplacementPathOracle, WeightedReplacementOracle};
use msrp::serve::{
    format_answer, format_metrics_header, format_query, format_stats, format_weighted_answer,
    format_weighted_query, parse_answer, parse_metrics_header, parse_request, parse_stats,
    parse_weighted_answer, random_queries, read_line_bounded, validate_query, BatchStage,
    LineOutcome, ObsConfig, QueryService, Request, ServiceConfig, ShardedOracle,
    WeightedShardedOracle, MAX_LINE_BYTES,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The demo workload is pinned so server and client (possibly separate processes) agree on
/// the graph and sources without exchanging them.
const GRAPH_SEED: u64 = 99;
const N: usize = 96;
const M: usize = 240;
const SOURCES: [usize; 4] = [0, 24, 48, 72];
const SHARDS: usize = 2;
const WORKERS: usize = 2;
/// The weighted demo graph served behind the `QW`/`BW` verbs (its own seed stream, its own
/// dimensions, so a confused client cannot mistake one metric's ids for the other's).
const WEIGHTED_SEED: u64 = 977;
const WN: usize = 64;
const WM: usize = 160;
const W_MAX_WEIGHT: u64 = 1000;
const WSOURCES: [usize; 3] = [0, 21, 42];
/// Largest batch a client may request in one `B k` / `BW k` header; anything bigger is
/// refused before any allocation happens (the header size comes straight off the wire).
const MAX_BATCH: usize = 4096;

fn demo_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(GRAPH_SEED);
    connected_gnm(N, M, &mut rng).expect("valid demo parameters")
}

fn weighted_demo_graph() -> WeightedCsrGraph {
    let mut rng = StdRng::seed_from_u64(WEIGHTED_SEED);
    weighted_connected_gnm(WN, WM, W_MAX_WEIGHT, &mut rng).expect("valid demo parameters").freeze()
}

/// A batch line is either the index of a validated query or an error to report in place.
enum BatchSlot {
    Query(usize),
    Invalid(String),
}

/// What became of reading a batch's query lines.
enum BatchOutcome {
    /// All `k` lines read; slots and the validated queries to answer.
    Complete(Vec<BatchSlot>, Vec<msrp::serve::Query>),
    /// A grammatically broken or wrong-verb line: fatal for the connection.
    Broken,
    /// The client hung up mid-batch.
    Eof,
    /// A line blew the byte cap: fatal for the connection (the rest of the oversized
    /// line is still on the wire, so resynchronizing is impossible).
    TooLong,
}

/// Reads the `k` query lines of a length-delimited batch (`B` expects `Q` lines, `BW`
/// expects `QW` lines), validating every id against `vertex_count`. Lines that fail id
/// validation become in-place `ERR` slots; a grammatically broken or wrong-verb line is
/// [`BatchOutcome::Broken`] (the caller errs and closes the connection).
fn read_batch(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    k: usize,
    weighted: bool,
    vertex_count: usize,
) -> std::io::Result<BatchOutcome> {
    let mut slots = Vec::with_capacity(k);
    let mut batch = Vec::with_capacity(k);
    for _ in 0..k {
        match read_line_bounded(reader, line, MAX_LINE_BYTES)? {
            LineOutcome::Line => {}
            LineOutcome::Eof => return Ok(BatchOutcome::Eof),
            LineOutcome::TooLong => return Ok(BatchOutcome::TooLong),
        }
        let parsed = match (parse_request(line.trim_end()), weighted) {
            (Ok(Request::Query(q)), false) | (Ok(Request::WeightedQuery(q)), true) => Some(q),
            _ => None,
        };
        match parsed {
            Some(q) => match validate_query(&q, vertex_count) {
                Ok(()) => {
                    slots.push(BatchSlot::Query(batch.len()));
                    batch.push(q);
                }
                Err(e) => slots.push(BatchSlot::Invalid(e.to_string())),
            },
            None => return Ok(BatchOutcome::Broken),
        }
    }
    Ok(BatchOutcome::Complete(slots, batch))
}

/// Writes one reply line per batch slot, in order.
fn write_batch_replies<A: Copy>(
    writer: &mut BufWriter<TcpStream>,
    slots: Vec<BatchSlot>,
    answers: &[Option<A>],
    format: impl Fn(Option<A>) -> String,
) -> std::io::Result<()> {
    for slot in slots {
        match slot {
            BatchSlot::Query(i) => writeln!(writer, "{}", format(answers[i]))?,
            BatchSlot::Invalid(e) => writeln!(writer, "ERR {e}")?,
        }
    }
    Ok(())
}

/// Answers one connection's requests until `QUIT` or EOF. `Q`/`B` lines are served by the
/// hop-metric service (Bernstein–Karger-built shards), `QW`/`BW` lines by the weighted
/// service; both metrics share the connection, the `ERR` validation, and the batch limit.
///
/// Every parsed query is validated against its graph's vertex count *before* it is
/// enqueued; an out-of-range id draws an `ERR` reply instead of reaching the oracle's
/// panicking array accesses (the regression exercised by the client below: a line like
/// `Q 0 999999999 0 1` used to kill the worker thread that dequeued it). The weighted verbs
/// get the identical treatment — `hostile_input.rs` fuzzes both.
fn handle_connection(
    stream: TcpStream,
    service: &QueryService,
    wservice: &QueryService<WeightedShardedOracle>,
) -> std::io::Result<()> {
    let vertex_count = service.oracle().vertex_count();
    let weighted_vertex_count = wservice.oracle().vertex_count();
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        // Bounded: a hostile connection streaming newline-free bytes used to grow this
        // buffer without limit (`read_line` only stops at `\n` or EOF). Now it draws an
        // ERR at 64 KiB and the connection closes — memory stays capped per connection.
        match read_line_bounded(&mut reader, &mut line, MAX_LINE_BYTES)? {
            LineOutcome::Line => {}
            LineOutcome::Eof => return Ok(()), // client hung up
            LineOutcome::TooLong => {
                writeln!(writer, "ERR line too long")?;
                writer.flush()?;
                return Ok(());
            }
        }
        match parse_request(line.trim_end()) {
            Ok(Request::Query(q)) => match validate_query(&q, vertex_count) {
                Ok(()) => {
                    let answers = service.answer_batch(&[q]);
                    writeln!(writer, "{}", format_answer(answers[0]))?;
                }
                Err(e) => writeln!(writer, "ERR {e}")?,
            },
            Ok(Request::WeightedQuery(q)) => match validate_query(&q, weighted_vertex_count) {
                Ok(()) => {
                    let answers = wservice.answer_batch(&[q]);
                    writeln!(writer, "{}", format_weighted_answer(answers[0]))?;
                }
                Err(e) => writeln!(writer, "ERR {e}")?,
            },
            Ok(Request::Batch(k)) | Ok(Request::WeightedBatch(k)) if k > MAX_BATCH => {
                // The client may already have pipelined its k query lines; answering them
                // as top-level requests would desynchronize every later reply. An
                // over-limit header is therefore fatal for the connection, like a
                // malformed batch line below.
                writeln!(writer, "ERR batch size {k} exceeds the limit of {MAX_BATCH}")?;
                writer.flush()?;
                return Ok(());
            }
            Ok(Request::Batch(k)) => {
                // Length-delimited batch: exactly k query lines follow the header. Lines
                // that fail id validation get an in-place ERR reply (still one reply line
                // per batch line); only a grammatically broken line aborts the connection.
                match read_batch(&mut reader, &mut line, k, false, vertex_count)? {
                    BatchOutcome::Complete(slots, batch) => {
                        let answers = service.answer_batch(&batch);
                        write_batch_replies(&mut writer, slots, &answers, format_answer)?;
                    }
                    BatchOutcome::Eof => return Ok(()),
                    BatchOutcome::Broken => {
                        writeln!(writer, "ERR batch lines must be Q queries")?;
                        writer.flush()?;
                        return Ok(());
                    }
                    BatchOutcome::TooLong => {
                        writeln!(writer, "ERR line too long")?;
                        writer.flush()?;
                        return Ok(());
                    }
                }
            }
            Ok(Request::WeightedBatch(k)) => {
                match read_batch(&mut reader, &mut line, k, true, weighted_vertex_count)? {
                    BatchOutcome::Complete(slots, batch) => {
                        let answers = wservice.answer_batch(&batch);
                        write_batch_replies(&mut writer, slots, &answers, format_weighted_answer)?;
                    }
                    BatchOutcome::Eof => return Ok(()),
                    BatchOutcome::Broken => {
                        writeln!(writer, "ERR batch lines must be QW queries")?;
                        writer.flush()?;
                        return Ok(());
                    }
                    BatchOutcome::TooLong => {
                        writeln!(writer, "ERR line too long")?;
                        writer.flush()?;
                        return Ok(());
                    }
                }
            }
            Ok(Request::Stats) => {
                writeln!(writer, "{}", format_stats(&service.metrics()))?;
            }
            Ok(Request::Metrics) => {
                // Length-delimited like batches: a `METRICS <k>` header, then exactly k
                // lines of Prometheus-style exposition (the hop-metric service's plane —
                // the weighted service's counters live in its own process-internal
                // snapshot and stay off the demo wire).
                let text = service.render_metrics();
                writeln!(writer, "{}", format_metrics_header(text.lines().count()))?;
                writer.write_all(text.as_bytes())?;
            }
            Ok(Request::Quit) => return Ok(()),
            Err(e) => writeln!(writer, "ERR {e}")?,
        }
        // One flush per request keeps replies prompt without a syscall per answer line.
        writer.flush()?;
    }
}

/// Starts both metric services: the hop metric from Bernstein–Karger-built shards (the real
/// BK preprocessing, serving bit-for-bit what `build`/`build_exact` shards would), and the
/// weighted metric from Dijkstra-tree shards.
fn start_services(obs: &ObsConfig) -> (QueryService, QueryService<WeightedShardedOracle>) {
    let g = demo_graph().freeze();
    let config = ServiceConfig { workers: WORKERS };
    let service = QueryService::start_observed(
        ShardedOracle::build_bk_csr(&g, &SOURCES, SHARDS),
        &config,
        obs,
    );
    let wservice = QueryService::start_observed(
        WeightedShardedOracle::build(&weighted_demo_graph(), &WSOURCES, SHARDS),
        &config,
        obs,
    );
    (service, wservice)
}

/// The observability plane the `--metrics` mode turns on: span journal, slow-query log (a
/// zero threshold captures every batch — this is a demo, and it proves the replay payloads
/// flow end to end), and seed-stable trace ids.
fn metrics_obs_config() -> ObsConfig {
    ObsConfig {
        journal_capacity: 4096,
        slow_query_threshold: Some(Duration::ZERO),
        slow_log_capacity: 8,
        trace_seed: GRAPH_SEED,
    }
}

/// `--serve`: accept connections forever (or `max_conns` of them), one thread each.
fn serve(
    listener: TcpListener,
    service: &QueryService,
    wservice: &QueryService<WeightedShardedOracle>,
    max_conns: Option<usize>,
) {
    std::thread::scope(|scope| {
        for (accepted, stream) in listener.incoming().enumerate() {
            let stream = stream.expect("accept failed");
            // Replies are a few bytes each. With Nagle's algorithm on, a reply written while
            // the previous one is still unacknowledged waits for the client's (delayed) ACK.
            if let Err(e) = stream.set_nodelay(true) {
                eprintln!("set_nodelay: {e}");
            }
            scope.spawn(move || {
                if let Err(e) = handle_connection(stream, service, wservice) {
                    eprintln!("connection error: {e}");
                }
            });
            if max_conns.is_some_and(|max| accepted + 1 >= max) {
                break;
            }
        }
    });
}

/// `--client`: issue a seed-pinned workload over the socket, verify every answer against a
/// local single-threaded oracle, and print what happened.
fn run_client(addr: &str) {
    let g = demo_graph();
    let reference = ReplacementPathOracle::build(&g, &SOURCES, &MsrpParams::default());
    let mut rng = StdRng::seed_from_u64(7);
    let queries = random_queries(&g, &SOURCES, 64, &mut rng);

    let stream = TcpStream::connect(addr).expect("connect to the serve_tcp server");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let read_answer = |reader: &mut BufReader<TcpStream>, line: &mut String| {
        line.clear();
        reader.read_line(line).expect("server replied");
        parse_answer(line).expect("well-formed answer")
    };

    // Single queries.
    for q in &queries[..16] {
        writeln!(writer, "{}", format_query(q)).expect("send query");
        let answer = read_answer(&mut reader, &mut line);
        assert_eq!(
            answer,
            reference.replacement_distance(q.source, q.target, q.avoid),
            "socket answer for {q:?} must match the in-process oracle"
        );
    }
    // Regression: out-of-range ids in `Q` lines used to panic the serving worker. Each must
    // draw an `ERR` reply over the real socket — and the server must keep answering
    // afterwards (the follow-up valid queries below prove the worker survived).
    let read_raw = |reader: &mut BufReader<TcpStream>, line: &mut String| -> String {
        line.clear();
        reader.read_line(line).expect("server replied");
        line.trim_end().to_string()
    };
    let hostile_lines = [
        "Q 0 999999999 0 1".to_string(),            // target out of range
        format!("Q 0 1 0 {N}"),                     // edge endpoint just past the boundary
        "Q 18446744073709551615 1 0 1".to_string(), // u64::MAX source
    ];
    for hostile in &hostile_lines {
        writeln!(writer, "{hostile}").expect("send hostile line");
        let reply = read_raw(&mut reader, &mut line);
        assert!(reply.starts_with("ERR"), "hostile line {hostile:?} must draw ERR, got {reply:?}");
    }
    // A batch mixing valid and out-of-range lines: one reply per line, in order.
    writeln!(writer, "B 3").expect("send batch header");
    writeln!(writer, "{}", format_query(&queries[0])).expect("send valid batch line");
    writeln!(writer, "Q 0 999999999 0 1").expect("send hostile batch line");
    writeln!(writer, "{}", format_query(&queries[1])).expect("send valid batch line");
    let first = read_answer(&mut reader, &mut line);
    assert_eq!(
        first,
        reference.replacement_distance(queries[0].source, queries[0].target, queries[0].avoid)
    );
    let second = read_raw(&mut reader, &mut line);
    assert!(second.starts_with("ERR"), "hostile batch line must draw ERR, got {second:?}");
    let third = read_answer(&mut reader, &mut line);
    assert_eq!(
        third,
        reference.replacement_distance(queries[1].source, queries[1].target, queries[1].avoid)
    );
    // One length-delimited batch for the rest.
    let batch = &queries[16..];
    writeln!(writer, "B {}", batch.len()).expect("send batch header");
    for q in batch {
        writeln!(writer, "{}", format_query(q)).expect("send batch line");
    }
    for q in batch {
        let answer = read_answer(&mut reader, &mut line);
        assert_eq!(
            answer,
            reference.replacement_distance(q.source, q.target, q.avoid),
            "batched socket answer for {q:?} must match the in-process oracle"
        );
    }
    // --- The weighted wire protocol: QW/BW lines served by the weighted oracle. ---
    let wg = weighted_demo_graph();
    let wreference = WeightedReplacementOracle::build(&wg, &WSOURCES);
    let wedges: Vec<_> = wg.edge_vec().iter().map(|&(e, _)| e).collect();
    let mut wrng = StdRng::seed_from_u64(8);
    let wqueries: Vec<msrp::serve::Query> = (0..24)
        .map(|_| {
            msrp::serve::Query::new(
                WSOURCES[wrng.gen_range(0..WSOURCES.len())],
                wrng.gen_range(0..WN),
                wedges[wrng.gen_range(0..wedges.len())],
            )
        })
        .collect();
    let read_weighted_answer = |reader: &mut BufReader<TcpStream>, line: &mut String| {
        line.clear();
        reader.read_line(line).expect("server replied");
        parse_weighted_answer(line).expect("well-formed weighted answer")
    };
    // Single weighted queries.
    for q in &wqueries[..8] {
        writeln!(writer, "{}", format_weighted_query(q)).expect("send weighted query");
        let answer = read_weighted_answer(&mut reader, &mut line);
        assert_eq!(
            answer,
            wreference.replacement_distance(q.source, q.target, q.avoid),
            "weighted socket answer for {q:?} must match the in-process oracle"
        );
    }
    // Hostile weighted lines draw per-line ERR replies — the same validation boundary the
    // hop-metric verbs get, exercised over the real socket.
    let hostile_weighted = [
        "QW 0 999999999 0 1".to_string(),            // target out of range
        format!("QW 0 1 0 {WN}"),                    // endpoint just past the weighted bound
        "QW 18446744073709551615 1 0 1".to_string(), // u64::MAX source
        "QW 0 1 7 7".to_string(),                    // self-loop edge key, rejected at parse
    ];
    for hostile in &hostile_weighted {
        writeln!(writer, "{hostile}").expect("send hostile weighted line");
        let reply = read_raw(&mut reader, &mut line);
        assert!(reply.starts_with("ERR"), "line {hostile:?} must draw ERR, got {reply:?}");
    }
    // A weighted batch mixing valid and out-of-range lines: one reply per line, in order.
    writeln!(writer, "BW 3").expect("send weighted batch header");
    writeln!(writer, "{}", format_weighted_query(&wqueries[0])).expect("send valid BW line");
    writeln!(writer, "QW 0 999999999 0 1").expect("send hostile BW line");
    writeln!(writer, "{}", format_weighted_query(&wqueries[1])).expect("send valid BW line");
    let first = read_weighted_answer(&mut reader, &mut line);
    assert_eq!(
        first,
        wreference.replacement_distance(wqueries[0].source, wqueries[0].target, wqueries[0].avoid)
    );
    let second = read_raw(&mut reader, &mut line);
    assert!(second.starts_with("ERR"), "hostile BW line must draw ERR, got {second:?}");
    let third = read_weighted_answer(&mut reader, &mut line);
    assert_eq!(
        third,
        wreference.replacement_distance(wqueries[1].source, wqueries[1].target, wqueries[1].avoid)
    );
    // One length-delimited weighted batch for the rest.
    let wbatch = &wqueries[8..];
    writeln!(writer, "BW {}", wbatch.len()).expect("send weighted batch header");
    for q in wbatch {
        writeln!(writer, "{}", format_weighted_query(q)).expect("send weighted batch line");
    }
    for q in wbatch {
        let answer = read_weighted_answer(&mut reader, &mut line);
        assert_eq!(
            answer,
            wreference.replacement_distance(q.source, q.target, q.avoid),
            "batched weighted socket answer for {q:?} must match the in-process oracle"
        );
    }
    // Metrics over the wire, part 1: the one-line machine-parseable STATS probe. The reply
    // must parse under the pinned format and round-trip exactly.
    writeln!(writer, "STATS").expect("send stats");
    let stats_line = read_raw(&mut reader, &mut line);
    let stats = parse_stats(&stats_line).expect("STATS reply parses under the pinned format");
    assert_eq!(stats.to_string(), stats_line, "STATS reply must round-trip");
    assert!(
        stats.queries >= queries.len() as u64,
        "server counted {} queries, client sent at least {}",
        stats.queries,
        queries.len()
    );
    println!("server reports: {stats_line}");
    // Part 2: the full Prometheus-style exposition behind the METRICS verb, length-delimited
    // by its header line.
    writeln!(writer, "METRICS").expect("send metrics");
    let header = read_raw(&mut reader, &mut line);
    let k = parse_metrics_header(&header).expect("METRICS header parses");
    let mut exposition = String::new();
    for _ in 0..k {
        line.clear();
        assert!(reader.read_line(&mut line).expect("metrics line") > 0, "short METRICS reply");
        exposition.push_str(&line);
    }
    assert!(
        is_well_formed(&exposition),
        "exposition over the socket must be well-formed:\n{exposition}"
    );
    assert!(exposition.contains("msrp_queries_total"), "core families must be present");
    assert!(exposition.contains("msrp_batch_latency_seconds_count"));
    println!("client fetched a {k}-line well-formed METRICS exposition");
    // Last on this connection: a batch header over the server's limit draws an ERR and
    // closes the connection (the client might already have pipelined the batch lines, so
    // continuing would desynchronize replies). EOF doubles as the QUIT.
    writeln!(writer, "B 999999999").expect("send oversized batch header");
    let reply = read_raw(&mut reader, &mut line);
    assert!(reply.starts_with("ERR"), "oversized batch header must draw ERR, got {reply:?}");
    line.clear();
    let eof = reader.read_line(&mut line).expect("read after oversized header");
    assert_eq!(eof, 0, "the server must close the connection after an over-limit header");

    // Regression, on its own connection (the previous one is closed): a newline-free line
    // past the byte cap must draw `ERR line too long` and a close — `read_line` used to
    // buffer such a line without bound, handing any client a memory-exhaustion primitive.
    // Exactly cap+1 bytes then a write shutdown: the server provably consumes every byte
    // before replying, so the close is a clean FIN and the ERR cannot be lost to a reset.
    let stream = TcpStream::connect(addr).expect("reconnect for the over-long-line check");
    let mut storm_writer = stream.try_clone().expect("clone stream");
    let mut storm_reader = BufReader::new(stream);
    let oversized = vec![b'x'; msrp::serve::MAX_LINE_BYTES + 1];
    storm_writer.write_all(&oversized).expect("send newline-free storm");
    storm_writer.flush().expect("flush storm");
    storm_writer.shutdown(std::net::Shutdown::Write).expect("half-close");
    line.clear();
    storm_reader.read_line(&mut line).expect("read storm reply");
    assert!(
        line.starts_with("ERR line too long"),
        "newline-free storm must draw `ERR line too long`, got {line:?}"
    );
    line.clear();
    let eof = storm_reader.read_line(&mut line).expect("read after storm reply");
    assert_eq!(eof, 0, "the server must close the connection after an over-long line");
    println!(
        "a {}-byte newline-free line drew `ERR line too long` and a clean close",
        oversized.len()
    );

    println!(
        "client verified {} hop-metric answers ({} single + {} batched) and {} weighted \
         answers against the in-process oracles, and {} hostile lines drew ERR replies \
         without killing a worker",
        queries.len(),
        16,
        batch.len(),
        wqueries.len(),
        hostile_lines.len() + hostile_weighted.len() + 4
    );
}

/// The self-contained smoke run: server thread + client, one real localhost socket. With an
/// enabled [`ObsConfig`] (the `--metrics` mode) it additionally dumps and checks the whole
/// observability plane after the client is done.
fn smoke_run(obs: &ObsConfig) {
    let (service, wservice) = start_services(obs);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("local addr").to_string();
    println!(
        "demo server on {addr}: σ={} hop-metric sources (BK-built shards) + σ={} \
         weighted sources, {SHARDS} shards, {WORKERS} workers, tracing {}",
        SOURCES.len(),
        WSOURCES.len(),
        if obs.enabled() { "on" } else { "off" }
    );
    std::thread::scope(|scope| {
        let service = &service;
        let wservice = &wservice;
        // Two connections: the main protocol conversation, then the over-long-line check
        // (which needs a fresh connection because the first one ends closed).
        let server = scope.spawn(move || serve(listener, service, wservice, Some(2)));
        run_client(&addr);
        server.join().expect("server thread");
    });
    if obs.enabled() {
        dump_observability(&service, obs);
    }
    let metrics = service.shutdown();
    let wmetrics = wservice.shutdown();
    println!(
        "served {} hop-metric + {} weighted queries over TCP; batch latency [{}]",
        metrics.queries_total,
        wmetrics.queries_total,
        metrics.batch_latency.summary()
    );
}

/// Prints (and sanity-checks) the span-journal stage accounting, the slow-query replay
/// lines, and the full text exposition of an observed service.
fn dump_observability(service: &QueryService, obs: &ObsConfig) {
    let journal = service.journal_snapshot().expect("tracing is on in this mode");
    assert!(journal.total > 0, "the client's batches must have journaled spans");
    assert_eq!(journal.total % 3, 0, "every batch journals exactly three spans");
    println!("\nspan journal: {} events recorded, {} dropped", journal.total, journal.dropped);
    for (code, total, count) in journal.totals_by_stage() {
        let stage = BatchStage::from_code(code).map_or("unknown", BatchStage::name);
        println!("  {stage:<10} {count:>5} spans  {total:>12.1?} total");
    }
    let slow = service.slow_queries();
    assert!(!slow.is_empty(), "a zero threshold must capture batches");
    println!(
        "slow-query log: {} batches over {:?} (showing the latest replayable entries):",
        service.slow_queries_total(),
        obs.slow_query_threshold.expect("threshold set in this mode")
    );
    for entry in slow.iter().rev().take(3) {
        let head = entry.payload.first().map(format_query).unwrap_or_default();
        println!(
            "  trace={:#018x} latency={:>9.1?} batch of {:>2}: {head} …",
            entry.trace_id,
            entry.latency,
            entry.payload.len()
        );
    }
    let exposition = service.render_metrics();
    assert!(is_well_formed(&exposition), "server-side exposition must be well-formed");
    assert!(exposition.contains("msrp_journal_events_total"));
    assert!(exposition.contains("msrp_span_seconds_total"));
    assert!(exposition.contains("msrp_slow_queries_total"));
    println!("\nfull text exposition (what the METRICS verb serves):\n{exposition}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--serve") => {
            let addr = args.get(1).map(String::as_str).unwrap_or("127.0.0.1:7411");
            let (service, wservice) = start_services(&ObsConfig::default());
            let listener = TcpListener::bind(addr).expect("bind server address");
            println!("serving replacement-path queries on {addr} (Ctrl-C to stop)");
            serve(listener, &service, &wservice, None);
        }
        Some("--client") => {
            let addr = args.get(1).map(String::as_str).unwrap_or("127.0.0.1:7411");
            run_client(addr);
        }
        Some("--metrics") => smoke_run(&metrics_obs_config()),
        Some(other) => {
            eprintln!("unknown mode `{other}` (expected --serve, --client, or --metrics)");
            std::process::exit(2);
        }
        None => smoke_run(&ObsConfig::default()),
    }
}
