//! The `serve` stage: the shipped `msrpctl` binary over a real localhost socket.
//!
//! `msrpctl create` writes a hop snapshot (n = 2¹⁴, σ = 16, 2 shards); `msrpctl serve`
//! boots it on `127.0.0.1:0` and the bound address is read from `NAME.addr`. One
//! connection then carries three phases: a closed loop with one outstanding `Q` line, a
//! window of 32 outstanding lines, and an open loop at a fixed rate timed from each
//! request's due time. Every reply is compared with an oracle that Bernstein–Karger builds
//! from scratch in this process on the same generated graph.
//!
//! The traced run also replays the request stream in-process through the calls
//! `msrpctl`'s connection loop makes, over an in-memory buffer, and times each call.

use std::io::{BufRead, BufReader, Cursor, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adapter::{self, BfsScratch, CsrGraph, LineOutcome, Query, Request, ShardedOracle};
use crate::report::{median, median_secs, windowed, Report};
use crate::Budget;

const N: usize = 1 << 14;
const SIGMA: usize = 16;
const NAME: &str = "serve";
/// Distinct requests generated per run; the phases cycle through them.
const POOL: usize = 1 << 15;
/// Requests sent before the closed loop starts timing.
const WARMUP: usize = 1000;
/// Outstanding lines in the pipelined phase.
const WINDOW: usize = 32;
/// Offered rate of the open-loop phase.
const OPEN_RATE: u32 = 5000;
/// Turns each phase takes. Latency percentiles are taken per turn, then combined over
/// the turns.
const CYCLES: u32 = 8;
/// Fewest latency samples one turn of a phase takes, so its p99 has ten beyond it.
const MIN_WINDOW: usize = 1_000;
/// Requests whose oracle answer is also checked against an avoiding BFS.
const GROUND_TRUTH: usize = 256;
/// Server spawns per run; `setup_s` takes the median, traffic goes to the last.
const SPAWNS: usize = 5;
/// Read and write deadline of every client socket.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a spawned server may take to bind, and to exit after `STOP`.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(60);
/// Requests replayed in-process by the traced run.
const REPLAY: usize = 20_000;
/// Untimed and traced replay passes made in turn.
const REPLAY_PAIRS: usize = 3;
/// Timed repetitions of each in-process lookup loop.
const LOOKUP_REPEATS: usize = 5;
/// Budget-check floor for the replay loop.
const BUDGET_FLOOR: Duration = Duration::from_millis(2);
/// Seed stream of the request pool.
const QUERY_TAG: u64 = 0x5E7E;

/// One request line with the reply `msrpctl serve` must send for it.
struct Pending {
    query: Query,
    line: String,
    expected: String,
    on_path: bool,
}

/// Where `msrpctl` lives and where its state directory may go.
pub struct Paths<'a> {
    /// The `msrpctl` binary.
    pub msrpctl: &'a Path,
    /// A directory of this run's own, inside the checkout.
    pub state_dir: PathBuf,
}

/// Runs the stage; returns the median server set-up time in seconds.
pub fn run(
    paths: &Paths<'_>,
    seed: u64,
    budget: Budget,
    trace: bool,
    report: &mut Report,
) -> Result<f64, String> {
    create_snapshot(paths)?;
    let snapshot_file = paths.state_dir.join(format!("{NAME}.snap"));
    let bytes = std::fs::read(&snapshot_file).map_err(|e| format!("read snapshot: {e}"))?;

    // The reference: built from scratch here, never decoded from the snapshot.
    let g = adapter::freeze(&adapter::hop_graph(N));
    let sources = adapter::evenly_spread(N, SIGMA);
    let reference = adapter::build_bk(&g, &sources);
    let (booted_graph, _) = adapter::boot(&bytes)?;
    report.check(
        adapter::same_graph(&booted_graph, &g),
        "snapshot graph differs from the generated graph",
    );
    let pool = request_pool(&g, &reference, seed);
    check_ground_truth(&g, &sources, &pool[..GROUND_TRUTH], report);

    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SPAWNS {
        if let Some(previous) = server.take() {
            Server::stop(previous, None)?;
        }
        let (next, took) = Server::spawn(paths)?;
        setups.push(took);
        server = Some(next);
    }
    let server = server.expect("SPAWNS > 0");

    let mut conn = Conn::open(server.addr)?;
    let mut cursor = 0usize;
    closed_loop(&mut conn, &pool, &mut cursor, Duration::ZERO, WARMUP, report)?;
    // The phases take turns, CYCLES times, so that a stretch of interference from outside
    // the benchmark lands in some turns of each phase instead of all of one phase.
    let cycle = budget.time / CYCLES;
    let (mut rtt, mut open) = (Vec::new(), Vec::new());
    let (mut answers, mut pipelined_time) = (0usize, Duration::ZERO);
    let mut late_max = 0f64;
    for _ in 0..CYCLES {
        rtt.push(closed_loop(&mut conn, &pool, &mut cursor, cycle * 7 / 20, MIN_WINDOW, report)?);
        let (n, took) = pipelined(&mut conn, &pool, &mut cursor, cycle / 4, report)?;
        answers += n;
        pipelined_time += took;
        let (latencies, late) = open_loop(&mut conn, &pool, &mut cursor, cycle * 2 / 5, report)?;
        open.push(latencies);
        late_max = late_max.max(late);
    }
    let hwm = server.vm_hwm_bytes()?;
    Server::stop(server, Some(conn))?;

    let rtt_p50 = windowed(&rtt, 50.0);
    if trace {
        report.metric("loadgen.late_max_us", late_max, "us");
        replay(&bytes, &pool, rtt_p50, report)?;
    } else {
        report.metric("rtt_p50_us", rtt_p50, "us");
        // Printed for reading, not gated: on a 2-vCPU guest these move by more than any
        // usable bound between runs of the same code (see README.md). The pipelined rate
        // pools all turns, weighing the handoff's fast and slow modes by their time.
        eprintln!(
            "not gated: rtt_p90_us {:.1} rtt_p99_us {:.1} pipelined_qps {:.0} open_p50_us {:.1} \
             open_p90_us {:.1} open_p99_us {:.1}",
            windowed(&rtt, 90.0),
            windowed(&rtt, 99.0),
            answers as f64 / pipelined_time.as_secs_f64(),
            windowed(&open, 50.0),
            windowed(&open, 90.0),
            windowed(&open, 99.0)
        );
        let per_edge = hwm as f64 / adapter::edge_count(&g) as f64;
        report.metric("serve_rss_bytes_per_edge", per_edge, "B");
    }
    Ok(median_secs(&setups))
}

fn create_snapshot(paths: &Paths<'_>) -> Result<(), String> {
    let status = Command::new(paths.msrpctl)
        .args(["create", NAME, "--n", &N.to_string(), "--sources", &SIGMA.to_string()])
        .args([
            "--shards",
            &adapter::SHARDS.to_string(),
            "--seed",
            &adapter::GRAPH_SEED.to_string(),
        ])
        .arg("--state-dir")
        .arg(&paths.state_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run msrpctl create: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("msrpctl create failed: {status}"))
    }
}

/// Seeded requests: the source is uniform over the σ sources and the target uniform; the
/// avoided edge is, half the time, an edge of the canonical path (so a replacement row is
/// read) and otherwise a uniform edge.
fn request_pool(g: &CsrGraph, reference: &ShardedOracle, seed: u64) -> Vec<Pending> {
    let mut rng = StdRng::seed_from_u64(seed ^ QUERY_TAG);
    let edges = adapter::csr_edges(g);
    let sources = adapter::evenly_spread(N, SIGMA);
    (0..POOL)
        .map(|_| {
            let s = sources[rng.gen_range(0..SIGMA)];
            let t = rng.gen_range(0..N);
            let path = adapter::canonical_path(reference, s, t).unwrap_or_default();
            let on_path = path.len() >= 2 && rng.gen_range(0..2usize) == 0;
            let avoid = if on_path {
                let i = rng.gen_range(0..path.len() - 1);
                adapter::edge(path[i], path[i + 1])
            } else {
                edges[rng.gen_range(0..edges.len())]
            };
            let query = adapter::query(s, t, avoid);
            Pending {
                query,
                line: adapter::query_line(&query),
                expected: adapter::format_answer(adapter::lookup(reference, query)),
                on_path,
            }
        })
        .collect()
}

/// The reference oracle itself, on a seeded sample, against avoiding-BFS ground truth.
fn check_ground_truth(g: &CsrGraph, sources: &[usize], sample: &[Pending], report: &mut Report) {
    let mut scratch = BfsScratch::new();
    for p in sample {
        let truth =
            adapter::format_answer(adapter::avoiding_bfs(g, sources, p.query, &mut scratch));
        report.op(truth == p.expected);
        report.check(
            truth == p.expected,
            format!("reference answer differs from BFS: {}", p.line.trim_end()),
        );
    }
}

/// One client connection with read and write deadlines.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| format!("read timeout: {e}"))?;
        stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| format!("write timeout: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
        Ok(Conn { reader: BufReader::new(stream), writer })
    }

    fn round_trip(&mut self, request: &str) -> Result<String, String> {
        send(&mut self.writer, request.as_bytes())?;
        let mut line = String::new();
        recv(&mut self.reader, &mut line)?;
        Ok(line)
    }
}

fn send(writer: &mut TcpStream, bytes: &[u8]) -> Result<(), String> {
    writer.write_all(bytes).map_err(|e| format!("send: {e}"))
}

/// Reads one reply line (newline stripped); a closed connection is an error.
fn recv(reader: &mut BufReader<TcpStream>, line: &mut String) -> Result<(), String> {
    line.clear();
    match reader.read_line(line) {
        Ok(0) => Err("server closed the connection".into()),
        Ok(_) => {
            let len = line.trim_end().len();
            line.truncate(len);
            Ok(())
        }
        Err(e) => Err(format!("receive: {e}")),
    }
}

/// A spawned `msrpctl serve`, killed on drop unless it already exited.
struct Server {
    child: Child,
    addr: SocketAddr,
    stdout: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Spawns the server and waits until it answers `STATS` on a probe connection, which
    /// is closed before traffic starts (the server handles one connection at a time).
    fn spawn(paths: &Paths<'_>) -> Result<(Server, Duration), String> {
        let addr_file = paths.state_dir.join(format!("{NAME}.addr"));
        let _ = std::fs::remove_file(&addr_file);
        let start = Instant::now();
        let mut child = Command::new(paths.msrpctl)
            .args(["serve", NAME, "127.0.0.1:0", "--workers", &adapter::WORKERS.to_string()])
            .arg("--state-dir")
            .arg(&paths.state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn msrpctl serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let pump = thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut server =
            Server { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)), stdout: Some(pump) };
        // `msrpctl serve` prints its banner after it wrote NAME.addr.
        let banner = rx
            .recv_timeout(PROCESS_TIMEOUT)
            .map_err(|_| "msrpctl serve did not start".to_string())?;
        if !banner.starts_with("serving") {
            return Err(format!("unexpected banner from msrpctl serve: {banner}"));
        }
        let addr =
            std::fs::read_to_string(&addr_file).map_err(|e| format!("read {NAME}.addr: {e}"))?;
        server.addr = addr.trim().parse().map_err(|e| format!("address {addr:?}: {e}"))?;
        let reply = Conn::open(server.addr)?.round_trip("STATS\n")?;
        if !adapter::is_stats_reply(&reply) {
            return Err(format!("unexpected STATS reply: {reply}"));
        }
        Ok((server, start.elapsed()))
    }

    /// Peak resident set (`VmHWM`) of the server process.
    fn vm_hwm_bytes(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<u64>().ok())
            .map(|kb| kb * 1024)
            .ok_or_else(|| "no VmHWM in the server status".to_string())
    }

    /// `STOP` (on `conn`, or a fresh connection), then waits for the process to exit.
    fn stop(mut self, conn: Option<Conn>) -> Result<(), String> {
        let mut conn = match conn {
            Some(c) => c,
            None => Conn::open(self.addr)?,
        };
        let reply = conn.round_trip("STOP\n")?;
        drop(conn);
        if reply != "OK stopping" {
            return Err(format!("unexpected STOP reply: {reply}"));
        }
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("msrpctl serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(2)),
                Ok(None) => return Err("msrpctl serve did not exit after STOP".into()),
                Err(e) => return Err(format!("wait for msrpctl serve: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(pump) = self.stdout.take() {
            let _ = pump.join();
        }
    }
}

fn next<'p>(pool: &'p [Pending], cursor: &mut usize) -> &'p Pending {
    let p = &pool[*cursor % pool.len()];
    *cursor += 1;
    p
}

/// One outstanding line at a time, for `duration` and at least `min_requests` requests.
/// Returns each round trip in microseconds.
///
/// The client polls for each reply instead of sleeping in `read`, so its own wake-up is
/// not part of the round trip: on a virtual machine that wake-up costs tens of
/// microseconds and follows the load of the host, not the server under test.
fn closed_loop(
    conn: &mut Conn,
    pool: &[Pending],
    cursor: &mut usize,
    duration: Duration,
    min_requests: usize,
    report: &mut Report,
) -> Result<Vec<f64>, String> {
    let end = Instant::now() + duration;
    let mut rtt = Vec::new();
    let mut line = String::new();
    set_polling(conn, true)?;
    while rtt.len() < min_requests || Instant::now() < end {
        let p = next(pool, cursor);
        let sent = Instant::now();
        send(&mut conn.writer, p.line.as_bytes())?;
        poll_recv(&mut conn.reader, &mut line)?;
        rtt.push(sent.elapsed().as_secs_f64() * 1e6);
        report.op(line == p.expected);
    }
    set_polling(conn, false)?;
    Ok(rtt)
}

/// Makes the connection non-blocking, or blocking again: a read then returns at once when
/// no reply has arrived. The writer shares the socket and so turns non-blocking too; a
/// one-line request always fits the empty send buffer of the closed loop.
fn set_polling(conn: &Conn, on: bool) -> Result<(), String> {
    conn.reader.get_ref().set_nonblocking(on).map_err(|e| format!("set non-blocking: {e}"))
}

/// [`recv`] on a non-blocking connection: retries until a whole line has arrived, or
/// fails after `IO_TIMEOUT`. A part of a line read before a retry stays in `line`.
fn poll_recv(reader: &mut BufReader<TcpStream>, line: &mut String) -> Result<(), String> {
    line.clear();
    let deadline = Instant::now() + IO_TIMEOUT;
    loop {
        match reader.read_line(line) {
            Ok(_) if line.ends_with('\n') => {
                let len = line.trim_end().len();
                line.truncate(len);
                return Ok(());
            }
            Ok(_) => return Err("server closed the connection".into()),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err("receive: timed out".into());
                }
                std::hint::spin_loop();
            }
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
}

/// `WINDOW` lines outstanding, from one thread: every reply read frees a slot that the
/// next write refills, and all replies already buffered are read before writing again.
/// Returns the answers received and the time they took.
fn pipelined(
    conn: &mut Conn,
    pool: &[Pending],
    cursor: &mut usize,
    duration: Duration,
    report: &mut Report,
) -> Result<(usize, Duration), String> {
    let first = *cursor;
    let start = Instant::now();
    let (mut sent, mut received) = (0usize, 0usize);
    let mut buf = Vec::new();
    let mut line = String::new();
    loop {
        buf.clear();
        if start.elapsed() < duration {
            while sent - received < WINDOW {
                buf.extend_from_slice(pool[(first + sent) % pool.len()].line.as_bytes());
                sent += 1;
            }
            send(&mut conn.writer, &buf)?;
        }
        if received == sent {
            break;
        }
        loop {
            recv(&mut conn.reader, &mut line)?;
            report.op(line == pool[(first + received) % pool.len()].expected);
            received += 1;
            if received == sent || !conn.reader.buffer().contains(&b'\n') {
                break;
            }
        }
    }
    *cursor += sent;
    Ok((received, start.elapsed()))
}

/// Sleeps, then yields, until `due`.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if due - now > SPIN {
            thread::sleep(due - now - SPIN);
        } else {
            thread::yield_now();
        }
    }
}

/// A fixed `OPEN_RATE` schedule regardless of replies. Each latency runs from the request's
/// due time, so a stall also counts against the requests queued behind it. Returns the
/// latencies and how late the generator sent, both in microseconds.
fn open_loop(
    conn: &mut Conn,
    pool: &[Pending],
    cursor: &mut usize,
    duration: Duration,
    report: &mut Report,
) -> Result<(Vec<f64>, f64), String> {
    let first = *cursor;
    let interval = Duration::from_secs(1) / OPEN_RATE;
    let count = ((duration.as_secs_f64() * f64::from(OPEN_RATE)) as usize).max(MIN_WINDOW);
    let due = |i: usize| -> Duration { interval * u32::try_from(i).expect("schedule fits u32") };
    let start = Instant::now() + Duration::from_millis(1);
    let writer = &mut conn.writer;
    let reader = &mut conn.reader;
    let (latencies, late_max) = thread::scope(|scope| {
        let sender = scope.spawn(move || -> Result<f64, String> {
            let mut late_max = Duration::ZERO;
            for i in 0..count {
                let at = start + due(i);
                wait_until(at);
                late_max = late_max.max(at.elapsed());
                send(writer, pool[(first + i) % pool.len()].line.as_bytes())?;
            }
            send(writer, b"STATS\n")?;
            Ok(late_max.as_secs_f64() * 1e6)
        });
        let mut latencies = Vec::with_capacity(count);
        let mut line = String::new();
        let read = loop {
            if let Err(e) = recv(reader, &mut line) {
                break Err(e);
            }
            let now = Instant::now();
            if adapter::is_stats_reply(&line) {
                break Ok(());
            }
            let i = latencies.len();
            latencies.push((now - (start + due(i))).as_secs_f64() * 1e6);
            report.op(line == pool[(first + i) % pool.len()].expected);
        };
        let late = sender.join().expect("open-loop writer panicked");
        read.and(late.map(|late| (latencies, late)))
    })?;
    if latencies.len() != count {
        return Err(format!(
            "sent {count} open-loop requests but received {} replies",
            latencies.len()
        ));
    }
    *cursor += count;
    Ok((latencies, late_max))
}

/// The traced replay: the request stream through `msrpctl`'s per-line calls, in-process,
/// over an in-memory buffer, once untimed and once with every call timed.
fn replay(
    bytes: &[u8],
    pool: &[Pending],
    rtt_p50_us: f64,
    report: &mut Report,
) -> Result<(), String> {
    let mut boots = Vec::new();
    let mut booted = None;
    for _ in 0..SPAWNS {
        let t = Instant::now();
        booted = Some(adapter::boot(bytes)?);
        boots.push(t.elapsed());
    }
    let (_, oracle) = booted.expect("SPAWNS > 0");
    report.metric("snap.boot_ms", 1e3 * median_secs(&boots), "ms");

    let requests = &pool[..REPLAY];
    let input: Vec<u8> = requests.iter().flat_map(|p| p.line.bytes()).collect();
    let n = adapter::vertex_count(&oracle);
    let service = adapter::start_service(oracle.clone());

    // A warm-up pass, then untimed and traced passes in turn; the tracing overhead
    // compares their median walls. The budget check uses the last traced pass.
    replay_pass(&service, &input, n, None)?;
    let expected: String = requests.iter().map(|p| format!("{}\n", p.expected)).collect();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut layers = Layers::default();
    let mut traced_wall = Duration::ZERO;
    for _ in 0..REPLAY_PAIRS {
        let start = Instant::now();
        let plain_out = replay_pass(&service, &input, n, None)?;
        plain_walls.push(start.elapsed());
        layers = Layers::default();
        let start = Instant::now();
        let traced_out = replay_pass(&service, &input, n, Some(&mut layers))?;
        traced_wall = start.elapsed();
        traced_walls.push(traced_wall);
        for out in [&plain_out, &traced_out] {
            let ok = out.as_slice() == expected.as_bytes();
            report.op(ok);
            report.check(ok, "in-process replay answers differ from the reference");
        }
    }
    adapter::shutdown(service);

    let staged: f64 = layers.all().iter().map(|v| v.iter().sum::<f64>()).sum();
    let wall_ns = traced_wall.as_secs_f64() * 1e9;
    let floor_ns = BUDGET_FLOOR.as_secs_f64() * 1e9;
    report.metric("budget.serve_replay_ratio", staged / wall_ns, "ratio");
    report.check(
        (wall_ns - staged).abs() <= (wall_ns / 10.0).max(floor_ns),
        format!("replay layers cover {:.3} of the replay wall", staged / wall_ns),
    );
    report.metric(
        "trace.serve_overhead_pct",
        100.0 * (median_secs(&traced_walls) / median_secs(&plain_walls) - 1.0),
        "%",
    );

    let [read, parse, validate, answer, format] = layers.all().map(|v| median(&mut v.clone()));
    report.metric("wire.read_line_ns", read, "ns");
    report.metric("protocol.parse_ns", parse, "ns");
    report.metric("protocol.validate_ns", validate, "ns");
    report.metric("service.answer_batch_ns", answer, "ns");
    report.metric("protocol.format_ns", format, "ns");

    let on: Vec<Query> = requests.iter().filter(|p| p.on_path).map(|p| p.query).collect();
    let off: Vec<Query> = requests.iter().filter(|p| !p.on_path).map(|p| p.query).collect();
    let all: Vec<Query> = requests.iter().map(|p| p.query).collect();
    report.metric("oracle.lookup_onpath_ns", lookup_ns(&oracle, &on), "ns");
    report.metric("oracle.lookup_offpath_ns", lookup_ns(&oracle, &off), "ns");
    report.metric("service.handoff_ns", answer - lookup_ns(&oracle, &all), "ns");
    let in_process_us = (read + parse + validate + answer + format) / 1e3;
    report.metric("msrpctl.socket_residual_us", rtt_p50_us - in_process_us, "us");
    Ok(())
}

/// Per-call times of the replay, in nanoseconds, one vector per layer.
#[derive(Default)]
struct Layers {
    read: Vec<f64>,
    parse: Vec<f64>,
    validate: Vec<f64>,
    answer: Vec<f64>,
    format: Vec<f64>,
}

impl Layers {
    fn all(&self) -> [&Vec<f64>; 5] {
        [&self.read, &self.parse, &self.validate, &self.answer, &self.format]
    }
}

fn ns(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e9
}

/// One pass of `msrpctl`'s connection loop over `input`; returns the bytes it wrote.
fn replay_pass(
    service: &adapter::QueryService,
    input: &[u8],
    n: usize,
    mut layers: Option<&mut Layers>,
) -> Result<Vec<u8>, String> {
    let mut reader = Cursor::new(input);
    let mut out = Vec::with_capacity(input.len());
    let mut line = String::new();
    loop {
        let t0 = Instant::now();
        match adapter::read_line(&mut reader, &mut line).map_err(|e| format!("replay read: {e}"))? {
            LineOutcome::Line => {}
            LineOutcome::Eof => return Ok(out),
            LineOutcome::TooLong => return Err("replay line too long".into()),
        }
        let t1 = Instant::now();
        let q = match adapter::parse_request(line.trim_end())? {
            Request::Query(q) => q,
            other => return Err(format!("replay parsed {other:?}, not a query")),
        };
        let t2 = Instant::now();
        adapter::validate_query(&q, n)?;
        let t3 = Instant::now();
        let answer = adapter::answer_batch(service, &[q])[0];
        let t4 = Instant::now();
        writeln!(out, "{}", adapter::format_answer(answer)).expect("writing to a Vec cannot fail");
        let t5 = Instant::now();
        if let Some(l) = layers.as_deref_mut() {
            l.read.push(ns(t0, t1));
            l.parse.push(ns(t1, t2));
            l.validate.push(ns(t2, t3));
            l.answer.push(ns(t3, t4));
            l.format.push(ns(t4, t5));
        }
    }
}

/// Median over `LOOKUP_REPEATS` timed loops of the mean in-process lookup, in nanoseconds.
fn lookup_ns(oracle: &ShardedOracle, queries: &[Query]) -> f64 {
    let mut per_call: Vec<f64> = (0..LOOKUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            for &q in queries {
                std::hint::black_box(adapter::lookup(oracle, std::hint::black_box(q)));
            }
            start.elapsed().as_secs_f64() * 1e9 / queries.len() as f64
        })
        .collect();
    median(&mut per_call)
}
