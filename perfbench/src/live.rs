//! The server workloads. The server runs in its own process
//! (`perfbench serve-child`, started from `popflow_server::Server::start`
//! with the shipped load-profile budgets); this process is the load
//! generator.
//!
//! - `serve_live`: open loop. One connection paces the stream at a
//!   fixed record rate and holds four standing queries on 3-minute
//!   buckets; latencies are timed from each batch's scheduled send.
//! - `ingest_flood`: closed loop. Two ingest connections each keep
//!   twelve 256-record batches in flight, past the queue capacity, on
//!   the profile's 36-minute buckets.
//!
//! A run is a sequence of rounds. Each round starts a fresh server
//! process (its set-up is one `setup_s` sample), drives the whole
//! stream, collects every top-k delta and checks it bit for bit
//! against `reference_deltas`, scrapes `GET /metrics`, and stops the
//! server, reading its peak resident set on the way out.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use indoor_iupt::Record;
use popflow_server::protocol::{role, Frame, FrameReader, PROTOCOL_VERSION};
use popflow_server::scenario::{reference_deltas, LoadProfile};
use popflow_server::{Client, Server};

use crate::probe::{self, BATCH_RECORDS};
use crate::stats::{self, median, median_of_rounds, quantile, ratio, Sheet};
use crate::trace::{SpanId, Tracer};
use crate::world::{adhoc_query, stream_inputs, LiveShape, StreamInputs};
use crate::{vm_hwm_mb, Args, Outcome};

/// Records per second the open loop offers (well below the drain cap
/// of 256 records per 1 ms tick).
const LIVE_RATE: f64 = 50_000.0;

/// Records per open-loop batch.
const LIVE_BATCH: usize = 64;

/// Closed-loop in-flight batches per connection: 12 × 256 = 3072
/// records, past the 2048-record queue, so the throttle path runs.
const FLOOD_PIPELINE: usize = 12;

/// Ingest connections of the closed loop.
const FLOOD_CONNECTIONS: usize = 2;

/// How long any single wait on the server may take before the run
/// counts it as a failure.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Queries the traced run probes layer by layer on the stream world.
const PROBE_QUERIES: u64 = 6;

fn is_live(workload: &str) -> bool {
    workload == "serve_live"
}

/// The workload's stream and query shape.
pub fn shape(workload: &str, tiny: bool) -> LiveShape {
    let scale = match (is_live(workload), tiny) {
        (_, true) => 0.02,
        (true, false) => 1.0,
        (false, false) => 2.0,
    };
    let base = LoadProfile::new(scale, 0);
    let profile = if is_live(workload) {
        LoadProfile {
            queries: 4,
            bucket_millis: 180_000,
            ..base
        }
    } else {
        base
    };
    LiveShape { profile, shards: 2 }
}

fn streams(workload: &str) -> u32 {
    if is_live(workload) {
        1
    } else {
        FLOOD_CONNECTIONS as u32
    }
}

/// The server process: builds the venue, starts the server, prints
/// `ready <addr>`, serves until its stdin closes, then prints its peak
/// resident set.
pub fn serve_child(args: &Args) -> Result<(), String> {
    let shape = shape(&args.workload, args.tiny);
    let space = Arc::new(shape.venue());
    let config = shape.server_config(streams(&args.workload));
    let mut server =
        Server::start(space, config, "127.0.0.1:0").map_err(|e| format!("server start: {e}"))?;
    let mut out = std::io::stdout();
    writeln!(out, "ready {}", server.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    let mut sink = String::new();
    let _ = std::io::stdin().read_to_string(&mut sink);
    server.shutdown();
    writeln!(out, "vmhwm_mb {}", vm_hwm_mb()?).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

/// A running server process.
struct ServerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerProcess {
    fn start(args: &Args) -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["serve-child", "--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()]);
        if args.tiny {
            cmd.arg("--tiny");
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().ok_or("server stdout")?);
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("server ready line: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("ready ")
            .ok_or_else(|| format!("server did not start: {line:?}"))?
            .to_string();
        Ok(ServerProcess {
            child,
            stdin,
            stdout,
            addr,
        })
    }

    /// Closes the server's stdin, reads its peak RSS and waits for it.
    fn stop(mut self) -> Result<f64, String> {
        drop(self.stdin.take());
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| format!("wait server: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        rest.lines()
            .find_map(|l| l.strip_prefix("vmhwm_mb "))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("server printed no peak RSS: {rest:?}"))
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Per-round measurements and checks.
#[derive(Debug, Default)]
struct Round {
    /// When the queries were registered and the stream could start.
    ready: Option<Instant>,
    /// Ack latency per batch, ms.
    ack_ms: Vec<f64>,
    /// Freshness per bucket boundary, ms (open loop).
    fresh_ms: Vec<f64>,
    /// Send lag per batch, ms.
    send_lag_ms: Vec<f64>,
    /// Batches sent (first sends).
    batches: u64,
    /// Batches acked.
    acked: u64,
    /// Records acked.
    records: u64,
    /// First send to last ack, seconds.
    wall_s: f64,
    /// Top-k deltas received, in arrival order.
    deltas: Vec<Frame>,
    /// Throttle frames seen.
    throttles: u64,
    /// Error frames, timeouts and other failed operations.
    errors: u64,
    /// Whether the open-loop backlog grew across the round.
    overloaded: bool,
}

/// The end-of-round `GET /metrics` counters the workload reads.
#[derive(Debug, Default)]
struct Scrape {
    records_ingested: u64,
    throttles: u64,
    queue_peak: u64,
    advances_deferred: u64,
    tick_lag_p99_ns: u64,
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let live = is_live(&args.workload);
    let shape = shape(&args.workload, args.tiny);
    let seeded = LiveShape {
        profile: LoadProfile {
            seed: args.seed,
            ..shape.profile
        },
        ..shape
    };
    let config = shape.server_config(streams(&args.workload));
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let (mut setup_s, mut generate_s, mut rss_mb) = (Vec::new(), Vec::new(), Vec::new());
    let mut all = Round::default();
    // Per round: headline p50, headline p90, records acked per second.
    let (mut round_p50, mut round_p90, mut round_rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut scrapes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut want: Option<Vec<Frame>> = None;
    let mut inputs: Option<StreamInputs> = None;
    let mut round_no = 0i64;
    while started.elapsed() < budget || round_no == 0 {
        let root = tracer.open("loadgen.round", round_no, None);
        // Set-up: generate the stream, start the server process, connect
        // and register the standing queries.
        drop(inputs.take());
        let g0 = Instant::now();
        let round_inputs = stream_inputs(&seeded);
        let g1 = Instant::now();
        tracer.record("sim.generate", round_no, root, g0, g1);
        generate_s.push((g1 - g0).as_secs_f64());
        let specs = shape.profile.query_specs(&round_inputs.world);
        let slocs = shape.profile.query_slocs(&round_inputs.world);
        if want.is_none() {
            let c0 = Instant::now();
            let frames = reference_deltas(
                Arc::clone(&round_inputs.space),
                config.serve.clone(),
                &specs,
                &round_inputs.records,
            )
            .map_err(|e| format!("reference run: {e}"))?;
            tracer.record("check.reference", round_no, root, c0, Instant::now());
            println!(
                "{}: {} records, {} standing queries, {} ms buckets, {} reference deltas, seed {}",
                args.workload,
                round_inputs.records.len(),
                specs.len(),
                shape.profile.bucket_millis,
                frames.len(),
                args.seed
            );
            want = Some(frames);
        }
        let want = want.as_deref().unwrap_or_default();
        let s0 = Instant::now();
        let server = ServerProcess::start(args)?;
        let round = if live {
            open_loop(
                &server.addr,
                &shape,
                &round_inputs,
                &slocs,
                want.len(),
                tracer,
                root,
            )
        } else {
            closed_loop(
                &server.addr,
                &shape,
                &round_inputs,
                &slocs,
                want.len(),
                tracer,
                root,
            )
        };
        let scrape = tracer.scope("server.scrape", round_no, root, |_| {
            scrape_metrics(&server.addr)
        });
        let rss = server.stop()?;
        tracer.close(root);
        let mut round = round?;
        let scrape = scrape?;
        let ready = round.ready.ok_or("round never became ready")?;
        tracer.record("server.setup", round_no, root, s0, ready);
        setup_s.push((g1 - g0 + (ready - s0)).as_secs_f64());
        rss_mb.push(rss);
        // Checks: every batch acked, every record ingested, every delta
        // bit-identical to the in-process reference.
        let sent_records = round_inputs.records.len() as u64;
        let checks = [
            ("every batch acked", round.acked == round.batches),
            (
                "records_ingested = records sent",
                scrape.records_ingested == sent_records,
            ),
            ("deltas = reference_deltas", round.deltas == want),
        ];
        for (name, ok) in checks {
            attempted += 1;
            if !ok {
                failed += 1;
                eprintln!("{}: round {round_no}: check failed: {name}", args.workload);
            }
        }
        attempted += round.batches;
        failed += round.errors;
        let headline = if live { &round.fresh_ms } else { &round.ack_ms };
        round_p50.push(quantile(headline, 0.50).value);
        round_p90.push(quantile(headline, 0.90).value);
        round_rate.push(Some(ratio(round.records as f64, round.wall_s)));
        println!(
            "{} round {round_no}: setup {:.3} s, latency p50 {:.3} p90 {:.3} ms, {:.0} records/s, {} throttles, peak RSS {rss:.1} MB",
            args.workload,
            setup_s.last().copied().unwrap_or(0.0),
            round_p50.last().copied().flatten().unwrap_or(f64::NAN),
            round_p90.last().copied().flatten().unwrap_or(f64::NAN),
            ratio(round.records as f64, round.wall_s),
            round.throttles,
        );
        all.overloaded |= round.overloaded;
        all.ack_ms.append(&mut round.ack_ms);
        all.fresh_ms.append(&mut round.fresh_ms);
        all.send_lag_ms.append(&mut round.send_lag_ms);
        all.batches += round.batches;
        all.records += round.records;
        all.wall_s += round.wall_s;
        all.throttles += round.throttles;
        scrapes.push(scrape);
        inputs = Some(round_inputs);
        round_no += 1;
    }
    let inputs = inputs.ok_or("no round ran")?;
    println!(
        "{}: {round_no} rounds, {} batches, {} throttles",
        args.workload, all.batches, all.throttles
    );

    let peak_rss = median(&rss_mb);
    let lags: Vec<f64> = scrapes
        .iter()
        .map(|s| s.tick_lag_p99_ns as f64 / 1e6)
        .collect();
    let mut report = Sheet::default();
    report.put_n("setup_s", median(&setup_s), setup_s.len(), "s");
    if live {
        report.put_q("freshness_ms_p50", quantile(&all.fresh_ms, 0.50), "ms");
        report.put_q("freshness_ms_p95", quantile(&all.fresh_ms, 0.95), "ms");
    }
    report.put_q("ack_ms_p50", quantile(&all.ack_ms, 0.50), "ms");
    report.put_q("ack_ms_p99", quantile(&all.ack_ms, 0.99), "ms");
    if !live {
        report.put_n(
            "ingest_rec_per_s",
            Some(ratio(all.records as f64, all.wall_s)),
            all.records as usize,
            "1/s",
        );
    }
    report.put_n("peak_rss_mb", peak_rss, rss_mb.len(), "MB");
    report.put_n(
        "error_share",
        Some(ratio(failed as f64, attempted as f64)),
        attempted as usize,
        "share",
    );
    // The server's own p99 tick lag, median over the rounds' scrapes.
    report.put_n("server.tick_lag_ms_p99", median(&lags), lags.len(), "ms");
    if live {
        report.put_q(
            "loadgen.send_lag_ms_p99",
            quantile(&all.send_lag_ms, 0.99),
            "ms",
        );
    }

    // End-to-end figures are medians over rounds of each round's value
    // (n = rounds); the pooled quantiles above carry the sample counts.
    let rounds = round_p50.len();
    let mut e2e = Sheet::default();
    e2e.put_n("setup_s", median(&setup_s), setup_s.len(), "s");
    e2e.put_n("latency_ms_p50", median_of_rounds(&round_p50), rounds, "ms");
    e2e.put_n("latency_ms_p90", median_of_rounds(&round_p90), rounds, "ms");
    e2e.put_n(
        "throughput_per_s",
        median_of_rounds(&round_rate),
        rounds,
        "1/s",
    );
    e2e.put_n("peak_rss_mb", peak_rss, rss_mb.len(), "MB");

    let mut layers = Sheet::default();
    if tracer.enabled() {
        layers.put_n("sim.generate_s", median(&generate_s), generate_s.len(), "s");
        let StreamInputs {
            mut world,
            space,
            records,
        } = inputs;
        let specs = shape.profile.query_specs(&world);
        let queries: Vec<_> = (0..PROBE_QUERIES)
            .map(|i| adhoc_query(&world, args.seed, i))
            .collect();
        let mismatches =
            probe::batch_layers(&space, &mut world.iupt, &queries, tracer, &mut layers)?;
        attempted += queries.len() as u64;
        failed += mismatches as u64;
        let replay = probe::serve_layers(
            &space,
            &config.serve,
            &specs,
            &records,
            true,
            tracer,
            &mut layers,
        )?;
        let codec = probe::codec_layers(&records, tracer, &mut layers)?;
        // The share of the loop's send-to-ack wall time that neither wire
        // decode nor engine ingest of the same records explains.
        let explained_per_record = ratio(codec.decode_s, records.len() as f64)
            + ratio(replay.ingest_s, replay.records as f64);
        let gap = 1.0 - ratio(explained_per_record * all.records as f64, all.wall_s);
        layers.put("server.gap_share", gap, "share");
        let throttles: u64 = scrapes.iter().map(|s| s.throttles).sum();
        layers.put(
            "server.throttle_share",
            ratio(throttles as f64, (all.batches + throttles) as f64),
            "share",
        );
        layers.put(
            "server.queue_peak",
            scrapes.iter().map(|s| s.queue_peak).max().unwrap_or(0) as f64,
            "count",
        );
        layers.put(
            "server.advances_deferred",
            ratio(
                scrapes.iter().map(|s| s.advances_deferred).sum::<u64>() as f64,
                scrapes.len() as f64,
            ),
            "count",
        );
        layers.put(
            "loadgen.late_share",
            stats::late_share(&all.send_lag_ms),
            "share",
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        overloaded: all.overloaded,
        report,
        e2e,
        layers,
    })
}

/// Connects one ingest connection (raw protocol halves: the writer for
/// this thread, the reader for a thread that timestamps arrivals).
fn connect_split(addr: &str) -> Result<(TcpStream, FrameReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone socket: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| format!("read timeout: {e}"))?;
    let mut reader = FrameReader::new(stream);
    Frame::Hello {
        version: PROTOCOL_VERSION,
        role: role::INGEST,
    }
    .write_to(&mut writer)
    .map_err(|e| format!("hello: {e}"))?;
    match reader.next_frame() {
        Ok(Some(Frame::Welcome { .. })) => Ok((writer, reader)),
        other => Err(format!("handshake: {other:?}")),
    }
}

fn register_all(
    writer: &mut TcpStream,
    reader: &mut FrameReader<TcpStream>,
    shape: &LiveShape,
    slocs: &[Vec<u32>],
) -> Result<(), String> {
    for q in slocs {
        Frame::Register {
            k: shape.profile.k(),
            bucket_millis: shape.profile.bucket_millis(),
            window_buckets: shape.profile.window_buckets() as u32,
            slocs: q.clone(),
        }
        .write_to(writer)
        .map_err(|e| format!("register: {e}"))?;
        match reader.next_frame() {
            Ok(Some(Frame::Registered { .. })) => {}
            other => return Err(format!("register reply: {other:?}")),
        }
    }
    Ok(())
}

/// The open loop: batch `i` is due when its last record arrives at
/// [`LIVE_RATE`]; it is sent then (late sends are reported as send
/// lag), and its ack and the deltas of the boundaries it crosses are
/// timed from that due instant.
fn open_loop(
    addr: &str,
    shape: &LiveShape,
    inputs: &StreamInputs,
    slocs: &[Vec<u32>],
    want_deltas: usize,
    tracer: &Tracer,
    root: Option<SpanId>,
) -> Result<Round, String> {
    let (mut writer, mut reader) = connect_split(addr)?;
    register_all(&mut writer, &mut reader, shape, slocs)?;
    let ready = Instant::now();

    let (tx, rx) = mpsc::channel::<(Instant, Frame)>();
    let reader_thread = std::thread::spawn(move || {
        while let Ok(Some(frame)) = reader.next_frame() {
            if tx.send((Instant::now(), frame)).is_err() {
                break;
            }
        }
    });

    let batches: Vec<&[Record]> = inputs.records.chunks(LIVE_BATCH).collect();
    let width = shape.profile.bucket_millis();
    // The first batch carrying a record at or after each boundary.
    let mut boundary_batch: BTreeMap<i64, usize> = BTreeMap::new();
    if let Some(first) = inputs.records.first() {
        let mut next_b = (first.t.millis().div_euclid(width) + 1) * width;
        for (i, b) in batches.iter().enumerate() {
            let max_t = b.last().map_or(i64::MIN, |r| r.t.millis());
            while next_b <= max_t {
                boundary_batch.insert(next_b, i);
                next_b += width;
            }
        }
    }

    let mut round = Round {
        ready: Some(ready),
        ..Round::default()
    };
    let mut state = LiveState::default();
    let stream_span = tracer.open("loadgen.stream", 0, root);
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(((i + 1) * LIVE_BATCH) as f64 / LIVE_RATE);
    let mut backlog: Vec<u64> = Vec::with_capacity(batches.len());
    let mut sent_records = 0u64;
    for (i, batch) in batches.iter().enumerate() {
        let at = due(i);
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        let sent = Instant::now();
        tracer.record("loadgen.idle", i as i64, stream_span, now, sent);
        Frame::IngestBatch {
            seq: i as u64,
            records: batch.to_vec(),
        }
        .write_to(&mut writer)
        .map_err(|e| format!("send batch {i}: {e}"))?;
        round.send_lag_ms.push((sent - at).as_secs_f64() * 1e3);
        round.batches += 1;
        sent_records += batch.len() as u64;
        state.drain(&rx, &mut writer, &batches, &mut round)?;
        backlog.push(sent_records - state.acked_records);
    }
    // Wait for every ack, then end the stream so the last boundary runs.
    let deadline = Instant::now() + IO_TIMEOUT;
    while state.acked.len() < batches.len() && Instant::now() < deadline {
        state.wait(&rx, &mut writer, &batches, &mut round)?;
    }
    Frame::StreamEnd
        .write_to(&mut writer)
        .map_err(|e| format!("stream end: {e}"))?;
    while state.deltas.len() < want_deltas && Instant::now() < deadline {
        state.wait(&rx, &mut writer, &batches, &mut round)?;
    }
    tracer.close(stream_span);
    let _ = writer.shutdown(std::net::Shutdown::Both);
    let _ = reader_thread.join();

    if state.acked.len() < batches.len() || state.deltas.len() < want_deltas {
        round.errors += 1;
        eprintln!(
            "serve_live: timed out with {}/{} acks and {}/{} deltas",
            state.acked.len(),
            batches.len(),
            state.deltas.len(),
            want_deltas
        );
    }
    for (&seq, &at) in &state.acked {
        round.ack_ms.push((at - due(seq)).as_secs_f64() * 1e3);
        tracer.record("loadgen.batch", seq as i64, stream_span, due(seq), at);
    }
    round.acked = state.acked.len() as u64;
    round.records = state.acked_records;
    round.wall_s = state.last_ack.map_or(0.0, |t| (t - start).as_secs_f64());
    // Freshness: from the due instant of the batch that first carries a
    // record at or after B to the last delta with advance_millis = B.
    let queries = slocs.len();
    for (b, (count, last)) in &state.boundary_deltas {
        if let Some(&i) = boundary_batch.get(b) {
            if *count == queries {
                round.fresh_ms.push((*last - due(i)).as_secs_f64() * 1e3);
                tracer.record("loadgen.boundary", *b, stream_span, due(i), *last);
            }
        }
    }
    round.deltas = state.deltas;
    round.overloaded = backlog_grew(&backlog);
    Ok(round)
}

/// Whether the acked-record backlog grew across the round: the mean
/// backlog over the last quarter of sends exceeds twice the mean over
/// the first quarter plus four batches. A system that keeps up holds a
/// flat backlog of a batch or two; one that cannot grows it by the
/// shortfall times the round's length.
fn backlog_grew(backlog: &[u64]) -> bool {
    let q = backlog.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len() as f64;
    let first = mean(&backlog[..q]);
    let last = mean(&backlog[backlog.len() - q..]);
    last > 2.0 * first + 4.0 * LIVE_BATCH as f64
}

/// What the open loop has heard back so far.
#[derive(Debug, Default)]
struct LiveState {
    acked: BTreeMap<usize, Instant>,
    acked_records: u64,
    last_ack: Option<Instant>,
    deltas: Vec<Frame>,
    /// Per boundary: deltas received and arrival of the last one.
    boundary_deltas: BTreeMap<i64, (usize, Instant)>,
}

impl LiveState {
    fn handle(
        &mut self,
        at: Instant,
        frame: Frame,
        writer: &mut TcpStream,
        batches: &[&[Record]],
        round: &mut Round,
    ) -> Result<(), String> {
        match frame {
            Frame::BatchAck { seq, accepted, .. } => {
                self.acked.insert(seq as usize, at);
                self.acked_records += u64::from(accepted);
                self.last_ack = Some(at);
            }
            Frame::Throttle { seq, .. } => {
                // Re-send a refused batch; its latency keeps running
                // from the original due instant.
                round.throttles += 1;
                std::thread::sleep(Duration::from_micros(500));
                let records = batches
                    .get(seq as usize)
                    .ok_or("throttle for unknown seq")?
                    .to_vec();
                Frame::IngestBatch { seq, records }
                    .write_to(writer)
                    .map_err(|e| format!("re-send batch {seq}: {e}"))?;
            }
            Frame::TopkDelta { advance_millis, .. } => {
                let entry = self
                    .boundary_deltas
                    .entry(advance_millis)
                    .or_insert((0, at));
                entry.0 += 1;
                entry.1 = at;
                self.deltas.push(frame);
            }
            Frame::Error { detail, .. } => {
                round.errors += 1;
                eprintln!("serve_live: server error: {detail}");
            }
            _ => {}
        }
        Ok(())
    }

    fn drain(
        &mut self,
        rx: &Receiver<(Instant, Frame)>,
        writer: &mut TcpStream,
        batches: &[&[Record]],
        round: &mut Round,
    ) -> Result<(), String> {
        while let Ok((at, frame)) = rx.try_recv() {
            self.handle(at, frame, writer, batches, round)?;
        }
        Ok(())
    }

    fn wait(
        &mut self,
        rx: &Receiver<(Instant, Frame)>,
        writer: &mut TcpStream,
        batches: &[&[Record]],
        round: &mut Round,
    ) -> Result<(), String> {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok((at, frame)) => self.handle(at, frame, writer, batches, round),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(()),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err("server closed the connection".to_string())
            }
        }
    }
}

/// One closed-loop connection's results.
#[derive(Debug, Default)]
struct ConnResult {
    ack_ms: Vec<f64>,
    send_lag_ms: Vec<f64>,
    batches: u64,
    records: u64,
    throttles: u64,
    first_send: Option<Instant>,
    last_ack: Option<Instant>,
    deltas: Vec<Frame>,
}

/// The closed loop: [`FLOOD_CONNECTIONS`] connections, each with
/// [`FLOOD_PIPELINE`] batches in flight; a batch's latency runs from
/// its first send to its ack, across throttle re-sends.
fn closed_loop(
    addr: &str,
    shape: &LiveShape,
    inputs: &StreamInputs,
    slocs: &[Vec<u32>],
    want_deltas: usize,
    tracer: &Tracer,
    root: Option<SpanId>,
) -> Result<Round, String> {
    let mut clients = Vec::with_capacity(FLOOD_CONNECTIONS);
    for _ in 0..FLOOD_CONNECTIONS {
        let client = Client::connect(addr, role::INGEST).map_err(|e| format!("connect: {e}"))?;
        client
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        clients.push(client);
    }
    for q in slocs {
        clients[0]
            .register(
                shape.profile.k(),
                shape.profile.bucket_millis(),
                shape.profile.window_buckets() as u32,
                q,
            )
            .map_err(|e| format!("register: {e}"))?;
    }
    let ready = Instant::now();

    // Objects partition across connections by id, as the server's
    // watermark merge requires.
    let mut parts: Vec<Vec<Record>> = vec![Vec::new(); FLOOD_CONNECTIONS];
    for r in &inputs.records {
        parts[r.oid.0 as usize % FLOOD_CONNECTIONS].push(r.clone());
    }
    let stream_span = tracer.open("loadgen.stream", 0, root);
    let results: Vec<Result<ConnResult, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(parts)
            .enumerate()
            .map(|(conn, (client, part))| {
                let want = if conn == 0 { want_deltas } else { 0 };
                scope.spawn(move || drive_flood(client, &part, want, conn, tracer, stream_span))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("ingest thread panicked".to_string()))
            })
            .collect()
    });
    tracer.close(stream_span);
    let mut round = Round {
        ready: Some(ready),
        ..Round::default()
    };
    let (mut first, mut last): (Option<Instant>, Option<Instant>) = (None, None);
    for r in results {
        match r {
            Ok(mut c) => {
                round.acked += c.ack_ms.len() as u64;
                round.ack_ms.append(&mut c.ack_ms);
                round.send_lag_ms.append(&mut c.send_lag_ms);
                round.batches += c.batches;
                round.records += c.records;
                round.throttles += c.throttles;
                round.deltas.append(&mut c.deltas);
                first = match (first, c.first_send) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                last = last.max(c.last_ack);
            }
            Err(e) => {
                round.errors += 1;
                eprintln!("ingest_flood: {e}");
            }
        }
    }
    round.wall_s = match (first, last) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => 0.0,
    };
    Ok(round)
}

fn drive_flood(
    mut client: Client,
    records: &[Record],
    want_deltas: usize,
    conn: usize,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<ConnResult, String> {
    let mut out = ConnResult::default();
    let mut outstanding: VecDeque<(u64, Instant, &[Record])> = VecDeque::new();
    let span_base = (conn as i64) << 32;
    let settle = |outstanding: &mut VecDeque<(u64, Instant, &[Record])>,
                  client: &mut Client,
                  out: &mut ConnResult|
     -> Result<Instant, String> {
        let Some((seq, sent, chunk)) = outstanding.pop_front() else {
            return Ok(Instant::now());
        };
        loop {
            let acked = client
                .wait_batch_outcome(seq)
                .map_err(|e| format!("batch {seq} outcome: {e}"))?;
            let at = Instant::now();
            if acked {
                out.ack_ms.push((at - sent).as_secs_f64() * 1e3);
                out.records += chunk.len() as u64;
                out.last_ack = Some(at);
                tracer.record("loadgen.batch", span_base + seq as i64, parent, sent, at);
                return Ok(at);
            }
            out.throttles += 1;
            std::thread::sleep(Duration::from_micros(500));
            client
                .send_batch(seq, chunk.to_vec())
                .map_err(|e| format!("batch {seq} re-send: {e}"))?;
        }
    };
    let mut slot_open = Instant::now();
    for (i, chunk) in records.chunks(BATCH_RECORDS).enumerate() {
        if outstanding.len() >= FLOOD_PIPELINE {
            slot_open = settle(&mut outstanding, &mut client, &mut out)?;
        }
        let seq = i as u64;
        let sent = Instant::now();
        out.send_lag_ms.push((sent - slot_open).as_secs_f64() * 1e3);
        out.first_send.get_or_insert(sent);
        client
            .send_batch(seq, chunk.to_vec())
            .map_err(|e| format!("batch {seq} send: {e}"))?;
        out.batches += 1;
        outstanding.push_back((seq, sent, chunk));
        slot_open = Instant::now();
    }
    while !outstanding.is_empty() {
        settle(&mut outstanding, &mut client, &mut out)?;
    }
    client
        .stream_end()
        .map_err(|e| format!("stream end: {e}"))?;
    while out.deltas.len() < want_deltas {
        let frame = client
            .wait_for(|f| matches!(f, Frame::TopkDelta { .. }))
            .map_err(|e| format!("delta {}/{want_deltas}: {e}", out.deltas.len() + 1))?;
        out.deltas.push(frame);
    }
    Ok(out)
}

/// `GET /metrics` over a fresh connection, parsed into the counters the
/// workload reads.
fn scrape_metrics(addr: &str) -> Result<Scrape, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("scrape connect: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| format!("scrape timeout: {e}"))?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
        .map_err(|e| format!("scrape send: {e}"))?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| format!("scrape read: {e}"))?;
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let mut parts = line.split_whitespace();
        if let (Some(name), Some(value)) = (parts.next(), parts.next()) {
            if let Ok(v) = value.parse::<f64>() {
                values.insert(name, v);
            }
        }
    }
    let get = |name: &str| values.get(name).copied().unwrap_or(0.0) as u64;
    if !values.contains_key("server_records_ingested") {
        return Err(format!(
            "scrape lacks server_records_ingested: {:.200}",
            text
        ));
    }
    Ok(Scrape {
        records_ingested: get("server_records_ingested"),
        throttles: get("server_throttles"),
        queue_peak: get("server_queue_peak"),
        advances_deferred: get("server_advances_deferred"),
        tick_lag_p99_ns: get("server_tick_lag_ns{quantile=\"0.99\"}"),
    })
}
