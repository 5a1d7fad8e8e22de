//! Per-layer probes for the traced run: the benchmark times its own
//! calls into each crate's public functions on the workload's inputs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use indoor_iupt::{Iupt, Record, Timestamp};
use indoor_model::IndoorSpace;
use popflow_core::query::request::{BestFirstPar, NestedLoopPar};
use popflow_core::{
    object_flow_contributions, reduce_for_query, BatchEngine, ContinuousEngine, FlowConfig,
    QueryOutcome, QuerySpec, TkplqRequest,
};
use popflow_obs::MetricsRegistry;
use popflow_serve::{metric_names as serve_names, ServeConfig, ServeEngine};
use popflow_server::protocol::Frame;

use crate::stats::{quantile, ratio, Sheet};
use crate::trace::Tracer;
use crate::world::AdhocQuery;

/// Records per ingest batch on the wire.
pub const BATCH_RECORDS: usize = 256;

/// Advance samples the replay probe collects (re-running the replay on
/// fresh engines when one pass has fewer boundaries), so its p95 has
/// ten samples beyond it.
pub const MIN_ADVANCE_SAMPLES: usize = 200;

/// Wall-clock cap on the replay passes.
const REPLAY_BUDGET: Duration = Duration::from_secs(60);

/// Whether two rankings are bit-identical (same locations, same flow
/// bit patterns, same order).
pub fn same_ranking(a: &QueryOutcome, b: &QueryOutcome) -> bool {
    a.ranking.len() == b.ranking.len()
        && a.ranking
            .iter()
            .zip(&b.ranking)
            .all(|(x, y)| x.sloc == y.sloc && x.flow.to_bits() == y.flow.to_bits())
}

/// The batch engines' flow configuration: transition-DP presence at
/// `threads` workers.
pub fn batch_flow(threads: usize) -> FlowConfig {
    FlowConfig::default().with_dp_engine().with_threads(threads)
}

/// Times the batch path's layers on `queries`: the time index
/// (`Iupt::sequences_in`), reduction and PSL pruning
/// (`reduce_for_query`), presence (`object_flow_contributions` minus
/// its scan), the engines' own search at one thread, Best-First's
/// computed share and the two-thread efficiency of Nested-Loop. No
/// memo is attached, so every kernel is paid. Returns the number of
/// NL/BF ranking mismatches seen.
pub fn batch_layers(
    space: &IndoorSpace,
    iupt: &mut Iupt,
    queries: &[AdhocQuery],
    tracer: &Tracer,
    sheet: &mut Sheet,
) -> Result<usize, String> {
    let flow1 = batch_flow(1);
    let registry = MetricsRegistry::new();
    let bf1 = BestFirstPar.instrumented(&registry);
    let (mut seq_s, mut reduce_s, mut presence_s) = (0.0f64, 0.0f64, 0.0f64);
    let (mut nl1_s, mut nl2_s, mut bf1_s, mut bf_presence_s) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut sets_in, mut sets_out, mut objects, mut pruned) = (0usize, 0usize, 0usize, 0usize);
    let mut mismatches = 0;
    for q in queries {
        let root = tracer.open("probe.query", q.id as i64, None);
        let mut q_presence = 0.0;
        {
            let t0 = Instant::now();
            let seqs = iupt.sequences_in(q.interval);
            let t1 = Instant::now();
            tracer.record("iupt.sequences_in", q.id as i64, root, t0, t1);
            seq_s += (t1 - t0).as_secs_f64();
            for seq in &seqs {
                let sets = || seq.records.iter().map(|r| r.samples);
                let r0 = Instant::now();
                let reduced = reduce_for_query(space, sets(), &q.query_set, true)
                    .map_err(|e| format!("reduce_for_query: {e}"))?;
                let r1 = Instant::now();
                tracer.record("core.reduce", q.id as i64, root, r0, r1);
                let contrib = object_flow_contributions(space, sets(), &q.query_set, &flow1)
                    .map_err(|e| format!("object_flow_contributions: {e}"))?;
                let r2 = Instant::now();
                tracer.record("core.object_flow", q.id as i64, root, r1, r2);
                std::hint::black_box(&contrib);
                let scan = (r1 - r0).as_secs_f64();
                reduce_s += scan;
                q_presence += ((r2 - r1).as_secs_f64() - scan).max(0.0);
                objects += 1;
                sets_in += seq.len();
                match reduced {
                    Some(r) => sets_out += r.sets.len(),
                    None => pruned += 1,
                }
            }
        }
        presence_s += q_presence;
        let request = TkplqRequest::new(q.k, q.query_set.clone()).with_flow(flow1);
        let timed = |name: &'static str,
                     engine: &dyn BatchEngine,
                     request: &TkplqRequest,
                     iupt: &mut Iupt|
         -> Result<(QueryOutcome, f64), String> {
            let t0 = Instant::now();
            let out = engine
                .evaluate(space, iupt, request, q.interval)
                .map_err(|e| format!("{name}: {e}"))?;
            let t1 = Instant::now();
            tracer.record(name, q.id as i64, root, t0, t1);
            Ok((out, (t1 - t0).as_secs_f64()))
        };
        let (nl1, t) = timed("core.nl.evaluate_1t", &NestedLoopPar, &request, iupt)?;
        nl1_s += t;
        let (bf, t) = timed("core.bf.evaluate_1t", &bf1, &request, iupt)?;
        bf1_s += t;
        bf_presence_s += q_presence
            * ratio(
                bf.stats.objects_computed as f64,
                bf.stats.objects_total as f64,
            );
        let request2 = request.clone().with_flow(batch_flow(2));
        let (nl2, t) = timed("core.nl.evaluate_2t", &NestedLoopPar, &request2, iupt)?;
        nl2_s += t;
        if !same_ranking(&nl1, &bf) || !same_ranking(&nl1, &nl2) {
            mismatches += 1;
        }
        tracer.close(root);
    }
    let n = queries.len().max(1) as f64;
    let counters = registry.snapshot().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let ms = |s: f64| s * 1e3 / n;
    sheet.put("iupt.sequences_in_ms", ms(seq_s), "ms");
    sheet.put("core.reduce_ms", ms(reduce_s), "ms");
    sheet.put(
        "core.reduce.sets_ratio",
        ratio(sets_out as f64, sets_in as f64),
        "ratio",
    );
    sheet.put(
        "core.psl_pruned_share",
        ratio(pruned as f64, objects as f64),
        "share",
    );
    sheet.put("core.presence_ms", ms(presence_s), "ms");
    sheet.put(
        "core.nl.self_ms",
        ms((nl1_s - seq_s - reduce_s - presence_s).max(0.0)),
        "ms",
    );
    sheet.put(
        "core.bf.self_ms",
        ms((bf1_s - seq_s - reduce_s - bf_presence_s).max(0.0)),
        "ms",
    );
    sheet.put(
        "core.bf.computed_share",
        ratio(
            counter("batch.best-first-par.objects_computed"),
            counter("batch.best-first-par.objects_total"),
        ),
        "share",
    );
    sheet.put("exec.nl_par_efficiency", ratio(nl1_s, 2.0 * nl2_s), "ratio");
    Ok(mismatches)
}

/// What one in-process replay measured.
#[derive(Debug, Default)]
pub struct ReplayTimes {
    /// Records ingested across all passes.
    pub records: usize,
    /// Seconds spent inside `ServeEngine::ingest`.
    pub ingest_s: f64,
    /// One sample per `advance_due` boundary, ms.
    pub advance_ms: Vec<f64>,
}

/// Replays `records` through a fresh in-process [`ServeEngine`] with
/// the served configuration, one boundary per `advance_due` call,
/// timing `ingest` per batch and each advance. Repeats on fresh
/// engines until [`MIN_ADVANCE_SAMPLES`] advances are timed or
/// [`REPLAY_BUDGET`] runs out, then reads the last engine's stats, pool
/// histograms and advance traces. `with_memo` reports the shard memos
/// as the `core.memo.*` metrics (the workloads whose memo is the
/// serving tier's).
pub fn serve_layers(
    space: &Arc<IndoorSpace>,
    config: &ServeConfig,
    specs: &[QuerySpec],
    records: &[Record],
    with_memo: bool,
    tracer: &Tracer,
    sheet: &mut Sheet,
) -> Result<ReplayTimes, String> {
    let started = Instant::now();
    let mut times = ReplayTimes::default();
    let mut pass = 0i64;
    loop {
        let root = tracer.open("probe.replay", pass, None);
        let config = config
            .clone()
            .with_metrics(true)
            .with_trace_capacity(1 << 20);
        let mut engine = ServeEngine::new(Arc::clone(space), config);
        for spec in specs {
            engine
                .register(spec.clone())
                .map_err(|e| format!("replay register: {e}"))?;
        }
        let mut advance = |engine: &mut ServeEngine, upper: Timestamp| -> Result<(), String> {
            loop {
                let t0 = Instant::now();
                let (done, remaining) = engine
                    .advance_due(upper, None, 1)
                    .map_err(|e| format!("replay advance: {e}"))?;
                let t1 = Instant::now();
                let Some((at, _)) = done.first() else {
                    return Ok(());
                };
                tracer.record("serve.advance", at.millis(), root, t0, t1);
                times.advance_ms.push((t1 - t0).as_secs_f64() * 1e3);
                if remaining == 0 {
                    return Ok(());
                }
            }
        };
        for (seq, chunk) in records.chunks(BATCH_RECORDS).enumerate() {
            let owned = chunk.to_vec();
            let upper = chunk.last().map_or(Timestamp(0), |r| r.t);
            let t0 = Instant::now();
            for record in owned {
                engine
                    .ingest(record)
                    .map_err(|e| format!("replay ingest: {e}"))?;
            }
            let t1 = Instant::now();
            tracer.record("serve.ingest", seq as i64, root, t0, t1);
            times.ingest_s += (t1 - t0).as_secs_f64();
            times.records += chunk.len();
            advance(&mut engine, upper)?;
        }
        advance(&mut engine, Timestamp(i64::MAX))?;
        tracer.close(root);
        pass += 1;
        if times.advance_ms.len() >= MIN_ADVANCE_SAMPLES || started.elapsed() >= REPLAY_BUDGET {
            report_engine(&engine, with_memo, sheet);
            break;
        }
    }
    sheet.put(
        "serve.ingest_us",
        ratio(times.ingest_s * 1e6, times.records as f64),
        "us",
    );
    sheet.put(
        "serve.ingest_rec_per_s",
        ratio(times.records as f64, times.ingest_s),
        "1/s",
    );
    sheet.put_q(
        "serve.advance_ms_p50",
        quantile(&times.advance_ms, 0.50),
        "ms",
    );
    sheet.put_q(
        "serve.advance_ms_p95",
        quantile(&times.advance_ms, 0.95),
        "ms",
    );
    Ok(times)
}

/// The replay engine's counters, shard-pool waits and advance phase
/// shares.
fn report_engine(engine: &ServeEngine, with_memo: bool, sheet: &mut Sheet) {
    let stats = engine.stats();
    let advances = stats.advances as f64;
    let snapshot = engine.metrics().snapshot();
    let (mut wait_ns, mut run_ns) = (0.0, 0.0);
    for (name, h) in &snapshot.histograms {
        if name.starts_with(serve_names::POOL_PREFIX) {
            if name.ends_with(".queue_wait_ns") {
                wait_ns += h.sum as f64;
            } else if name.ends_with(".run_ns") {
                run_ns += h.sum as f64;
            }
        }
    }
    let (mut total, mut rpc, mut merge, mut slice) = (0.0, 0.0, 0.0, 0.0);
    for t in engine.recent_traces() {
        total += t.total_ns as f64;
        rpc += t.phase_ns(serve_names::PHASE_EVAL_RPC_NS) as f64;
        merge += t.phase_ns(serve_names::PHASE_MERGE_NS) as f64;
        slice += t.phase_ns(serve_names::PHASE_SLICE_NS) as f64;
    }
    let memo_lookups = (stats.memo_hits + stats.memo_misses) as f64;
    sheet.put(
        "exec.shard_wait_share",
        ratio(wait_ns, wait_ns + run_ns),
        "share",
    );
    sheet.put("serve.advance.eval_rpc_share", ratio(rpc, total), "share");
    sheet.put("serve.advance.merge_share", ratio(merge, total), "share");
    sheet.put("serve.advance.slice_share", ratio(slice, total), "share");
    sheet.put(
        "serve.fresh_presence_per_advance",
        ratio(stats.fresh_presence as f64, advances),
        "count",
    );
    sheet.put(
        "serve.straddler_per_advance",
        ratio(stats.straddler_recomputes as f64, advances),
        "count",
    );
    sheet.put(
        "serve.cache_hit_rate",
        ratio(
            stats.cache_hits as f64,
            (stats.cache_hits + stats.fresh_presence) as f64,
        ),
        "share",
    );
    if with_memo {
        sheet.put(
            "core.memo.hit_rate",
            ratio(stats.memo_hits as f64, memo_lookups),
            "share",
        );
        sheet.put("core.memo.bytes", stats.memo_bytes as f64, "B");
    }
    let records = stats.records_ingested as f64;
    sheet.put(
        "store.intern_hit_rate",
        ratio(stats.intern_hits as f64, records),
        "share",
    );
    sheet.put(
        "store.log_bytes_per_record",
        ratio(stats.log_bytes as f64, records),
        "B",
    );
}

/// What the codec probe measured.
#[derive(Debug, Default)]
pub struct CodecTimes {
    /// Seconds in `Frame::decode` over all batches.
    pub decode_s: f64,
}

/// Encodes and decodes the workload's own ingest batches with the
/// server's protocol codec (`Frame::encode` / `Frame::decode`), and
/// checks each round trip.
pub fn codec_layers(
    records: &[Record],
    tracer: &Tracer,
    sheet: &mut Sheet,
) -> Result<CodecTimes, String> {
    let (mut encode_s, mut decode_s, mut bytes, mut batches) = (0.0, 0.0, 0usize, 0usize);
    let root = tracer.open("probe.codec", 0, None);
    for (seq, chunk) in records.chunks(BATCH_RECORDS).enumerate() {
        let frame = Frame::IngestBatch {
            seq: seq as u64,
            records: chunk.to_vec(),
        };
        let t0 = Instant::now();
        let payload = frame.encode().map_err(|e| format!("encode: {e}"))?;
        let t1 = Instant::now();
        let back = Frame::decode(&payload).map_err(|e| format!("decode: {e}"))?;
        let t2 = Instant::now();
        tracer.record("server.encode", seq as i64, root, t0, t1);
        tracer.record("server.decode", seq as i64, root, t1, t2);
        if back != frame {
            return Err(format!("batch {seq} did not survive the codec round trip"));
        }
        encode_s += (t1 - t0).as_secs_f64();
        decode_s += (t2 - t1).as_secs_f64();
        // Payload plus the u32 length prefix.
        bytes += payload.len() + 4;
        batches += 1;
    }
    tracer.close(root);
    sheet.put(
        "server.encode_us_per_batch",
        ratio(encode_s * 1e6, batches as f64),
        "us",
    );
    sheet.put(
        "server.decode_us_per_batch",
        ratio(decode_s * 1e6, batches as f64),
        "us",
    );
    sheet.put(
        "server.wire_bytes_per_record",
        ratio(bytes as f64, records.len() as f64),
        "B",
    );
    Ok(CodecTimes { decode_s })
}
