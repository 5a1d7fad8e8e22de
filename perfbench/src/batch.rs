//! `batch_adhoc`: a seeded stream of ad-hoc TkPLQs over the paper's
//! §5.3 synthetic world, each answered by both parallel exact engines
//! in process, with one kernel memo shared across the whole run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use indoor_sim::{RecordStream, World};
use popflow_core::query::request::{BestFirstPar, NestedLoopPar};
use popflow_core::{BatchEngine, FlowMemo, QuerySet, QuerySpec, TkplqRequest, WindowSpec};
use popflow_serve::ServeConfig;

use crate::probe::{self, batch_flow, same_ranking};
use crate::stats::{late_share, median, quantile, ratio, Sheet};
use crate::trace::Tracer;
use crate::world::{adhoc_query, batch_scenario};
use crate::{vm_hwm_mb, Args, Outcome};

/// World generations per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Queries the traced run probes layer by layer.
const PROBE_QUERIES: u64 = 6;

/// Bucket width of the serve-layer replay on the batch world (10 s:
/// a few hundred boundaries over the scaled scenario's span).
const REPLAY_BUCKET_MILLIS: i64 = 10_000;

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let scale = if args.tiny { 0.01 } else { 0.1 };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut world: Option<World> = None;
    for i in 0..SETUPS {
        drop(world.take());
        let t0 = Instant::now();
        let w = World::generate(batch_scenario(scale, args.seed));
        let t1 = Instant::now();
        tracer.record("sim.generate", i as i64, None, t0, t1);
        setup_s.push((t1 - t0).as_secs_f64());
        world = Some(w);
    }
    let mut world = world.ok_or("no world generated")?;
    println!(
        "batch_adhoc: scale {scale}, {} records, {} S-locations, seed {}",
        world.iupt.len(),
        world.space.slocs().len(),
        args.seed
    );

    // One memo per engine, each shared across the whole run: Best-First
    // reads the kernels Nested-Loop caches, so a single memo would time
    // Best-First on the kernels Nested-Loop just computed for the same
    // query instead of on the ad-hoc stream's own redundancy.
    let nl_memo = Arc::new(FlowMemo::new());
    let bf_memo = Arc::new(FlowMemo::new());
    let flow = batch_flow(2);
    let mut send_lag_ms = Vec::new();
    let mut last_done: Option<Instant> = None;
    let (mut nl_ms, mut bf_ms, mut both_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut id = 0u64;
    while started.elapsed() < budget || id == 0 {
        let q = adhoc_query(&world, args.seed, id);
        let root = tracer.open("loadgen.query", id as i64, None);
        let request = TkplqRequest::new(q.k, q.query_set.clone()).with_flow(flow);
        let nl_request = request.clone().with_memo(Arc::clone(&nl_memo));
        let bf_request = request.with_memo(Arc::clone(&bf_memo));
        let t0 = Instant::now();
        let nl = NestedLoopPar.evaluate(&world.space, &mut world.iupt, &nl_request, q.interval);
        let t1 = Instant::now();
        let bf = BestFirstPar.evaluate(&world.space, &mut world.iupt, &bf_request, q.interval);
        let t2 = Instant::now();
        // Closed loop: a query is due when the previous one returned.
        if let Some(done) = last_done {
            send_lag_ms.push((t0 - done).as_secs_f64() * 1e3);
        }
        last_done = Some(Instant::now());
        tracer.record("core.nl.evaluate", id as i64, root, t0, t1);
        tracer.record("core.bf.evaluate", id as i64, root, t1, t2);
        let ok = tracer.scope("check.rankings", id as i64, root, |_| match (&nl, &bf) {
            (Ok(a), Ok(b)) => same_ranking(a, b),
            _ => false,
        });
        tracer.close(root);
        attempted += 1;
        if ok {
            nl_ms.push((t1 - t0).as_secs_f64() * 1e3);
            bf_ms.push((t2 - t1).as_secs_f64() * 1e3);
            both_ms.push((t2 - t0).as_secs_f64() * 1e3);
        } else {
            failed += 1;
            if let (Err(e), _) | (_, Err(e)) = (&nl, &bf) {
                eprintln!("batch_adhoc: query {id} failed: {e}");
            } else {
                eprintln!("batch_adhoc: query {id}: NL and BF rankings differ");
            }
        }
        id += 1;
    }
    let loop_s = started.elapsed().as_secs_f64();

    let mut report = Sheet::default();
    report.put_n("setup_s", median(&setup_s), setup_s.len(), "s");
    report.put_q("nl_query_ms_p50", quantile(&nl_ms, 0.50), "ms");
    report.put_q("nl_query_ms_p95", quantile(&nl_ms, 0.95), "ms");
    report.put_q("bf_query_ms_p50", quantile(&bf_ms, 0.50), "ms");
    report.put_q("bf_query_ms_p95", quantile(&bf_ms, 0.95), "ms");
    report.put("peak_rss_mb", vm_hwm_mb()?, "MB");
    report.put_n(
        "error_share",
        Some(ratio(failed as f64, attempted as f64)),
        attempted as usize,
        "share",
    );

    let mut e2e = Sheet::default();
    e2e.put_n("setup_s", median(&setup_s), setup_s.len(), "s");
    e2e.put_q("latency_ms_p50", quantile(&both_ms, 0.50), "ms");
    e2e.put_q("latency_ms_p90", quantile(&both_ms, 0.90), "ms");
    e2e.put_n(
        "throughput_per_s",
        Some(ratio(attempted as f64, loop_s)),
        attempted as usize,
        "1/s",
    );
    e2e.put("peak_rss_mb", vm_hwm_mb()?, "MB");

    let mut layers = Sheet::default();
    if tracer.enabled() {
        let memo_stats = nl_memo.stats().merge(bf_memo.stats());
        layers.put_n("sim.generate_s", median(&setup_s), setup_s.len(), "s");
        let queries: Vec<_> = (0..PROBE_QUERIES.min(id))
            .map(|i| adhoc_query(&world, args.seed, i))
            .collect();
        let mismatches =
            probe::batch_layers(&world.space, &mut world.iupt, &queries, tracer, &mut layers)?;
        attempted += queries.len() as u64;
        failed += mismatches as u64;
        layers.put(
            "core.memo.hit_rate",
            ratio(
                memo_stats.hits as f64,
                (memo_stats.hits + memo_stats.misses) as f64,
            ),
            "share",
        );
        layers.put("core.memo.bytes", memo_stats.bytes as f64, "B");
        let records = RecordStream::replay(&world).to_records();
        serve_probe(&world, &records, tracer, &mut layers)?;
        probe::codec_layers(&records, tracer, &mut layers)?;
        // No server runs on this workload: nothing is queued, throttled
        // or deferred, and no wire gap exists.
        for (name, unit) in [
            ("server.gap_share", "share"),
            ("server.throttle_share", "share"),
            ("server.queue_peak", "count"),
            ("server.advances_deferred", "count"),
        ] {
            layers.put(name, 0.0, unit);
        }
        layers.put("loadgen.late_share", late_share(&send_lag_ms), "share");
    }
    Ok(Outcome {
        attempted,
        failed,
        overloaded: false,
        report,
        e2e,
        layers,
    })
}

/// The serve and store layers on the batch world's records: a 2-shard
/// engine with four standing paper-default queries on 10-second
/// buckets.
fn serve_probe(
    world: &World,
    records: &[indoor_iupt::Record],
    tracer: &Tracer,
    sheet: &mut Sheet,
) -> Result<(), String> {
    let window = WindowSpec::new(REPLAY_BUCKET_MILLIS, 30);
    let specs: Vec<QuerySpec> = (0..4)
        .map(|i| {
            let q = adhoc_query(world, 0x5e57e, i);
            QuerySpec::new(10, QuerySet::new(q.query_set.slocs().to_vec()), window)
        })
        .collect();
    let config = ServeConfig::with_buckets(REPLAY_BUCKET_MILLIS).with_shards(2);
    let space = Arc::new(world.space.clone());
    probe::serve_layers(&space, &config, &specs, records, false, tracer, sheet)?;
    Ok(())
}
