//! The layer ladder of a traced run: the run's own inputs replayed
//! through each layer in isolation, bottom up — index probe, pipeline
//! stages, shard fan-in, frame codec, PING round trip, routed versus
//! direct query, then commit, WAL and subscription pump on the same
//! update batches. Every figure is taken from outside, through the
//! layer's public functions or the counters they return.

use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use iloc_core::durable::{DurableCatalog, StoreConfig};
use iloc_core::expand::{minkowski_query, p_expanded_query};
use iloc_core::pipeline::{BatchEngine, ExecutionContext};
use iloc_core::serve::{ServeEngine, ShardServer, ShardedEngine, Snapshot, Update};
use iloc_core::subscribe::{ContinuousEngine, SubscriptionRegistry};
use iloc_core::{Integrator, PointEngine, QueryAnswer, UncertainEngine};
use iloc_geometry::Rect;
use iloc_index::{AccessStats, TraversalScratch};
use iloc_router::{Router, RouterConfig, RouterHandle};
use iloc_server::alloc_count::allocations;
use iloc_server::client::Client;
use iloc_server::protocol::{self, StatsReport};
use iloc_server::server::{QueryServer, ServerConfig, ServerHandle};

use crate::check;
use crate::engine_mix::TracedFanout;
use crate::inputs::{
    partition, subscriptions, Catalogs, Class, Item, Query, Raw, BATCH, FSYNC, SHARDS, SLACK,
};
use crate::trace::{Tracer, NAMES, ROOT};
use crate::util::{put, us_since, Samples};
use crate::{Args, Outcome};

/// Queries of the run's mix replayed on each rung (four rounds).
const QUERIES: usize = 192;
/// Timed passes over them.
const REPS: usize = 3;
/// Commits per catalog on the commit rungs.
const COMMITS: usize = 24;
/// PING round trips timed per target.
const PINGS: usize = 1_000;

pub struct Context<'a> {
    pub args: &'a Args,
    pub raw: &'a Raw,
    pub cat: &'a Catalogs,
    pub mix: &'a [Item],
    /// In-process engines over the workload's catalogs.
    pub snapshots: (Snapshot<PointEngine>, Snapshot<UncertainEngine>),
}

impl Context<'_> {
    fn sample(&self) -> &[Item] {
        &self.mix[..QUERIES.min(self.mix.len())]
    }
}

pub fn run(ctx: &Context<'_>, out: &mut Outcome, tracer: &mut Tracer) {
    let answers = engine_rungs(ctx, out, tracer);
    codec_rung(ctx, &answers, out);
    server_rung(ctx, &answers, out, tracer);
    router_rung(ctx, &answers, out);
    commit_rungs(ctx, out);
}

/// The filter rectangle the engine probes for this query.
fn filter_rect(item: &Item) -> Rect {
    let issuer = item.issuer();
    match (item.class, item.qp()) {
        (Class::Cipq | Class::GaussCipq, Some(qp)) => p_expanded_query(issuer, item.range(), qp).1,
        _ => minkowski_query(issuer, item.range()),
    }
}

/// Index probe, pipeline stages and shard fan-in; returns the answers
/// of the sample for the rungs above.
fn engine_rungs(ctx: &Context<'_>, out: &mut Outcome, tracer: &mut Tracer) -> Vec<QueryAnswer> {
    let sample = ctx.sample();
    let n = sample.len() as f64;
    let (ps, us) = &ctx.snapshots;

    // Index probe: raw R-tree candidates for the query's filter rect.
    let mut stats = AccessStats::new();
    let mut scratch = TraversalScratch::default();
    let mut cands = Vec::new();
    let mut probe = Samples::default();
    for rep in 0..REPS {
        let t = Instant::now();
        for item in sample {
            let rect = filter_rect(item);
            let mut s = AccessStats::new();
            match &item.query {
                Query::Point(_) => {
                    for shard in ps.shards() {
                        cands.clear();
                        shard.raw_candidates_scratch(rect, &mut s, &mut scratch, &mut cands);
                    }
                }
                Query::Uncertain(_) => {
                    for shard in us.shards() {
                        cands.clear();
                        shard.raw_candidates_scratch(rect, &mut s, &mut scratch, &mut cands);
                    }
                }
            }
            if rep == 0 {
                stats.absorb(s);
            }
        }
        probe.push(us_since(t) / n);
    }
    put(
        &mut out.metrics,
        "index.nodes_per_query",
        stats.nodes_visited as f64 / n,
        "count",
    );
    put(
        &mut out.metrics,
        "index.items_tested_per_candidate",
        stats.items_tested as f64 / stats.candidates.max(1) as f64,
        "ratio",
    );
    put(&mut out.metrics, "index.probe_us", probe.median(), "us");

    // Pipeline stages, from the stage counters of warm executions.
    let mut servers = (ShardServer::new(ps.clone()), ShardServer::new(us.clone()));
    let mut answers: Vec<QueryAnswer> = vec![QueryAnswer::default(); sample.len()];
    let exec = |servers: &mut (ShardServer<PointEngine>, ShardServer<UncertainEngine>),
                item: &Item,
                answer: &mut QueryAnswer| match &item.query {
        Query::Point(r) => servers.0.execute_into(r, answer),
        Query::Uncertain(r) => servers.1.execute_into(r, answer),
    };
    for (item, a) in sample.iter().zip(answers.iter_mut()) {
        exec(&mut servers, item, a);
    }
    let mut total = iloc_core::QueryStats::new();
    let mut matches = 0u64;
    let mut stage = [Samples::default(), Samples::default(), Samples::default()];
    for _ in 0..REPS {
        let mut pass = iloc_core::QueryStats::new();
        for (item, a) in sample.iter().zip(answers.iter_mut()) {
            exec(&mut servers, item, a);
            pass.absorb(&a.stats);
        }
        stage[0].push(pass.filter_nanos as f64 / 1e3 / n);
        stage[1].push(pass.prune_nanos as f64 / 1e3 / n);
        stage[2].push(pass.refine_nanos as f64 / 1e3 / n);
        total = pass;
    }
    for a in &answers {
        matches += a.results.len() as u64;
    }
    let cand = total.access.candidates.max(1) as f64;
    let pruned = (total.pruned_s1 + total.pruned_s2 + total.pruned_s3) as f64;
    let evals = total.prob_evals.max(1) as f64;
    let m = &mut out.metrics;
    put(
        m,
        "filter.candidates_per_query",
        total.access.candidates as f64 / n,
        "count",
    );
    put(m, "filter.us_per_query", stage[0].median(), "us");
    put(m, "prune.us_per_query", stage[1].median(), "us");
    put(m, "prune.kept_ratio", (cand - pruned) / cand, "ratio");
    put(m, "refine.us_per_query", stage[2].median(), "us");
    put(
        m,
        "refine.evals_per_query",
        total.prob_evals as f64 / n,
        "count",
    );
    put(
        m,
        "refine.ns_per_eval",
        stage[2].median() * 1e3 * n / evals,
        "ns",
    );
    put(
        m,
        "refine.mc_samples_per_query",
        total.mc_samples as f64 / n,
        "count",
    );
    put(m, "refine.yield", matches as f64 / evals, "ratio");

    // Shard fan-in: whole execute_into minus the per-shard calls it
    // makes, on the same queries; and allocations of a warm pass.
    let mut shard_ctx = ExecutionContext::new(Integrator::Auto);
    let mut partial = QueryAnswer::default();
    let mut fanin = Samples::default();
    for _ in 0..REPS {
        let (mut whole, mut parts) = (0.0, 0.0);
        for (item, a) in sample.iter().zip(answers.iter_mut()) {
            let t = Instant::now();
            exec(&mut servers, item, a);
            whole += us_since(t);
            match &item.query {
                Query::Point(r) => {
                    parts += time_shards(ps.shards(), r, &mut shard_ctx, &mut partial)
                }
                Query::Uncertain(r) => {
                    parts += time_shards(us.shards(), r, &mut shard_ctx, &mut partial)
                }
            }
        }
        fanin.push((whole - parts) / n);
    }
    put(
        &mut out.metrics,
        "serve.fanin_us_per_query",
        fanin.median(),
        "us",
    );
    let before = allocations();
    for (item, a) in sample.iter().zip(answers.iter_mut()) {
        exec(&mut servers, item, a);
    }
    put(
        &mut out.metrics,
        "serve.allocs_per_query",
        (allocations() - before) as f64 / n,
        "count",
    );

    // One traced fan-out pass, so every traced run has shard and merge
    // spans over the same queries.
    let mut fanout = TracedFanout::new();
    let mut a = QueryAnswer::default();
    for item in sample {
        fanout.execute(&ctx.snapshots, item, &mut a, tracer);
    }
    answers
}

fn time_shards<E: BatchEngine>(
    shards: &[std::sync::Arc<E>],
    request: &E::Request,
    ctx: &mut ExecutionContext,
    partial: &mut QueryAnswer,
) -> f64 {
    let mut sum = 0.0;
    for shard in shards {
        let t = Instant::now();
        shard.execute_one_into(request, ctx, partial);
        sum += us_since(t);
    }
    sum
}

fn encode_request(buf: &mut Vec<u8>, item: &Item) {
    match &item.query {
        Query::Point(r) => protocol::encode_point_query(buf, r),
        Query::Uncertain(r) => protocol::encode_uncertain_query(buf, r),
    }
    .expect("benchmark requests are encodable");
}

/// Frame sizes and ANSWER encode/decode cost on the sample's answers.
fn codec_rung(ctx: &Context<'_>, answers: &[QueryAnswer], out: &mut Outcome) {
    let sample = ctx.sample();
    let n = sample.len() as f64;
    let mut buf = Vec::new();
    for item in sample {
        encode_request(&mut buf, item);
    }
    put(
        &mut out.metrics,
        "protocol.request_bytes",
        buf.len() as f64 / n,
        "B",
    );
    let frames: Vec<Vec<u8>> = answers
        .iter()
        .map(|a| {
            let mut f = Vec::new();
            protocol::encode_answer(&mut f, a);
            f
        })
        .collect();
    let bytes: usize = frames.iter().map(Vec::len).sum();
    put(
        &mut out.metrics,
        "protocol.answer_bytes",
        bytes as f64 / n,
        "B",
    );
    let mut enc = Samples::default();
    let mut dec = Samples::default();
    let mut decoded = QueryAnswer::default();
    for _ in 0..REPS * 4 {
        let t = Instant::now();
        for a in answers {
            buf.clear();
            protocol::encode_answer(&mut buf, std::hint::black_box(a));
        }
        enc.push(us_since(t) * 1e3 / n);
        let t = Instant::now();
        for f in &frames {
            protocol::decode_answer_into(&f[6..], &mut decoded).expect("own frame decodes");
            std::hint::black_box(&decoded);
        }
        dec.push(us_since(t) * 1e3 / n);
    }
    put(
        &mut out.metrics,
        "protocol.encode_answer_ns",
        enc.median(),
        "ns",
    );
    put(
        &mut out.metrics,
        "protocol.decode_answer_ns",
        dec.median(),
        "ns",
    );
}

/// Median PING round trip in microseconds.
fn ping_rtt(client: &mut Client) -> f64 {
    let mut rtt = Samples::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        client.ping().expect("PING answered");
        rtt.push(us_since(t));
    }
    rtt.median()
}

/// One query over the wire with send and wait spans; returns the round
/// trip in microseconds.
pub fn traced_wire_query(
    client: &mut Client,
    buf: &mut Vec<u8>,
    item: &Item,
    answer: &mut QueryAnswer,
    tracer: &mut Tracer,
) -> Result<f64, iloc_server::ClientError> {
    let t = Instant::now();
    let root = tracer.begin("wire_query", ROOT);
    let send = tracer.begin("send", root);
    buf.clear();
    encode_request(buf, item);
    client.send_raw(buf)?;
    tracer.end(send);
    let wait = tracer.begin("wait", root);
    let got = client.recv_answer_into(answer);
    tracer.end(wait);
    tracer.end(root);
    got.map(|()| us_since(t))
}

/// A transient server over the workload's catalogs: PING round trip,
/// the share of a query's round trip the server reports as pipeline
/// time, and allocations per request.
fn server_rung(ctx: &Context<'_>, answers: &[QueryAnswer], out: &mut Outcome, tracer: &mut Tracer) {
    let sample = ctx.sample();
    let server = QueryServer::new(ctx.cat.points.clone(), ctx.cat.uncertain.clone(), SHARDS);
    let handle = server
        .start(&ServerConfig::loopback())
        .expect("loopback server starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let mut buf = Vec::new();
    let mut answer = QueryAnswer::default();
    let mut quiet = Tracer::new(Instant::now());
    for item in sample {
        traced_wire_query(&mut client, &mut buf, item, &mut answer, &mut quiet)
            .expect("warm-up query answered");
    }
    put(
        &mut out.metrics,
        "server.ping_rtt_us",
        ping_rtt(&mut client),
        "us",
    );
    let mut s0 = StatsReport::default();
    let mut s1 = StatsReport::default();
    client.stats_into(&mut s0).expect("STATS answered");
    let mut rtt_us = 0.0;
    for (item, want) in sample.iter().zip(answers) {
        rtt_us += traced_wire_query(&mut client, &mut buf, item, &mut answer, tracer)
            .expect("query answered");
        if item.class != Class::GaussCipq {
            out.verdict(
                "ladder wire answer",
                check::same_bits(&answer.results, &want.results),
            );
        }
    }
    client.stats_into(&mut s1).expect("STATS answered");
    let stage_ns = (s1.filter_nanos + s1.prune_nanos + s1.refine_nanos)
        - (s0.filter_nanos + s0.prune_nanos + s0.refine_nanos);
    put(
        &mut out.metrics,
        "server.service_share",
        stage_ns as f64 / 1e3 / rtt_us,
        "ratio",
    );
    put(
        &mut out.metrics,
        "server.allocs_per_request",
        (s1.allocations - s0.allocations) as f64
            / (s1.requests_served - s0.requests_served).max(1) as f64,
        "count",
    );
    drop(client);
    handle.shutdown();
}

/// Nodes behind the router on the router rung.
const NODES: usize = 3;

/// Three single-shard nodes, node `k` holding the `shard_of(id, 3) == k`
/// slice of both catalogs, and a router in front of them.
struct Cluster {
    router: RouterHandle,
    nodes: Vec<ServerHandle>,
    node_addrs: Vec<SocketAddr>,
}

impl Cluster {
    /// Starts the nodes (one event loop each) and a router with its
    /// default two loops.
    fn start(cat: &Catalogs) -> std::io::Result<Cluster> {
        let points = partition(&cat.points, NODES, |o| o.id);
        let uncertain = partition(&cat.uncertain, NODES, |o| o.id);
        let mut nodes = Vec::with_capacity(NODES);
        for (p, u) in points.into_iter().zip(uncertain) {
            let config = ServerConfig {
                event_loops: 1,
                ..ServerConfig::loopback()
            };
            nodes.push(QueryServer::new(p, u, 1).start(&config)?);
        }
        let node_addrs: Vec<SocketAddr> = nodes.iter().map(ServerHandle::addr).collect();
        let router = Router::start(&RouterConfig::loopback(node_addrs.clone()))?;
        Ok(Cluster {
            router,
            nodes,
            node_addrs,
        })
    }

    fn shutdown(self) {
        self.router.shutdown();
        for node in self.nodes {
            node.shutdown();
        }
    }
}

/// A quiet 3-node cluster over the workload's catalogs: the router's
/// added round trip over the slowest direct node, its PING round trip,
/// allocations and upstream frames per routed query.
fn router_rung(ctx: &Context<'_>, answers: &[QueryAnswer], out: &mut Outcome) {
    let sample = ctx.sample();
    let n = sample.len() as f64;
    let cluster = Cluster::start(ctx.cat).expect("cluster starts");
    let mut routed = Client::connect(cluster.router.addr()).expect("router connects");
    let mut direct: Vec<Client> = cluster
        .node_addrs
        .iter()
        .map(|&a| Client::connect(a).expect("node connects"))
        .collect();
    let mut buf = Vec::new();
    let mut answer = QueryAnswer::default();
    let mut quiet = Tracer::new(Instant::now());
    for item in sample {
        traced_wire_query(&mut routed, &mut buf, item, &mut answer, &mut quiet)
            .expect("warm-up routed query");
        for c in direct.iter_mut() {
            traced_wire_query(c, &mut buf, item, &mut answer, &mut quiet)
                .expect("warm-up node query");
        }
    }
    put(
        &mut out.metrics,
        "router.ping_rtt_us",
        ping_rtt(&mut routed),
        "us",
    );
    let mut s0 = StatsReport::default();
    let mut s1 = StatsReport::default();
    routed.stats_into(&mut s0).expect("router STATS");
    let mut hop = Samples::default();
    for _ in 0..REPS {
        for (item, want) in sample.iter().zip(answers) {
            let r = traced_wire_query(&mut routed, &mut buf, item, &mut answer, &mut quiet)
                .expect("routed query");
            if item.class != Class::GaussCipq {
                out.verdict(
                    "ladder routed answer",
                    check::same_bits(&answer.results, &want.results),
                );
            }
            let mut slowest: f64 = 0.0;
            for c in direct.iter_mut() {
                let d = traced_wire_query(c, &mut buf, item, &mut answer, &mut quiet)
                    .expect("direct query");
                slowest = slowest.max(d);
            }
            hop.push(r - slowest);
        }
    }
    routed.stats_into(&mut s1).expect("router STATS");
    let queries = REPS as f64 * n;
    // The closing STATS probe routes one frame to each node itself.
    let frames: u64 = s1.nodes.iter().map(|h| h.routed).sum::<u64>()
        - s0.nodes.iter().map(|h| h.routed).sum::<u64>()
        - s1.nodes.len() as u64;
    put(&mut out.metrics, "router.hop_us", hop.median(), "us");
    put(
        &mut out.metrics,
        "router.allocs_per_request",
        (s1.allocations - s0.allocations) as f64
            / (s1.requests_served - s0.requests_served).max(1) as f64,
        "count",
    );
    put(
        &mut out.metrics,
        "router.frames_per_query",
        frames as f64 / queries,
        "count",
    );
    drop(routed);
    drop(direct);
    cluster.shutdown();
}

/// The run's update batches, both catalogs, in the order the churn
/// writer sends them.
struct Batches {
    points: Vec<Vec<Update<iloc_uncertainty::PointObject>>>,
    rects: Vec<Vec<Update<iloc_uncertainty::UncertainObject>>>,
}

impl Batches {
    fn new(raw: &Raw, seed: u64) -> Batches {
        let mut gen = raw.updates(seed);
        let mut b = Batches {
            points: Vec::new(),
            rects: Vec::new(),
        };
        for _ in 0..COMMITS {
            b.points.push(gen.point_batch(BATCH));
            b.rects.push(gen.rect_batch(BATCH));
        }
        b
    }
}

/// Commit cost per catalog kind, with a reader snapshot pinned across
/// every commit (as serving readers pin it), plus the pump of standing
/// queries after each commit.
#[derive(Default)]
struct CommitFigures {
    /// One sample per round: the point and the uncertain commit of the
    /// same round, as `commit_p50_us` counts them.
    round_us: Samples,
    allocs: u64,
    updates: u64,
    pump_us: Samples,
    woken: u64,
    notified: u64,
}

fn commit_series<E: ContinuousEngine>(
    engine: &ShardedEngine<E>,
    batches: &[Vec<Update<E::Object>>],
    standing: &[E::Request],
    fig: &mut CommitFigures,
) -> Vec<f64>
where
    E::Request: Clone,
{
    let mut commit_us = Vec::with_capacity(batches.len());
    let mut registry = SubscriptionRegistry::<E>::new();
    for r in standing {
        registry.subscribe(engine, r.clone(), SLACK);
    }
    for batch in batches {
        let _pinned = engine.snapshot();
        let a0 = allocations();
        let t = Instant::now();
        engine.submit_all(batch.iter().cloned());
        engine.commit();
        commit_us.push(us_since(t));
        fig.allocs += allocations() - a0;
        fig.updates += batch.len() as u64;
        let t = Instant::now();
        let report = registry.pump(engine, |_, _, _| {});
        fig.pump_us.push(us_since(t));
        fig.woken += report.woken as u64;
        fig.notified += report.notified as u64;
    }
    commit_us
}

/// One batch committed to an in-memory engine and then to a durable
/// catalog in the same state; returns the durable commit's extra time
/// in microseconds. A reader snapshot is pinned across both.
fn durable_minus_plain<E: ServeEngine>(
    catalog: &DurableCatalog<E>,
    plain: &ShardedEngine<E>,
    batch: &[Update<E::Object>],
) -> f64
where
    E::Object: iloc_core::DurableObject,
{
    let _pinned = (plain.snapshot(), catalog.snapshot());
    let t = Instant::now();
    plain.submit_all(batch.iter().cloned());
    plain.commit();
    let plain_us = us_since(t);
    let t = Instant::now();
    catalog.submit_all(batch.iter().cloned());
    catalog.commit().expect("durable commit");
    us_since(t) - plain_us
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Commit, WAL, checkpoint, recovery and pump on the run's batches.
fn commit_rungs(ctx: &Context<'_>, out: &mut Outcome) {
    let seed = ctx.args.seed;
    let batches = Batches::new(ctx.raw, seed);
    let (sub_p, sub_u) = subscriptions();

    let run_full = |cat: Catalogs, batches: &Batches| {
        let mut fig = CommitFigures::default();
        let pe = ShardedEngine::<PointEngine>::build(cat.points, SHARDS);
        let ue = ShardedEngine::<UncertainEngine>::build(cat.uncertain, SHARDS);
        let points = commit_series(&pe, &batches.points, &sub_p, &mut fig);
        let rects = commit_series(&ue, &batches.rects, &sub_u, &mut fig);
        for (p, u) in points.iter().zip(&rects) {
            fig.round_us.push(p + u);
        }
        fig
    };
    let full = run_full(ctx.cat.clone(), &batches);
    let small_raw = ctx.raw.fraction(10);
    let small = run_full(small_raw.catalogs(), &Batches::new(&small_raw, seed));

    let m = &mut out.metrics;
    put(m, "serve.commit_us", full.round_us.median(), "us");
    put(
        m,
        "serve.commit_allocs_per_update",
        full.allocs as f64 / full.updates as f64,
        "count",
    );
    put(
        m,
        "serve.commit_size_ratio",
        full.round_us.median() / small.round_us.median(),
        "ratio",
    );
    let commits = full.pump_us.len() as f64;
    put(m, "subscribe.pump_us_per_commit", full.pump_us.mean(), "us");
    put(
        m,
        "subscribe.woken_per_commit",
        full.woken as f64 / commits,
        "count",
    );
    put(
        m,
        "subscribe.notified_ratio",
        full.notified as f64 / full.woken.max(1) as f64,
        "ratio",
    );

    // The same batches through the durable catalogs, each durable commit
    // right after the in-memory commit of the same batch, so both see
    // the same allocator and cache state; the WAL's cost is the median
    // over rounds of the per-round differences.
    let dir = ctx.args.work_dir.join("ladder-store");
    let cfg = |sub: &str| StoreConfig {
        dir: dir.join(sub),
        fsync: FSYNC,
    };
    let points = ctx.cat.points.clone();
    let uncertain = ctx.cat.uncertain.clone();
    let (dp, _) = DurableCatalog::<PointEngine>::open(&cfg("point"), SHARDS, move || points)
        .expect("store opens");
    let (du, _) =
        DurableCatalog::<UncertainEngine>::open(&cfg("uncertain"), SHARDS, move || uncertain)
            .expect("store opens");
    let pe = ShardedEngine::<PointEngine>::build(ctx.cat.points.clone(), SHARDS);
    let ue = ShardedEngine::<UncertainEngine>::build(ctx.cat.uncertain.clone(), SHARDS);
    let bytes0 = dir_bytes(&dir);
    let mut wal_us = Samples::default();
    for (bp, bu) in batches.points.iter().zip(&batches.rects) {
        wal_us.push(durable_minus_plain(&dp, &pe, bp) + durable_minus_plain(&du, &ue, bu));
    }
    let logged = dir_bytes(&dir) - bytes0;
    drop((dp, du, pe, ue));
    put(&mut out.metrics, "wal.append_us", wal_us.median(), "us");
    put(
        &mut out.metrics,
        "wal.bytes_per_update",
        logged as f64 / full.updates as f64,
        "B",
    );

    // Recovery replays the whole log; then one checkpoint per catalog.
    let t = Instant::now();
    let (rp, rec_p) =
        DurableCatalog::<PointEngine>::open(&cfg("point"), SHARDS, Vec::new).expect("recovers");
    let (ru, rec_u) = DurableCatalog::<UncertainEngine>::open(&cfg("uncertain"), SHARDS, Vec::new)
        .expect("recovers");
    let recover_s = t.elapsed().as_secs_f64();
    let replayed = (rec_p.replayed_updates + rec_u.replayed_updates) as f64;
    if replayed == 0.0 {
        out.errors.push("ladder recovery replayed nothing".into());
    }
    put(
        &mut out.metrics,
        "recovery.updates_per_s",
        replayed / recover_s,
        "1/s",
    );
    let t = Instant::now();
    rp.checkpoint().expect("checkpoint");
    ru.checkpoint().expect("checkpoint");
    put(
        &mut out.metrics,
        "checkpoint.s",
        t.elapsed().as_secs_f64(),
        "s",
    );
    drop((rp, ru));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Closes a traced run: writes the spans, reports self time per span
/// name and the tracing overhead on the workload's median latency.
pub fn finish(args: &Args, out: &mut Outcome, tracer: Tracer, plain_p50: f64, traced_p50: f64) {
    let path = args.work_dir.with_extension("spans.tsv");
    if let Err(e) = tracer.write(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    } else {
        eprintln!("perfbench: {} spans in {}", tracer.len(), path.display());
    }
    let own = tracer.self_us();
    for name in NAMES {
        let v = own.get(name).copied().unwrap_or(0.0);
        put(&mut out.metrics, &format!("trace.{name}_self_us"), v, "us");
    }
    put(
        &mut out.metrics,
        "trace.overhead_ratio",
        traced_p50 / plain_p50 - 1.0,
        "ratio",
    );
}
