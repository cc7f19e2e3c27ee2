//! `engine_mix`: the paper-scale catalogs in 4-shard engines, queried
//! by one closed-loop thread through a warm `ShardServer::execute_into`.
//! No sockets, frames or commits in the window; an untraced run then
//! closes with the writer phase (`wire_churn::writer_phase`).

use std::time::Instant;

use iloc_core::pipeline::{BatchEngine, ExecutionContext};
use iloc_core::serve::{ShardServer, ShardedEngine, Snapshot};
use iloc_core::{merge_partials_into, Integrator, PointEngine, QueryAnswer, UncertainEngine};

use crate::check;
use crate::inputs::{query_mix, Catalogs, Item, Query, Raw, SHARDS};
use crate::ladder;
use crate::trace::{Tracer, ROOT};
use crate::util::{peak_rss_mib, put, us_since, Samples, Sliced};
use crate::{Args, Outcome};

/// Rounds of the query mix (48 queries each) a run cycles through.
const ROUNDS: usize = 200;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Both catalogs behind warm per-worker servers.
pub struct Engines {
    pub point: ShardServer<PointEngine>,
    pub uncertain: ShardServer<UncertainEngine>,
}

impl Engines {
    pub fn build(cat: Catalogs, shards: usize) -> Engines {
        let point = ShardedEngine::<PointEngine>::build(cat.points, shards);
        let uncertain = ShardedEngine::<UncertainEngine>::build(cat.uncertain, shards);
        Engines {
            point: ShardServer::new(point.snapshot()),
            uncertain: ShardServer::new(uncertain.snapshot()),
        }
    }

    pub fn execute(&mut self, item: &Item, answer: &mut QueryAnswer) {
        match &item.query {
            Query::Point(r) => self.point.execute_into(r, answer),
            Query::Uncertain(r) => self.uncertain.execute_into(r, answer),
        }
    }

    pub fn snapshots(&self) -> (Snapshot<PointEngine>, Snapshot<UncertainEngine>) {
        (
            self.point.snapshot().clone(),
            self.uncertain.snapshot().clone(),
        )
    }
}

/// The same fan-out `execute_into` performs, done here shard by shard
/// so each shard call and the merge get a span.
pub struct TracedFanout {
    ctx: ExecutionContext,
    partials: Vec<QueryAnswer>,
}

impl TracedFanout {
    pub fn new() -> TracedFanout {
        TracedFanout {
            ctx: ExecutionContext::new(Integrator::Auto),
            partials: Vec::new(),
        }
    }

    pub fn execute(
        &mut self,
        snapshots: &(Snapshot<PointEngine>, Snapshot<UncertainEngine>),
        item: &Item,
        answer: &mut QueryAnswer,
        tracer: &mut Tracer,
    ) {
        let root = tracer.begin("engine_query", ROOT);
        match &item.query {
            Query::Point(r) => self.shards(snapshots.0.shards(), r, tracer, root),
            Query::Uncertain(r) => self.shards(snapshots.1.shards(), r, tracer, root),
        }
        let merge = tracer.begin("merge", root);
        merge_partials_into(answer, self.partials.iter().map(|p| p.results.as_slice()));
        tracer.end(merge);
        tracer.end(root);
    }

    fn shards<E: BatchEngine>(
        &mut self,
        shards: &[std::sync::Arc<E>],
        request: &E::Request,
        tracer: &mut Tracer,
        root: usize,
    ) {
        self.partials
            .resize_with(shards.len(), QueryAnswer::default);
        for (shard, partial) in shards.iter().zip(self.partials.iter_mut()) {
            let span = tracer.begin("shard", root);
            shard.execute_one_into(request, &mut self.ctx, partial);
            tracer.end(span);
        }
    }
}

/// Runs whole rounds until `window` has passed; returns per-query
/// latencies in microseconds by slice.
fn window(
    mix: &[Item],
    window: std::time::Duration,
    out: &mut Outcome,
    mut run_one: impl FnMut(&Item, &mut QueryAnswer),
) -> Sliced {
    let mut answer = QueryAnswer::default();
    let mut lat = Sliced::default();
    let start = Instant::now();
    let mut next = 0usize;
    let round = crate::inputs::round(true).len();
    while start.elapsed() < window {
        for _ in 0..round {
            let item = &mix[next];
            next = (next + 1) % mix.len();
            let t = Instant::now();
            run_one(item, &mut answer);
            lat.push(start.elapsed().as_secs_f64(), us_since(t));
            out.attempted += 1;
            let v = check::structural(&answer.results, item.qp());
            out.verdict("answer", v);
        }
    }
    lat
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let raw = Raw::paper();
    let cat = raw.catalogs();
    let mix = query_mix(args.seed, ROUNDS, true);

    let mut setups = Samples::default();
    let mut engines = None;
    for _ in 0..SETUPS {
        drop(engines.take());
        let input = cat.clone();
        out.attempted += 1;
        let t = Instant::now();
        let mut e = Engines::build(input, SHARDS);
        let mut first = QueryAnswer::default();
        e.execute(&mix[0], &mut first);
        setups.push(t.elapsed().as_secs_f64());
        engines = Some(e);
    }
    let mut engines = engines.expect("at least one set-up");

    // Oracle checks on the first two rounds, then warm-up on the next two.
    let mut answer = QueryAnswer::default();
    out.attempted += 192;
    for item in &mix[..96] {
        engines.execute(item, &mut answer);
        let v = check::check_answer(
            &cat.points,
            &cat.uncertain,
            item,
            &answer.results,
            args.seed,
        );
        out.verdict(&format!("{:?} oracle", item.class), v);
    }
    for item in &mix[96..192] {
        engines.execute(item, &mut answer);
    }

    if !args.trace {
        let lat = window(&mix, args.window, &mut out, |item, a| {
            engines.execute(item, a)
        });
        let span = args.window.as_secs_f64();
        put(&mut out.metrics, "setup_s", setups.median(), "s");
        put(&mut out.metrics, "query_qps", lat.rate(span), "1/s");
        put(
            &mut out.metrics,
            "query_p50_us",
            lat.quantile(0.5, span),
            "us",
        );
        put(
            &mut out.metrics,
            "query_p99_us",
            lat.quantile(0.99, span),
            "us",
        );
        put(&mut out.metrics, "peak_rss_mib", peak_rss_mib(), "MiB");
        drop(engines);
        crate::wire_churn::writer_phase(args, &raw, &cat, &mut out);
        return out;
    }

    // Traced run: an untraced and a traced half window, then the ladder.
    let half = args.window / 2;
    let plain = window(&mix, half, &mut out, |item, a| engines.execute(item, a));
    let snapshots = engines.snapshots();
    let mut tracer = Tracer::new(Instant::now());
    let mut fanout = TracedFanout::new();
    let traced = window(&mix, half, &mut out, |item, a| {
        fanout.execute(&snapshots, item, a, &mut tracer)
    });
    let ctx = ladder::Context {
        args,
        raw: &raw,
        cat: &cat,
        mix: &mix,
        snapshots,
    };
    ladder::run(&ctx, &mut out, &mut tracer);
    let span = half.as_secs_f64();
    let (plain_p50, traced_p50) = (plain.quantile(0.5, span), traced.quantile(0.5, span));
    ladder::finish(args, &mut out, tracer, plain_p50, traced_p50);
    out
}
