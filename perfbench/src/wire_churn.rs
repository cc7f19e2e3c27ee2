//! `wire_churn`: a durable in-process `QueryServer` (4 shards per
//! catalog, 2 event loops) on a fresh data directory, serving two
//! connections at once. The `writer` holds standing C-IPQ and C-IUQ
//! queries and loops over rounds of UPDATE_BATCH → COMMIT for each
//! catalog, then the round's NOTIFY pushes; the `reader` runs a closed loop of
//! one-shot queries of all four classes.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use iloc_core::pipeline::{PointRequest, UncertainRequest};
use iloc_core::serve::ShardedEngine;
use iloc_core::{Match, PointEngine, QueryAnswer, UncertainEngine};
use iloc_server::client::{Client, ClientError};
use iloc_server::protocol::{opcode, CommitTarget, NotifyCause, StatsReport};
use iloc_server::server::{
    DurabilityOptions, QueryServer, RecoveryInfo, ServerConfig, ServerHandle,
};

use crate::check;
use crate::engine_mix::SETUPS;
use crate::inputs::{
    query_mix, round, subscriptions, wire_points, wire_rects, Catalogs, Item, Query, Raw, Updates,
    BATCH, CHECKPOINT_EVERY, FSYNC, SHARDS, SLACK,
};
use crate::ladder;
use crate::trace::Tracer;
use crate::util::{peak_rss_mib, put, us_since, Samples, Sliced};
use crate::{Args, Outcome};

/// Rounds of the reader's query mix (48 queries each).
const ROUNDS: usize = 100;
/// Queries of the verification batch.
const VERIFY: usize = 96;
/// Restarts timed for `recovery_s`.
const RESTARTS: usize = 9;
/// Writer rounds committed after the window's closing checkpoint: the
/// log tail every restart replays (one record per catalog per round).
const LOGGED_ROUNDS: usize = 8;
const _: () = assert!((LOGGED_ROUNDS as u64) < CHECKPOINT_EVERY);
/// How long the writer waits for one epoch's pushes before failing.
const PUSH_TIMEOUT: Duration = Duration::from_secs(10);

fn options(dir: &Path) -> DurabilityOptions {
    DurabilityOptions {
        data_dir: dir.to_path_buf(),
        fsync: FSYNC,
        checkpoint_every: CHECKPOINT_EVERY,
    }
}

/// Opens the store, starts serving and answers one query; returns the
/// server, its handle, the time that took and the recovery report.
fn bring_up(
    dir: &Path,
    cat: Catalogs,
    first: &PointRequest,
) -> Result<(QueryServer, ServerHandle, f64, RecoveryInfo), String> {
    let t = Instant::now();
    let (server, recovery) = QueryServer::open(cat.points, cat.uncertain, SHARDS, &options(dir))
        .map_err(|e| format!("open: {e}"))?;
    let handle = server
        .start(&ServerConfig::loopback())
        .map_err(|e| format!("start: {e}"))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    client
        .point_query(first)
        .map_err(|e| format!("first answer: {e}"))?;
    Ok((server, handle, t.elapsed().as_secs_f64(), recovery))
}

fn query_into(
    client: &mut Client,
    item: &Item,
    answer: &mut QueryAnswer,
) -> Result<(), ClientError> {
    match &item.query {
        Query::Point(r) => client.point_query_into(r, answer),
        Query::Uncertain(r) => client.uncertain_query_into(r, answer),
    }
}

/// One standing query as the writer sees it: its request (as
/// normalized server-side) and the answer its deltas have built.
struct Standing {
    target: CommitTarget,
    id: u64,
    point: Option<PointRequest>,
    uncertain: Option<UncertainRequest>,
    answer: Vec<Match>,
}

/// Why a writer stopped early: an operation returned an error, or the
/// server's output was wrong.
enum Stop {
    Failed(String),
    Wrong(String),
}

/// What the writer measured.
struct WriterLog {
    commit_us: Samples,
    lag_us: Samples,
    /// Updates per round.
    updates: Samples,
    /// Rounds attempted.
    rounds: u64,
    epochs: [u64; 2],
    stop: Option<Stop>,
}

impl WriterLog {
    fn new(epochs: [u64; 2]) -> WriterLog {
        WriterLog {
            commit_us: Samples::default(),
            lag_us: Samples::default(),
            updates: Samples::default(),
            rounds: 0,
            epochs,
            stop: None,
        }
    }

    /// Adds the rounds to `out` and records why the writer stopped.
    fn report(&mut self, out: &mut Outcome) {
        out.attempted += std::mem::take(&mut self.rounds);
        match self.stop.take() {
            Some(Stop::Failed(e)) => out.fail("writer round", e),
            Some(Stop::Wrong(e)) => out.errors.push(format!("writer: {e}")),
            None => {}
        }
    }
}

/// One writer round: both catalogs' UPDATE_BATCHes, both COMMITs, then
/// the two epochs' pushes, collected behind a PING barrier (the server
/// flushes commit pushes before it answers a later frame). A commit
/// sample is the whole round: the two catalogs' commits differ several
/// fold in cost, and a median over strictly alternating single commits
/// would sit on the boundary between them.
fn commit_round(
    client: &mut Client,
    updates: &mut Updates,
    standing: &mut [Standing],
    log: &mut WriterLog,
) -> Result<(), Stop> {
    let failed = |what: &str, e: ClientError| Stop::Failed(format!("{what}: {e}"));
    let points = wire_points(&updates.point_batch(BATCH));
    let rects = wire_rects(&updates.rect_batch(BATCH));
    let t = Instant::now();
    for wire in [&points, &rects] {
        let accepted = client.submit(wire).map_err(|e| failed("submit", e))?;
        if accepted as usize != wire.len() {
            return Err(Stop::Wrong(format!(
                "{accepted} of {} updates accepted",
                wire.len()
            )));
        }
    }
    let committing = Instant::now();
    let mut epochs = log.epochs;
    for (slot, target) in [CommitTarget::Point, CommitTarget::Uncertain]
        .into_iter()
        .enumerate()
    {
        let report = client.commit(target).map_err(|e| failed("commit", e))?;
        if report.epoch != epochs[slot] + 1 {
            return Err(Stop::Wrong(format!(
                "{target:?} epoch {} after {}",
                report.epoch, epochs[slot]
            )));
        }
        epochs[slot] = report.epoch;
    }
    log.commit_us.push(us_since(t));
    log.epochs = epochs;
    log.updates.push((points.len() + rects.len()) as f64);

    let mut ping = Vec::new();
    iloc_server::protocol::encode_empty(&mut ping, opcode::PING);
    client
        .send_raw(&ping)
        .map_err(|e| failed("ping", ClientError::Io(e)))?;
    let mut last = None;
    loop {
        match client.poll_notification(PUSH_TIMEOUT) {
            Ok(Some(note)) => {
                last = Some(us_since(committing));
                let epoch = epochs[note.target as usize];
                if note.cause != NotifyCause::Commit || note.epoch != epoch {
                    return Err(Stop::Wrong(format!(
                        "push for epoch {} ({:?}) after committing {epoch}",
                        note.epoch, note.cause
                    )));
                }
                let Some(sub) = standing
                    .iter_mut()
                    .find(|s| s.target == note.target && s.id == note.sub_id)
                else {
                    return Err(Stop::Wrong(format!(
                        "push for unknown subscription {}",
                        note.sub_id
                    )));
                };
                check::apply_delta(&mut sub.answer, &note.delta.upserts, &note.delta.removals);
            }
            Err(ClientError::Unexpected { opcode: op }) if op == opcode::PONG => break,
            Ok(None) => return Err(Stop::Wrong("the round's pushes did not arrive".into())),
            Err(e) => return Err(failed("push", e)),
        }
    }
    if let Some(lag) = last {
        log.lag_us.push(lag);
    }
    Ok(())
}

/// Whole rounds until `window` has passed since `start` and at least
/// `min_rounds` have run, or the first round that stops.
fn writer(
    client: &mut Client,
    updates: &mut Updates,
    standing: &mut [Standing],
    epochs: [u64; 2],
    (window, start): (Duration, Instant),
    min_rounds: u64,
) -> WriterLog {
    let mut log = WriterLog::new(epochs);
    loop {
        log.rounds += 1;
        if let Err(stop) = commit_round(client, updates, standing, &mut log) {
            log.stop = Some(stop);
            return log;
        }
        if start.elapsed() >= window && log.rounds >= min_rounds {
            break;
        }
    }
    log
}

/// What the reader measured.
struct ReaderLog {
    latencies: Sliced,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    tracer: Tracer,
}

fn reader(
    client: &mut Client,
    mix: &[Item],
    window: Duration,
    traced: bool,
    start: Instant,
) -> ReaderLog {
    let mut log = ReaderLog {
        latencies: Sliced::default(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        tracer: Tracer::new(start),
    };
    let per_round = round(false).len();
    let mut answer = QueryAnswer::default();
    let mut buf = Vec::new();
    let mut next = 0usize;
    'run: loop {
        for _ in 0..per_round {
            let item = &mix[next];
            next = (next + 1) % mix.len();
            log.attempted += 1;
            let t = Instant::now();
            let got = if traced {
                ladder::traced_wire_query(client, &mut buf, item, &mut answer, &mut log.tracer)
                    .map(|_| ())
            } else {
                query_into(client, item, &mut answer)
            };
            if let Err(e) = got {
                log.failed += 1;
                eprintln!("perfbench: FAILED: reader query: {e}");
                break 'run;
            }
            log.latencies
                .push(start.elapsed().as_secs_f64(), us_since(t));
            if let Err(e) = check::structural(&answer.results, item.qp()) {
                if log.errors.len() < 5 {
                    log.errors.push(format!("answer: {e}"));
                }
            }
        }
        if start.elapsed() >= window {
            break;
        }
    }
    log
}

/// The end-of-run checks on the quiesced server.
fn verify(
    handle: &ServerHandle,
    server: &QueryServer,
    updates: &Updates,
    standing: &[Standing],
    mix: &[Item],
    out: &mut Outcome,
) -> Vec<QueryAnswer> {
    let engines = server.engines();
    let ps = engines.point.snapshot();
    let us = engines.uncertain.snapshot();

    // The served live sets equal the generators' own models.
    out.verdict("live set", check::live_sets(&ps, &us, updates));

    // The verification batch over the wire equals in-process execution
    // at the final epoch, bit for bit.
    let expected: Vec<QueryAnswer> = mix[..VERIFY]
        .iter()
        .map(|item| match &item.query {
            Query::Point(r) => ps.execute_one(r),
            Query::Uncertain(r) => us.execute_one(r),
        })
        .collect();
    check_batch(handle, mix, &expected, "verification batch", out);

    // Base answer plus deltas equals fresh evaluation, per standing query.
    for s in standing {
        let fresh = match (&s.point, &s.uncertain) {
            (Some(r), _) => ps.execute_one(r),
            (_, Some(r)) => us.execute_one(r),
            _ => unreachable!("a standing query has a request"),
        };
        out.verdict(
            &format!("subscription {:?}/{}", s.target, s.id),
            check::same_bits(&s.answer, &fresh.results),
        );
    }

    // No push was dropped.
    out.attempted += 1;
    let stats = Client::connect(handle.addr())
        .and_then(|mut c| c.stats().map_err(|e| std::io::Error::other(e.to_string())));
    match stats {
        Ok(StatsReport {
            dropped_pushes: 0, ..
        }) => {}
        Ok(r) => out
            .errors
            .push(format!("{} pushes dropped", r.dropped_pushes)),
        Err(e) => out.fail("stats", e),
    }
    expected
}

fn check_batch(
    handle: &ServerHandle,
    mix: &[Item],
    expected: &[QueryAnswer],
    what: &str,
    out: &mut Outcome,
) {
    let mut client = match Client::connect(handle.addr()) {
        Ok(c) => c,
        Err(e) => {
            out.attempted += expected.len() as u64;
            out.failed += expected.len() as u64;
            eprintln!("perfbench: FAILED: {what}: connect: {e}");
            return;
        }
    };
    let mut answer = QueryAnswer::default();
    for (k, (item, want)) in mix.iter().zip(expected).enumerate() {
        out.attempted += 1;
        match query_into(&mut client, item, &mut answer) {
            Ok(()) => out.verdict(
                &format!("{what} {k}"),
                check::same_bits(&answer.results, &want.results),
            ),
            Err(e) => out.fail(&format!("{what} {k}"), e),
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let raw = Raw::paper();
    let cat = raw.catalogs();
    let mix = query_mix(args.seed, ROUNDS, false);
    let Query::Point(first) = &mix[0].query else {
        unreachable!("rounds start with an IPQ")
    };

    let Some((setups, server, handle, dir)) = set_up(args, &cat, first, &mut out) else {
        return out;
    };
    drop(cat);
    let churn = churn(
        args,
        &raw,
        &mix,
        first,
        server,
        handle,
        dir,
        &windows(args),
        &mut out,
    );
    let (secs, w, r) = churn.logs.last().expect("one window");
    if !args.trace {
        let m = &mut out.metrics;
        put(m, "setup_s", setups.median(), "s");
        let span = args.window.as_secs_f64();
        put(m, "query_qps", r.latencies.rate(span), "1/s");
        put(m, "query_p50_us", r.latencies.quantile(0.5, span), "us");
        put(m, "query_p99_us", r.latencies.quantile(0.99, span), "us");
        put(m, "peak_rss_mib", peak_rss_mib(), "MiB");
        writer_metrics(&mut out, *secs, w, &churn.recoveries);
        return out;
    }

    let mut tracer = Tracer::new(churn.origin);
    let (plain, traced) = (&churn.logs[0].2, &churn.logs[1].2);
    let half = args.window.as_secs_f64() / 2.0;
    let (plain_p50, traced_p50) = (
        plain.latencies.quantile(0.5, half),
        traced.latencies.quantile(0.5, half),
    );
    for (_, _, r) in churn.logs {
        tracer.absorb(r.tracer);
    }
    let raw_cat = raw.catalogs();
    let snapshots = (
        ShardedEngine::<PointEngine>::build(raw_cat.points.clone(), SHARDS).snapshot(),
        ShardedEngine::<UncertainEngine>::build(raw_cat.uncertain.clone(), SHARDS).snapshot(),
    );
    let ctx = ladder::Context {
        args,
        raw: &raw,
        cat: &raw_cat,
        mix: &mix,
        snapshots,
    };
    ladder::run(&ctx, &mut out, &mut tracer);
    ladder::finish(args, &mut out, tracer, plain_p50, traced_p50);
    out
}

/// Brings a durable server up `SETUPS` times on fresh directories, each
/// replacing the last; returns the set-up times and the last server.
fn set_up(
    args: &Args,
    cat: &Catalogs,
    first: &PointRequest,
    out: &mut Outcome,
) -> Option<(Samples, QueryServer, ServerHandle, PathBuf)> {
    let mut setups = Samples::default();
    let mut live = None;
    for k in 0..SETUPS {
        if let Some((server, handle, dir)) = live.take() {
            drop::<QueryServer>(server);
            ServerHandle::shutdown(handle);
            let _ = std::fs::remove_dir_all::<PathBuf>(dir);
        }
        let dir = args.work_dir.join(format!("store-{k}"));
        out.attempted += 1;
        match bring_up(&dir, cat.clone(), first) {
            Ok((server, handle, secs, _)) => {
                setups.push(secs);
                live = Some((server, handle, dir));
            }
            Err(e) => {
                out.fail("set-up", e);
                return None;
            }
        }
    }
    live.map(|(server, handle, dir)| (setups, server, handle, dir))
}

/// The measured windows: the whole window, or untraced and traced
/// halves for a traced run.
fn windows(args: &Args) -> Vec<(Duration, bool)> {
    if args.trace {
        vec![(args.window / 2, false), (args.window / 2, true)]
    } else {
        vec![(args.window, false)]
    }
}

/// The writer's figures and the restart times.
fn writer_metrics(out: &mut Outcome, secs: f64, w: &WriterLog, recoveries: &Samples) {
    let m = &mut out.metrics;
    put(m, "updates_per_s", w.updates.sum() / secs, "1/s");
    put(m, "commit_p50_us", w.commit_us.median(), "us");
    put(m, "notify_lag_p50_us", w.lag_us.median(), "us");
    put(m, "recovery_s", recoveries.median(), "s");
    eprintln!(
        "perfbench: {} commit rounds, {} waited for pushes",
        w.commit_us.len(),
        w.lag_us.len(),
    );
}

/// The `wire_churn` set-ups and window (writer and reader) over the
/// run's catalogs, then the restarts: the commit-path metrics of a
/// workload whose own window serves no writes. A writer alone was both
/// slower and less steady on the reference machine (see README.md).
pub fn writer_phase(args: &Args, raw: &Raw, cat: &Catalogs, out: &mut Outcome) {
    let mix = query_mix(args.seed, ROUNDS, false);
    let Query::Point(first) = &mix[0].query else {
        unreachable!("rounds start with an IPQ")
    };
    if let Some((_, server, handle, dir)) = set_up(args, cat, first, out) {
        let windows = [(args.window, false)];
        let churn = churn(args, raw, &mix, first, server, handle, dir, &windows, out);
        let (secs, w, _) = churn.logs.last().expect("one window");
        writer_metrics(out, *secs, w, &churn.recoveries);
    }
}

/// What [`churn`] measured.
struct Churn {
    origin: Instant,
    logs: Vec<(f64, WriterLog, ReaderLog)>,
    recoveries: Samples,
}

/// Subscribes the standing queries, runs the windows (the writer and
/// the reader), checkpoints, commits `LOGGED_ROUNDS` more rounds and
/// copies the store (a crash image, see [`copy_dir`]), checks the
/// quiesced server, shuts it down and times the restarts from the
/// image; removes `dir`.
#[allow(clippy::too_many_arguments)]
fn churn(
    args: &Args,
    raw: &Raw,
    mix: &[Item],
    first: &PointRequest,
    server: QueryServer,
    handle: ServerHandle,
    dir: PathBuf,
    windows: &[(Duration, bool)],
    out: &mut Outcome,
) -> Churn {
    let (sub_p, sub_u) = subscriptions();
    let mut writer_client = Client::connect(handle.addr()).expect("writer connects");
    let mut standing = Vec::new();
    for r in sub_p {
        out.attempted += 1;
        match writer_client.subscribe_point(&r, SLACK) {
            Ok((ack, base)) => standing.push(Standing {
                target: CommitTarget::Point,
                id: ack.sub_id,
                point: Some(r),
                uncertain: None,
                answer: base.results,
            }),
            Err(e) => out.fail("subscribe", e),
        }
    }
    for r in sub_u {
        out.attempted += 1;
        match writer_client.subscribe_uncertain(&r, SLACK) {
            Ok((ack, base)) => standing.push(Standing {
                target: CommitTarget::Uncertain,
                id: ack.sub_id,
                point: None,
                uncertain: Some(r),
                answer: base.results,
            }),
            Err(e) => out.fail("subscribe", e),
        }
    }
    let mut reader_client = Client::connect(handle.addr()).expect("reader connects");
    let mut updates = raw.updates(args.seed);

    // Warm-up: one writer round and one round of reads.
    let origin = Instant::now();
    let mut warm = writer(
        &mut writer_client,
        &mut updates,
        &mut standing,
        [0, 0],
        (Duration::ZERO, origin),
        1,
    );
    let warm_reads = reader(&mut reader_client, mix, Duration::ZERO, false, origin);
    out.attempted += warm_reads.attempted;
    out.failed += warm_reads.failed;
    out.errors.extend(warm_reads.errors);
    let mut stopped = warm.stop.is_some();
    warm.report(out);

    let mut epochs = warm.epochs;
    let mut logs = Vec::new();
    for &(window, traced) in windows {
        let start = Instant::now();
        let (mut w, r) = std::thread::scope(|s| {
            let w = s.spawn(|| {
                writer(
                    &mut writer_client,
                    &mut updates,
                    &mut standing,
                    epochs,
                    (window, start),
                    1,
                )
            });
            let r = s.spawn(|| reader(&mut reader_client, mix, window, traced, start));
            (
                w.join().expect("writer thread"),
                r.join().expect("reader thread"),
            )
        });
        let secs = start.elapsed().as_secs_f64();
        epochs = w.epochs;
        stopped |= w.stop.is_some();
        w.report(out);
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.errors.extend(r.errors.iter().cloned());
        logs.push((secs, w, r));
    }
    drop(reader_client);

    let image = args.work_dir.join("crash-image");
    if !stopped {
        out.attempted += 1;
        if let Err(e) = checkpoint_now(&server) {
            out.fail("checkpoint", e);
        }
        let mut tail = writer(
            &mut writer_client,
            &mut updates,
            &mut standing,
            epochs,
            (Duration::ZERO, Instant::now()),
            LOGGED_ROUNDS as u64,
        );
        epochs = tail.epochs;
        tail.report(out);
        out.attempted += 1;
        if let Err(e) = copy_dir(&dir, &image) {
            out.fail("crash image", e);
        }
    }

    let expected = verify(&handle, &server, &updates, &standing, mix, out);
    drop(writer_client);
    drop(server);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // Restarts, each from a fresh copy of the crash image: time to the
    // first answer, with the logged rounds replayed; the first restart
    // also answers the verification batch again at the acknowledged
    // epochs.
    let mut recoveries = Samples::default();
    for k in 0..RESTARTS {
        let empty = Catalogs {
            points: Vec::new(),
            uncertain: Vec::new(),
        };
        let restart = args.work_dir.join(format!("restart-{k}"));
        out.attempted += 1;
        let up = copy_dir(&image, &restart)
            .map_err(|e| format!("copy: {e}"))
            .and_then(|()| bring_up(&restart, empty, first));
        match up {
            Ok((server, handle, secs, rec)) => {
                recoveries.push(secs);
                let recovered = [rec.point.epoch, rec.uncertain.epoch];
                if recovered != epochs {
                    out.errors.push(format!(
                        "recovered epochs {recovered:?}, acknowledged {epochs:?}"
                    ));
                }
                let replayed = [rec.point.replayed_batches, rec.uncertain.replayed_batches];
                if replayed != [LOGGED_ROUNDS; 2] {
                    out.errors.push(format!(
                        "restart replayed {replayed:?} log records, {LOGGED_ROUNDS} per catalog logged"
                    ));
                }
                if k == 0 {
                    check_batch(&handle, mix, &expected, "after recovery", out);
                }
                drop(server);
                handle.shutdown();
            }
            Err(e) => out.fail("restart", e),
        }
        let _ = std::fs::remove_dir_all(&restart);
    }
    let _ = std::fs::remove_dir_all(&image);
    Churn {
        origin,
        logs,
        recoveries,
    }
}

/// Waits until neither catalog has a background checkpoint due (the
/// writer has stopped, so the epochs are frozen; a checkpoint in flight
/// keeps its catalog due until it has rotated the log), then
/// checkpoints both at the current epoch. The next `CHECKPOINT_EVERY`
/// commits reach only the log.
fn checkpoint_now(server: &QueryServer) -> Result<(), String> {
    let engines = server.engines();
    let due = || {
        let p = &engines.point;
        let u = &engines.uncertain;
        p.epoch() >= p.last_checkpoint_epoch().unwrap_or(0) + CHECKPOINT_EVERY
            || u.epoch() >= u.last_checkpoint_epoch().unwrap_or(0) + CHECKPOINT_EVERY
    };
    let t = Instant::now();
    while due() {
        if t.elapsed() > PUSH_TIMEOUT {
            return Err("a background checkpoint did not finish".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    engines.point.checkpoint().map_err(|e| e.to_string())?;
    engines.uncertain.checkpoint().map_err(|e| e.to_string())?;
    Ok(())
}

/// Copies a store directory. Taken from a live server between commits
/// with fsync `always` and no checkpoint running, the copy is what a
/// crash at that moment would leave on disk: a crash image.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
