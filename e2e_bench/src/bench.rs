//! One benchmark run: set-ups, determinism calls, the measured engine
//! call, and — when traced — the layer replay and the baseline.
//!
//! An untraced run makes `SETUPS` set-ups, two short engine calls of the
//! same seed (the determinism pair) and one measured call. A traced run
//! makes two half-length calls, untraced then traced, which are its
//! determinism pair and its tracing-overhead pair, then replays a few
//! rounds layer by layer.

use crate::replay::{self, ReplayCounts, ReplaySpec};
use crate::report::Report;
use crate::sim;
use crate::stats::{self, mean, median, percentile};
use crate::sys;
use crate::trace::{self, LayerTotal, Tracer};
use crate::wire;
use crate::workload::{fast_accuracy, initial_params, Geometry, SetupTimes, Workload};
use std::collections::BTreeMap;
use std::time::Duration;

/// Set-ups made before the engine calls, and again after them; `setup_s`
/// is the median of all of them. Sampling both ends of the run keeps one
/// burst of machine noise from setting a run's set-up time.
pub const SETUPS: usize = 9;

/// Rounds the layer replay re-runs.
const REPLAY_ROUNDS: usize = 3;

/// Rounds of each short determinism call.
fn digest_rounds(workload: Workload) -> usize {
    match workload {
        Workload::SimAlie => 20,
        _ => 3,
    }
}

/// How one run is shaped.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    pub geometry: Geometry,
    pub seed: u64,
    /// Rounds of the measured engine call (split in two when traced).
    pub rounds: usize,
    pub digest_rounds: usize,
    pub traced: bool,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Plan {
        Plan {
            workload,
            geometry: workload.geometry(),
            seed,
            rounds: workload.rounds_for(seconds),
            digest_rounds: digest_rounds(workload),
            traced,
        }
    }

    /// Rounds of each engine call, in call order.
    fn calls(&self) -> Vec<usize> {
        if self.traced {
            vec![self.rounds / 2, self.rounds / 2]
        } else {
            vec![self.digest_rounds, self.digest_rounds, self.rounds]
        }
    }
}

/// Runs the plan. Returns the report and, when traced, the spans as
/// JSON lines.
pub fn run(plan: &Plan) -> (Report, String) {
    let mut report = Report::default();
    report.note("workload", plan.workload.name());
    report.note("seed", plan.seed);
    report.note("kernel_threads", byz_kernel::num_threads());
    report.note("nproc", sys::nproc());
    report.check(
        "kernel_threads_within_nproc",
        byz_kernel::num_threads() <= sys::nproc(),
        format!(
            "{} pool threads on {} cpus",
            byz_kernel::num_threads(),
            sys::nproc()
        ),
    );
    let mut tracer = Tracer::new();
    let ok = match plan.workload {
        Workload::SimAlie => run_sim(plan, &mut report, &mut tracer),
        _ => run_wire(plan, &mut report, &mut tracer),
    };
    let mut spans = String::new();
    if plan.traced {
        let finished = tracer.finish();
        spans = trace::to_jsonl(&finished);
        report.metric("trace.spans", finished.len() as f64);
    }
    if !ok {
        // A failed engine call leaves nothing to measure: report zeros so
        // the result line stays well formed; the failed operations make
        // it incorrect.
        let table = if plan.traced {
            &crate::report::PER_LAYER[..]
        } else {
            &crate::report::END_TO_END[..]
        };
        for (name, _) in table {
            if report.value(name).is_none() {
                report.metric(name, 0.0);
            }
        }
    }
    (report, spans)
}

/// Set-up times of one run.
#[derive(Default)]
struct SetupLog {
    totals: Vec<Duration>,
    times: Vec<SetupTimes>,
}

/// Makes `SETUPS` set-ups with `build`, logs their times, and returns the
/// last `keep`. Older set-ups are dropped as soon as the next one is
/// built, so later set-ups reuse freed memory the way a long-lived process
/// would. `None` (with a failed check) when a set-up fails.
fn build_setups<S>(
    report: &mut Report,
    plan: &Plan,
    log: &mut SetupLog,
    keep: usize,
    mut build: impl FnMut() -> std::io::Result<(S, Duration, SetupTimes)>,
) -> Option<Vec<S>> {
    let mut kept = Vec::new();
    for _ in 0..SETUPS {
        match build() {
            Ok((setup, total, times)) => {
                log.totals.push(total);
                log.times.push(times);
                kept.push(setup);
                if kept.len() > keep {
                    kept.remove(0);
                }
            }
            Err(e) => {
                engine_failed(report, "setup", plan.rounds, &e.to_string());
                return None;
            }
        }
    }
    Some(kept)
}

fn setup_metrics(report: &mut Report, log: &SetupLog, traced: bool) {
    report.note("setups", log.totals.len());
    if traced {
        let ms = |f: fn(&SetupTimes) -> Duration| {
            let v: Vec<f64> = log.times.iter().map(|t| f(t).as_secs_f64() * 1e3).collect();
            median(&v).unwrap_or(0.0)
        };
        report.metric("data.generate_ms", ms(|t| t.generate));
        report.metric("assign.build_ms", ms(|t| t.assign));
        report.metric("distortion.cmax_ms", ms(|t| t.cmax));
    } else {
        let secs: Vec<f64> = log.totals.iter().map(Duration::as_secs_f64).collect();
        report.metric("setup_s", median(&secs).unwrap_or(0.0));
    }
}

/// Records a failed engine call: its rounds are failed operations.
fn engine_failed(report: &mut Report, label: &str, rounds: usize, err: &str) {
    report.rounds_failed += rounds as u64;
    report.check(label, false, err.to_string());
}

/// What both planes measure from their last engine call.
struct Measured {
    rounds: usize,
    /// Per-round wall times, ms.
    round_ms: Vec<f64>,
    wall: Duration,
    cpu_ms: f64,
    accuracy: f64,
    ingress_bytes_per_round: f64,
    /// Voted files a Byzantine replica agrees with, over voted files.
    corrupted: f64,
    /// Files without a winner, over files attempted.
    abandoned: f64,
    max_corrupted_per_round: usize,
    abandoned_files: usize,
}

/// Checks and end-to-end metrics shared by both planes.
fn common(report: &mut Report, plan: &Plan, m: &Measured, expected_rounds: usize, cmax: usize) {
    let w = plan.workload;
    report.note("measured_rounds", m.rounds);
    report.note("round_ms_samples", m.round_ms.len());
    report.check(
        "rounds_completed",
        m.rounds == expected_rounds,
        format!("{} of {expected_rounds} rounds", m.rounds),
    );
    // The rounds lie inside the engine call; outside them are only thread
    // start-up, the TCP handshake and shutdown.
    let sum_ms: f64 = m.round_ms.iter().sum();
    let wall_ms = m.wall.as_secs_f64() * 1e3;
    report.check(
        "round_times_within_wall",
        sum_ms <= wall_ms && wall_ms - sum_ms <= 2_000.0 + 0.1 * wall_ms,
        format!("rounds sum to {sum_ms} ms of {wall_ms} ms engine wall time"),
    );
    report.check(
        "accuracy_floor",
        m.accuracy >= w.accuracy_floor(),
        format!("accuracy {} vs floor {}", m.accuracy, w.accuracy_floor()),
    );
    report.check(
        "distortion_bound",
        m.max_corrupted_per_round <= cmax,
        format!(
            "at most {} corrupted files in a round vs c_max(q) = {cmax}",
            m.max_corrupted_per_round
        ),
    );
    if w == Workload::ChanWide {
        report.check(
            "zero_abandoned",
            m.abandoned_files == 0,
            format!("{} files abandoned", m.abandoned_files),
        );
    }
    let samples_per_s = samples_per_s(plan, m.rounds, m.wall);
    if plan.traced {
        report.metric("trace.samples_per_s", samples_per_s);
        report.metric("audit.corrupted_file_fraction", m.corrupted);
        report.metric("audit.abandoned_file_ratio", m.abandoned);
    } else {
        let n = m.round_ms.len();
        report.check(
            "p90_has_ten_beyond",
            stats::supports(n, 90.0),
            format!(
                "{} of {n} round times beyond the 90th percentile",
                stats::samples_beyond(n, 90.0)
            ),
        );
        report.metric("samples_per_s", samples_per_s);
        report.metric("round_ms_p50", percentile(&m.round_ms, 50.0).unwrap_or(0.0));
        report.metric("round_ms_p90", percentile(&m.round_ms, 90.0).unwrap_or(0.0));
        report.metric("cpu_ms_per_round", m.cpu_ms / m.rounds.max(1) as f64);
        report.metric("peak_rss_mb", sys::peak_rss_mb());
        report.metric("ingress_bytes_per_round", m.ingress_bytes_per_round);
        report.metric("test_accuracy", m.accuracy);
        report.metric("clean_file_fraction", 1.0 - m.corrupted);
        report.metric("decided_file_ratio", 1.0 - m.abandoned);
    }
}

fn samples_per_s(plan: &Plan, rounds: usize, wall: Duration) -> f64 {
    (plan.geometry.batch * rounds) as f64 / wall.as_secs_f64()
}

fn run_wire(plan: &Plan, report: &mut Report, tracer: &mut Tracer) -> bool {
    let w = plan.workload;
    let mut log = SetupLog::default();
    let build = |tracer: Option<&mut Tracer>| {
        let s = wire::setup(w, &plan.geometry, plan.seed, plan.rounds, tracer)?;
        let (total, times) = (s.total, s.times);
        Ok((s, total, times))
    };
    let keep = plan.calls().len();
    let Some(setups) = build_setups(report, plan, &mut log, keep, || {
        build(plan.traced.then_some(&mut *tracer))
    }) else {
        return false;
    };

    let mut runs = Vec::new();
    for (setup, rounds) in setups.into_iter().zip(plan.calls()) {
        let mut setup = setup;
        setup.config.iterations = rounds;
        report.rounds_attempted += rounds as u64;
        match wire::run_engine(setup) {
            Ok(run) => runs.push(run),
            Err(e) => {
                engine_failed(report, "engine_call", rounds, &e);
                return false;
            }
        }
    }
    if build_setups(report, plan, &mut log, 0, || build(None)).is_none() {
        return false;
    }
    setup_metrics(report, &log, plan.traced);
    let first = &runs[0];
    report.check(
        "determinism",
        wire::run_digest(&first.0.run) == wire::run_digest(&runs[1].0.run),
        "two engine calls of one seed: parameters, audits and ledger",
    );
    let (engine, task, dims) = runs.last().expect("at least one call");
    let run = &engine.run;
    if !plan.traced {
        let d = plan.digest_rounds;
        report.check(
            "measured_prefix_matches",
            wire::rounds_digest(run, d) == wire::rounds_digest(&first.0.run, d),
            format!("first {d} rounds of the measured call"),
        );
    }

    let byzantine = w.byzantine();
    let audit = wire::audit_run(run, &byzantine, task.assignment.num_files());
    let m = Measured {
        rounds: run.summaries.len(),
        round_ms: run
            .summaries
            .iter()
            .map(|s| s.timings.round_ns as f64 / 1e6)
            .collect(),
        wall: engine.wall,
        cpu_ms: engine.cpu_ms,
        accuracy: fast_accuracy(dims, &run.params, &task.test),
        ingress_bytes_per_round: mean(
            &run.summaries
                .iter()
                .map(|s| s.bytes_received as f64)
                .collect::<Vec<_>>(),
        ),
        corrupted: ratio(audit.corrupted, audit.voted),
        abandoned: ratio(audit.abandoned, audit.attempted),
        max_corrupted_per_round: audit.max_corrupted_per_round,
        abandoned_files: audit.abandoned,
    };
    let expected = *plan.calls().last().expect("at least one call");
    common(report, plan, &m, expected, task.cmax);
    if !plan.traced {
        return true;
    }

    // Engine phases from the traced call's own timings.
    let n = m.rounds.max(1) as f64;
    let phase = |f: fn(&byzshield::prelude::PhaseTimings) -> u64| {
        run.summaries
            .iter()
            .map(|s| f(&s.timings) as f64)
            .sum::<f64>()
            / n
            / 1e6
    };
    report.metric("engine.compute_ms", phase(|t| t.compute_ns));
    report.metric("engine.collect_ms", phase(|t| t.wire_ns));
    report.metric("engine.vote_ms", phase(|t| t.vote_ns));
    report.metric("engine.update_ms", phase(|t| t.update_ns));
    report.metric(
        "engine.overlap_ratio",
        run.summaries
            .iter()
            .map(|s| s.timings.overlap_ratio())
            .sum::<f64>()
            / n,
    );
    let non_strict: usize = run.summaries.iter().map(|s| s.non_strict_votes).sum();
    let degraded: usize = run.summaries.iter().map(|s| s.degraded_votes).sum();
    report.metric(
        "aggregate.strict_vote_ratio",
        1.0 - ratio(non_strict, audit.voted),
    );
    report.metric("aggregate.degraded_votes", degraded as f64 / n);
    let quarantined = run
        .summaries
        .last()
        .map(|s| s.quarantined_workers.clone())
        .unwrap_or_default();
    let caught = quarantined.iter().filter(|q| byzantine.contains(q)).count();
    report.metric("reputation.quarantined", quarantined.len() as f64);
    report.metric("reputation.precision", precision(caught, quarantined.len()));
    report.metric("distortion.bound", task.bound());
    overhead_metrics(report, plan, first.0.run.summaries.len(), first.0.wall);

    // Layer replay of the same seeded rounds.
    let initial = initial_params(dims, plan.seed ^ 0x11);
    let config = wire::server_config(w, &plan.geometry, plan.seed, REPLAY_ROUNDS);
    let spec = ReplaySpec {
        train: &task.train,
        assignment: &task.assignment,
        dims,
        initial_params: &initial,
        config: &config,
        rounds: REPLAY_ROUNDS,
    };
    let counts = match replay::replay(&spec, tracer) {
        Ok(counts) => counts,
        Err(e) => {
            engine_failed(report, "replay", REPLAY_ROUNDS, &e.to_string());
            return false;
        }
    };
    let matched = counts
        .audits
        .iter()
        .zip(&run.summaries)
        .filter(|(replayed, engine)| **replayed == engine.audits)
        .count();
    report.check(
        "replay_matches_engine",
        matched == REPLAY_ROUNDS,
        format!("{matched} of {REPLAY_ROUNDS} replayed rounds vote like the engine"),
    );
    let totals = trace::layer_totals(&tracer.finish());
    let per_round = |name: &str| per_round_us(&totals, name, REPLAY_ROUNDS);
    report.metric("nn.forward_us", us_per_call(&totals, "nn.forward"));
    report.metric(
        "nn.forward_calls",
        counts.grads as f64 / REPLAY_ROUNDS as f64,
    );
    report.metric(
        "nn.grads_per_round",
        counts.grads as f64 / REPLAY_ROUNDS as f64,
    );
    report.metric("attack.forge_us", us_per_call(&totals, "attack.forge"));
    report.metric(
        "attack.forge_calls",
        counts.forge_calls as f64 / REPLAY_ROUNDS as f64,
    );
    report.metric("aggregate.vote_us", per_round("aggregate.vote"));
    report.metric("aggregate.median_us", per_round("aggregate.median"));
    replay_metrics(report, &totals, &counts);
    report.metric(
        "baseline.single_worker_samples_per_s",
        replay::single_worker_samples_per_s(&spec, 5, Duration::from_secs(1)),
    );
    true
}

/// Metrics every plane takes from the replay: data split, fast-path
/// gradients, the codec and transport, update and reputation fold.
fn replay_metrics(report: &mut Report, totals: &BTreeMap<&str, LayerTotal>, c: &ReplayCounts) {
    let rounds = c.audits.len().max(1);
    let frames = c.frames.max(1) as f64;
    report.metric(
        "data.batch_split_us",
        us_per_call(totals, "data.batch_split"),
    );
    report.metric("nn.fast_grad_us", us_per_call(totals, "nn.fast_grad"));
    report.metric("wire.encode_us", us_per_call(totals, "wire.encode"));
    report.metric("wire.decode_us", us_per_call(totals, "wire.decode"));
    report.metric("wire.frames_per_round", c.frames as f64 / rounds as f64);
    report.metric(
        "wire.frame_bytes_per_round",
        c.frame_bytes as f64 / rounds as f64,
    );
    report.metric(
        "wire.payload_ratio",
        c.payload_bytes as f64 / c.frame_bytes.max(1) as f64,
    );
    report.metric(
        "wire.broadcast_encode_us",
        us_per_call(totals, "wire.broadcast_encode"),
    );
    report.metric(
        "wire.broadcast_decode_us",
        us_per_call(totals, "wire.broadcast_decode"),
    );
    report.metric(
        "wire.tcp_frame_us",
        totals
            .get("wire.tcp_frame")
            .map_or(0.0, |t| t.self_ns as f64)
            / 1e3
            / frames,
    );
    report.metric(
        "kernel.update_us",
        per_round_us(totals, "kernel.update", rounds),
    );
    report.metric(
        "reputation.fold_us",
        per_round_us(totals, "reputation.fold", rounds),
    );
    report.metric(
        "replay.unattributed_ms",
        per_round_us(totals, "replay.round", rounds) / 1e3,
    );
}

fn overhead_metrics(report: &mut Report, plan: &Plan, rounds: usize, wall: Duration) {
    let untraced = samples_per_s(plan, rounds, wall);
    report.metric("trace.untraced_samples_per_s", untraced);
    let traced = report.value("trace.samples_per_s").unwrap_or(0.0);
    report.metric("trace.overhead_ratio", untraced / traced);
}

fn us_per_call(totals: &BTreeMap<&str, LayerTotal>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, LayerTotal::us_per_call)
}

fn per_round_us(totals: &BTreeMap<&str, LayerTotal>, name: &str, rounds: usize) -> f64 {
    totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3) / rounds.max(1) as f64
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Share of quarantined workers that are Byzantine; 1 when nobody was
/// quarantined (no false quarantine).
fn precision(caught: usize, quarantined: usize) -> f64 {
    if quarantined == 0 {
        1.0
    } else {
        caught as f64 / quarantined as f64
    }
}

fn run_sim(plan: &Plan, report: &mut Report, tracer: &mut Tracer) -> bool {
    let mut log = SetupLog::default();
    let build = |tracer: Option<&mut Tracer>| {
        let s = sim::setup(&plan.geometry, plan.seed, plan.rounds, tracer);
        let (total, times) = (s.total, s.times);
        Ok((s, total, times))
    };
    let calls = plan.calls();
    let Some(setups) = build_setups(report, plan, &mut log, calls.len(), || {
        build(plan.traced.then_some(&mut *tracer))
    }) else {
        return false;
    };

    let mut runs = Vec::new();
    for (i, (setup, rounds)) in setups.into_iter().zip(calls.iter().copied()).enumerate() {
        let mut setup = setup;
        setup.config.iterations = rounds;
        report.rounds_attempted += rounds as u64;
        let traced = plan.traced && i + 1 == calls.len();
        match sim::run_engine(setup, traced.then(|| std::mem::take(&mut *tracer))) {
            Ok(mut run) => {
                if let Some(t) = run.0.probe.tracer.take() {
                    *tracer = t;
                }
                runs.push(run);
            }
            Err(e) => {
                engine_failed(report, "engine_call", rounds, &e);
                return false;
            }
        }
    }
    if build_setups(report, plan, &mut log, 0, || build(None)).is_none() {
        return false;
    }
    setup_metrics(report, &log, plan.traced);
    let (first, second) = (&runs[0].0, &runs[1].0);
    report.check(
        "determinism",
        sim::run_digest(first) == sim::run_digest(second),
        "two engine calls of one seed: parameters and per-iteration outcomes",
    );
    let (run, task) = runs.last().expect("at least one call");
    if !plan.traced {
        let d = plan.digest_rounds;
        report.check(
            "measured_prefix_matches",
            sim::rounds_digest(&run.history, d) == sim::rounds_digest(&first.history, d),
            format!("first {d} iterations of the measured call"),
        );
    }

    let records = &run.history.records;
    let n = records.len();
    let f = task.assignment.num_files();
    let distorted: usize = records.iter().map(|r| r.distorted_files).sum();
    let abandoned = run.history.total_abandoned();
    let round_ms = sim::round_intervals_ms(run.start, &run.probe.aggregate_calls);
    let d = run.params.len();
    let replicas = task.assignment.num_workers() * task.assignment.load();
    let m = Measured {
        rounds: n,
        round_ms,
        wall: run.wall,
        cpu_ms: run.cpu_ms,
        accuracy: run.history.final_accuracy,
        // No wire: the replica payloads the parameter server votes over.
        ingress_bytes_per_round: (replicas * d * 4) as f64,
        corrupted: ratio(distorted, n * f),
        abandoned: ratio(abandoned, n * f),
        max_corrupted_per_round: records.iter().map(|r| r.distorted_files).max().unwrap_or(0),
        abandoned_files: abandoned,
    };
    let expected = *calls.last().expect("at least one call");
    common(report, plan, &m, expected, task.cmax);
    if !plan.traced {
        return true;
    }

    // Engine spans: the wrappers' forward, forgery and median spans,
    // nested in per-round spans that end at each aggregator call. Their
    // totals are taken before the replay adds spans of the same names.
    let mut prev = run.start;
    for (i, &(_, end)) in run.probe.aggregate_calls.iter().enumerate() {
        tracer.record_in("engine.round", i as u64 + 1, prev, end);
        prev = end;
    }
    let engine = trace::layer_totals(&tracer.finish());

    let nf = n.max(1) as f64;
    let compute_ms = records
        .iter()
        .map(|r| r.compute_time.as_secs_f64())
        .sum::<f64>()
        * 1e3
        / nf;
    let aggregate_ms = records
        .iter()
        .map(|r| r.aggregate_time.as_secs_f64())
        .sum::<f64>()
        * 1e3
        / nf;
    let forge_ms = engine.get("attack.forge").map_or(0.0, |t| t.self_ns as f64) / 1e6 / nf;
    let median_ms = engine
        .get("aggregate.median")
        .map_or(0.0, |t| t.self_ns as f64)
        / 1e6
        / nf;
    let vote_ms = aggregate_ms - forge_ms - median_ms;
    let interval_ms = mean(&m.round_ms);
    report.metric("engine.compute_ms", compute_ms);
    report.metric("engine.collect_ms", forge_ms);
    report.metric("engine.vote_ms", vote_ms);
    report.metric("engine.update_ms", median_ms);
    report.metric(
        "engine.overlap_ratio",
        (compute_ms + aggregate_ms) / interval_ms,
    );
    report.metric("aggregate.vote_us", vote_ms * 1e3);
    report.metric("aggregate.median_us", median_ms * 1e3);
    report.metric("nn.forward_us", us_per_call(&engine, "nn.forward"));
    report.metric(
        "nn.forward_calls",
        engine.get("nn.forward").map_or(0, |t| t.calls) as f64 / nf,
    );
    report.metric("attack.forge_us", us_per_call(&engine, "attack.forge"));
    report.metric(
        "attack.forge_calls",
        engine.get("attack.forge").map_or(0, |t| t.calls) as f64 / nf,
    );
    // The trainer computes each file's gradient once.
    report.metric("nn.grads_per_round", f as f64);
    let full: usize = records.iter().map(|r| r.outcome.full_quorum).sum();
    let degraded: usize = records.iter().map(|r| r.outcome.degraded).sum();
    report.metric("aggregate.strict_vote_ratio", ratio(full, full + degraded));
    report.metric("aggregate.degraded_votes", degraded as f64 / nf);
    report.metric("reputation.quarantined", 0.0);
    report.metric("reputation.precision", precision(0, 0));
    report.metric("distortion.bound", task.bound());
    overhead_metrics(report, plan, first.history.records.len(), first.wall);

    // Layer replay on this task's shapes: the trainer has no wire, so
    // these are unit costs of the wire-side layers for its gradients.
    let dims = plan.geometry.dims();
    let initial = initial_params(&dims, plan.seed ^ 0x11);
    let config = replay::honest_batched(plan.geometry.batch, plan.seed ^ 0x22);
    let spec = ReplaySpec {
        train: &task.train,
        assignment: &task.assignment,
        dims: &dims,
        initial_params: &initial,
        config: &config,
        rounds: REPLAY_ROUNDS,
    };
    let counts = match replay::replay(&spec, tracer) {
        Ok(counts) => counts,
        Err(e) => {
            engine_failed(report, "replay", REPLAY_ROUNDS, &e.to_string());
            return false;
        }
    };
    let totals = trace::layer_totals(&tracer.finish());
    replay_metrics(report, &totals, &counts);
    report.metric(
        "baseline.single_worker_samples_per_s",
        replay::single_worker_samples_per_s(&spec, 20, Duration::from_secs(1)),
    );
    true
}
