//! Layer replay: a workload's own seeded rounds, re-run through the
//! public functions of each layer with a span around every call.
//!
//! The engines expose only coarse phase timings, so per-layer costs come
//! from replaying the same rounds outside them: the same batch split,
//! model, per-worker gradients, Byzantine payloads, codec, vote, median,
//! update and reputation fold, in the engine's order. The replay's vote
//! audits are compared with the engine's for the same rounds, which
//! shows it reproduces the workload rather than an approximation.

use crate::trace::Tracer;
use crate::workload::{fast_mlp, gather};
use bytes::{Bytes, BytesMut};
use byz_aggregate::{
    quorum_vote_all_audited, Aggregator, CoordinateMedian, QuorumError, QuorumOutcome, VoteAudit,
};
use byz_attack::{AttackContext, AttackVector, ConstantAttack};
use byz_reputation::ReputationLedger;
use byz_wire::{
    decode_gradient_batch, decode_gradient_chunk, encode_gradient_batch,
    encode_gradient_chunk_into, num_chunks, write_frame, LocalAttack, Message, ServerConfig,
    ShardedFileVoter, StreamDecoder, WireFormat,
};
use byzshield::prelude::{Assignment, BatchSampler, Dataset};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// What to replay.
pub struct ReplaySpec<'a> {
    pub train: &'a Dataset,
    pub assignment: &'a Assignment,
    pub dims: &'a [usize],
    pub initial_params: &'a [f32],
    pub config: &'a ServerConfig,
    pub rounds: usize,
}

/// Counts gathered while replaying (times are in the tracer's spans).
#[derive(Debug, Default)]
pub struct ReplayCounts {
    /// Vote audits per round, in canonical file order.
    pub audits: Vec<Vec<VoteAudit>>,
    pub frames: u64,
    pub frame_bytes: u64,
    /// Gradient bytes carried inside those frames (4 per coordinate).
    pub payload_bytes: u64,
    pub forge_calls: u64,
    pub grads: u64,
}

/// Replays `spec.rounds` rounds, recording spans into `tracer`.
///
/// # Errors
///
/// Loopback socket failures of the TCP framing replay.
pub fn replay(spec: &ReplaySpec<'_>, tracer: &mut Tracer) -> io::Result<ReplayCounts> {
    let cfg = spec.config;
    let assignment = spec.assignment;
    let (k, f) = (assignment.num_workers(), assignment.num_files());
    let d = spec.initial_params.len();
    let mut params = spec.initial_params.to_vec();
    let mut velocity = vec![0.0f32; d];
    let mut sampler = BatchSampler::new(spec.train.len(), cfg.batch_size, cfg.seed);
    let mut model = fast_mlp(spec.dims);
    // The engine folds audits only when reputation is on; the replay
    // always folds them (into a throwaway ledger otherwise) so the fold's
    // cost is known for every workload. Only the engine's own ledger
    // quarantines.
    let mut ledger = ReputationLedger::new(k, cfg.reputation.unwrap_or_default());
    // The wire's constant payload is `byz-attack`'s constant forgery.
    let LocalAttack::Constant { value } = cfg.attack else {
        return Err(io::Error::other("the replay forges constant payloads only"));
    };
    let forger = ConstantAttack { value };
    let mut counts = ReplayCounts::default();

    for t in 1..=spec.rounds as u64 {
        tracer.set_round(t);
        let round_start = Instant::now();
        let quarantined: Vec<bool> = (0..k)
            .map(|w| cfg.reputation.is_some() && ledger.is_quarantined(w))
            .collect();

        let files: Vec<Vec<usize>> = tracer.time("data.batch_split", || {
            byz_data::split_batch_into_files(&sampler.next_batch(), f)
        });
        let broadcast = Message::ModelBroadcast {
            iteration: t,
            params: params.clone(),
            files: files
                .iter()
                .map(|file| file.iter().map(|&i| i as u32).collect())
                .collect(),
        };
        let frame = tracer.time("wire.broadcast_encode", || broadcast.encode());
        let decoded = tracer.time("wire.broadcast_decode", || Message::decode(&frame));
        match decoded {
            Ok(Message::ModelBroadcast { params: p, .. }) if p == params => {}
            _ => return Err(io::Error::other("broadcast did not round-trip")),
        }

        // Workers: every replica's gradient (honest replicas of a file
        // are bit-identical, but each worker computes its own, as in the
        // engine), the Byzantine payload, then the uplink frames.
        model.set_params(&params);
        let mut frames: Vec<Bytes> = Vec::new();
        for w in 0..k {
            let is_byz = cfg.byzantine.contains(&w);
            let mut replicas: Vec<(u32, Vec<f32>)> = Vec::new();
            for &file in assignment.graph().files_of(w) {
                let (x, labels) = gather(spec.train, &files[file]);
                let n = labels.len();
                let grad = tracer.time("nn.fast_grad", || model.gradient_sum(&x, n, &labels).1);
                tracer.time("nn.forward", || model.logits(&x, n));
                counts.grads += 1;
                let payload = if is_byz {
                    counts.forge_calls += 1;
                    tracer.time("attack.forge", || forger.forge(&context(&grad, k, t, file)))
                } else {
                    grad
                };
                replicas.push((file as u32, payload));
            }
            if cfg.byzantine.is_empty() && w == 0 {
                // No Byzantine worker: still price one forgery so the
                // attack layer's unit cost is known on this shape.
                let probe = &replicas[0].1;
                tracer.time("attack.forge", || forger.forge(&context(probe, k, t, 0)));
            }
            match cfg.wire {
                WireFormat::Batched => {
                    let entries: Vec<(u32, &[f32])> =
                        replicas.iter().map(|(f, g)| (*f, g.as_slice())).collect();
                    frames.push(tracer.time("wire.encode", || {
                        encode_gradient_batch(t, w as u32, &entries)
                    }));
                }
                WireFormat::Chunked(chunk_cfg) => {
                    for (file, g) in &replicas {
                        for c in 0..num_chunks(d, chunk_cfg.span_len()) {
                            frames.push(tracer.time("wire.encode", || {
                                encode_gradient_chunk_into(
                                    t,
                                    w as u32,
                                    *file,
                                    g,
                                    c,
                                    &chunk_cfg,
                                    BytesMut::new(),
                                )
                            }));
                        }
                    }
                }
            }
            counts.payload_bytes += replicas
                .iter()
                .map(|(_, g)| 4 * g.len() as u64)
                .sum::<u64>();
        }
        counts.frames += frames.len() as u64;
        counts.frame_bytes += frames.iter().map(|fr| fr.len() as u64).sum::<u64>();
        tcp_transit(&frames, tracer)?;

        // Parameter server: decode, ingest, vote.
        let holders: Vec<Vec<usize>> = (0..f)
            .map(|file| {
                assignment
                    .graph()
                    .workers_of(file)
                    .iter()
                    .copied()
                    .filter(|&w| !quarantined[w])
                    .collect()
            })
            .collect();
        let outcomes: Vec<Result<QuorumOutcome, QuorumError>> = match cfg.wire {
            WireFormat::Batched => {
                let mut per_file: Vec<Vec<(usize, Vec<f32>)>> = vec![Vec::new(); f];
                for frame in &frames {
                    let batch = tracer
                        .time("wire.decode", || decode_gradient_batch(frame))
                        .map_err(|e| io::Error::other(format!("batch decode: {e:?}")))?;
                    let w = batch.worker as usize;
                    if quarantined[w] {
                        continue;
                    }
                    for entry in &batch.entries {
                        per_file[entry.file as usize].push((w, entry.to_vec()));
                    }
                }
                let inputs: Vec<byz_aggregate::VoteInput<'_, Vec<f32>>> = (0..f)
                    .map(|file| (per_file[file].as_slice(), holders[file].as_slice()))
                    .collect();
                tracer.time("aggregate.vote", || {
                    quorum_vote_all_audited(&inputs, cfg.quorum.q_min)
                })
            }
            WireFormat::Chunked(chunk_cfg) => {
                let mut voters: Vec<ShardedFileVoter> = (0..f)
                    .map(|file| ShardedFileVoter::new(file as u32, d, chunk_cfg.span_len()))
                    .collect();
                for frame in &frames {
                    let view = tracer
                        .time("wire.decode", || decode_gradient_chunk(frame))
                        .map_err(|e| io::Error::other(format!("chunk decode: {e:?}")))?;
                    if quarantined[view.worker as usize] {
                        continue;
                    }
                    let voter = &mut voters[view.file as usize];
                    tracer.time("aggregate.vote", || voter.ingest(&view));
                }
                (0..f)
                    .map(|file| {
                        tracer.time("aggregate.vote", || {
                            voters[file].finalize(cfg.quorum.q_min, &holders[file])
                        })
                    })
                    .collect()
            }
        };
        let mut audits = Vec::new();
        let mut winners = Vec::new();
        for outcome in outcomes.into_iter().flatten() {
            audits.push(outcome.audit);
            winners.push(outcome.value);
        }

        // Aggregate, update, reputation fold.
        if !winners.is_empty() {
            let aggregated = tracer
                .time("aggregate.median", || CoordinateMedian.aggregate(&winners))
                .map_err(|e| io::Error::other(format!("median: {e:?}")))?;
            let scale = f as f32 / cfg.batch_size as f32;
            tracer.time("kernel.update", || {
                byz_kernel::sgd_momentum_step(
                    &mut params,
                    &mut velocity,
                    &aggregated,
                    scale,
                    cfg.learning_rate,
                    cfg.momentum,
                )
            });
        }
        tracer.time("reputation.fold", || ledger.observe_round(t, &audits));
        counts.audits.push(audits);
        tracer.record("replay.round", round_start, Instant::now());
    }
    Ok(counts)
}

fn context(gradient: &[f32], k: usize, t: u64, file: usize) -> AttackContext<'_> {
    // A constant payload reads only the gradient's length.
    AttackContext {
        true_gradient: gradient,
        honest_mean: gradient,
        honest_std: gradient,
        num_workers: k,
        num_byzantine: 0,
        iteration: t as usize,
        file,
    }
}

/// Carries `frames` through a loopback socket pair: `write_frame` on one
/// end, `StreamDecoder` reassembly on the other, as one `wire.tcp_frame`
/// span. Socket set-up stays outside the span.
fn tcp_transit(frames: &[Bytes], tracer: &mut Tracer) -> io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut client = TcpStream::connect(listener.local_addr()?)?;
    let (mut server, _) = listener.accept()?;
    client.set_nodelay(true)?;
    server.set_read_timeout(Some(Duration::from_secs(30)))?;
    let expected = frames.len();
    let (start, end, received) = std::thread::scope(|s| -> io::Result<_> {
        let reader = s.spawn(move || -> io::Result<(usize, Instant)> {
            let mut decoder = StreamDecoder::new();
            let mut buf = vec![0u8; 64 * 1024];
            let mut got = 0;
            while got < expected {
                let n = server.read(&mut buf)?;
                if n == 0 {
                    break;
                }
                decoder.feed(&buf[..n]);
                while let Some(frame) = decoder
                    .next_frame()
                    .map_err(|e| io::Error::other(format!("stream decode: {e:?}")))?
                {
                    std::hint::black_box(frame);
                    got += 1;
                }
            }
            Ok((got, Instant::now()))
        });
        let start = Instant::now();
        let written = frames
            .iter()
            .try_for_each(|fr| write_frame(&mut client, fr));
        let (got, end) = reader
            .join()
            .map_err(|_| io::Error::other("tcp reader panicked"))??;
        written?;
        Ok((start, end, got))
    })?;
    if received != expected {
        return Err(io::Error::other(format!(
            "tcp transit delivered {received} of {expected} frames"
        )));
    }
    tracer.record("wire.tcp_frame", start, end);
    Ok(())
}

/// Plain single-worker training on the same task: one `FastMlp`
/// gradient over the whole batch and one momentum step per round, no
/// redundancy, no vote, no wire. Runs at least `min_rounds` rounds and
/// at least `min_time`; returns samples per second.
pub fn single_worker_samples_per_s(
    spec: &ReplaySpec<'_>,
    min_rounds: usize,
    min_time: Duration,
) -> f64 {
    let cfg = spec.config;
    let mut params = spec.initial_params.to_vec();
    let mut velocity = vec![0.0f32; params.len()];
    let mut sampler = BatchSampler::new(spec.train.len(), cfg.batch_size, cfg.seed);
    let mut model = fast_mlp(spec.dims);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed() < min_time {
        let batch = sampler.next_batch();
        let (x, labels) = gather(spec.train, &batch);
        model.set_params(&params);
        let (_, grad) = model.gradient_sum(&x, batch.len(), &labels);
        byz_kernel::sgd_momentum_step(
            &mut params,
            &mut velocity,
            &grad,
            1.0 / batch.len() as f32,
            cfg.learning_rate,
            cfg.momentum,
        );
        rounds += 1;
    }
    (rounds * cfg.batch_size) as f64 / start.elapsed().as_secs_f64()
}

/// The replay config for a workload without a wire (the simulator):
/// honest replicas over the batched barrier wire.
pub fn honest_batched(batch_size: usize, seed: u64) -> ServerConfig {
    ServerConfig {
        batch_size,
        seed,
        ..ServerConfig::default()
    }
}
