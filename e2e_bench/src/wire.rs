//! The wire-plane engines: `MessagePassingCluster::train_run` over
//! channels, and `PsServer::serve` with `run_tcp_worker` threads over
//! loopback TCP.

use crate::trace::Tracer;
use crate::workload::{build_task, initial_params, Digest, Geometry, SetupTimes, Task, Workload};
use byz_reputation::ReputationConfig;
use byz_wire::{
    run_tcp_worker, ChunkConfig, JobSpec, LocalAttack, MessagePassingCluster, PsServer, RoundMode,
    ServerConfig, WireFormat, WireTrainingRun, WorkerSpec,
};
use byzshield::prelude::ReplicaVerdict;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long `serve` waits for all 15 workers to connect.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// The engine half of a set-up.
pub enum Engine {
    Channel(MessagePassingCluster),
    Tcp(PsServer),
}

/// Everything built before the engine call.
pub struct WireSetup {
    pub task: Task,
    pub dims: Vec<usize>,
    pub initial_params: Vec<f32>,
    pub config: ServerConfig,
    pub engine: Engine,
    pub times: SetupTimes,
    /// Wall time of the whole set-up.
    pub total: Duration,
}

/// The protocol configuration of a wire workload.
pub fn server_config(
    workload: Workload,
    geom: &Geometry,
    seed: u64,
    rounds: usize,
) -> ServerConfig {
    let base = ServerConfig {
        batch_size: geom.batch,
        iterations: rounds,
        learning_rate: 0.05,
        momentum: 0.9,
        seed: seed ^ 0x22,
        // Nothing is dropped or delayed, so no receive ever waits on
        // these; they are generous so a loaded machine cannot turn a slow
        // frame into a missing vote and break determinism.
        receive_timeout: Duration::from_secs(10),
        round_deadline: Duration::from_secs(60),
        ..ServerConfig::default()
    };
    match workload {
        Workload::TcpAdversarial => ServerConfig {
            byzantine: workload.byzantine(),
            attack: LocalAttack::Constant { value: -100.0 },
            wire: WireFormat::Chunked(ChunkConfig::dense(4096)),
            mode: RoundMode::Streaming,
            reputation: Some(ReputationConfig::default()),
            ..base
        },
        _ => ServerConfig {
            wire: WireFormat::Batched,
            mode: RoundMode::Barrier,
            ..base
        },
    }
}

/// Builds one set-up: dataset, placement, bound, parameters, config and
/// the cluster (channels) or bound server socket (TCP).
///
/// # Errors
///
/// The loopback bind error.
pub fn setup(
    workload: Workload,
    geom: &Geometry,
    seed: u64,
    rounds: usize,
    tracer: Option<&mut Tracer>,
) -> std::io::Result<WireSetup> {
    let start = Instant::now();
    let (task, times) = build_task(geom, seed, workload.q(), tracer);
    let dims = geom.dims();
    let initial_params = initial_params(&dims, seed ^ 0x11);
    let config = server_config(workload, geom, seed, rounds);
    let engine = match workload {
        Workload::TcpAdversarial => Engine::Tcp(PsServer::bind(
            "127.0.0.1:0".parse().expect("literal address"),
        )?),
        _ => Engine::Channel(MessagePassingCluster::new(
            task.assignment.clone(),
            Arc::clone(&task.train),
            dims.clone(),
        )),
    };
    Ok(WireSetup {
        task,
        dims,
        initial_params,
        config,
        engine,
        times,
        total: start.elapsed(),
    })
}

/// One engine call and what it cost.
pub struct EngineRun {
    pub run: WireTrainingRun,
    pub wall: Duration,
    pub cpu_ms: f64,
}

/// Runs the engine once. A TCP handshake timeout, transport error or
/// worker failure is an `Err`, never a panic.
pub fn run_engine(setup: WireSetup) -> Result<(EngineRun, Task, Vec<usize>), String> {
    let WireSetup {
        task,
        dims,
        initial_params,
        config,
        engine,
        ..
    } = setup;
    let cpu0 = crate::sys::cpu_ms();
    let start = Instant::now();
    let run = match engine {
        Engine::Channel(cluster) => cluster.train_run(initial_params, &config),
        Engine::Tcp(server) => {
            let addr = server
                .local_addr()
                .map_err(|e| format!("local addr: {e}"))?;
            let job = JobSpec {
                job_id: 1,
                assignment: task.assignment.clone(),
                dataset: Arc::clone(&task.train),
                model_dims: dims.clone(),
                initial_params,
                config: config.clone(),
            };
            let k = task.assignment.num_workers();
            let (served, exits) = std::thread::scope(|s| {
                let workers: Vec<_> = (0..k)
                    .map(|w| {
                        let spec = WorkerSpec::new(
                            1,
                            w,
                            task.assignment.clone(),
                            Arc::clone(&task.train),
                            dims.clone(),
                            config.clone(),
                        );
                        s.spawn(move || run_tcp_worker(addr, &spec))
                    })
                    .collect();
                let served = server.serve(vec![job], READY_TIMEOUT);
                let exits: Vec<_> = workers.into_iter().map(|h| h.join()).collect();
                (served, exits)
            });
            let mut results = served.map_err(|e| format!("serve: {e}"))?;
            for (w, exit) in exits.into_iter().enumerate() {
                match exit {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => return Err(format!("worker {w}: {e}")),
                    Err(_) => return Err(format!("worker {w} panicked")),
                }
            }
            results.pop().ok_or("serve returned no job result")?.run
        }
    };
    let wall = start.elapsed();
    let cpu_ms = crate::sys::cpu_ms() - cpu0;
    Ok((EngineRun { run, wall, cpu_ms }, task, dims))
}

/// Digest of the deterministic record of the first `rounds` rounds:
/// vote counts, quarantines and audits (timings excluded).
pub fn rounds_digest(run: &WireTrainingRun, rounds: usize) -> Digest {
    let mut d = Digest::default();
    for s in run.summaries.iter().take(rounds) {
        for v in [
            s.iteration,
            s.non_strict_votes,
            s.frames_received,
            s.bytes_received,
            s.missing_votes,
            s.degraded_votes,
            s.abandoned_files,
        ] {
            d.word(v as u64);
        }
        for &w in &s.quarantined_workers {
            d.word(w as u64);
        }
        for audit in &s.audits {
            d.audit(audit);
        }
    }
    d
}

/// Digest of a whole run: every round, the trained parameters and the
/// serialized ledger.
pub fn run_digest(run: &WireTrainingRun) -> Digest {
    let mut d = rounds_digest(run, run.summaries.len());
    d.floats(&run.params);
    if let Some(bytes) = &run.ledger_bytes {
        for b in bytes {
            d.word(u64::from(*b));
        }
    }
    d
}

/// Vote outcomes of a run, audited against the Byzantine set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Audit {
    /// Files that produced a winner.
    pub voted: usize,
    /// Voted files whose winner a Byzantine holder's replica agrees with.
    pub corrupted: usize,
    /// The most corrupted files in any one round.
    pub max_corrupted_per_round: usize,
    /// Files with no winner.
    pub abandoned: usize,
    /// Files the rounds set out to vote.
    pub attempted: usize,
}

pub fn audit_run(run: &WireTrainingRun, byzantine: &[usize], files: usize) -> Audit {
    let mut a = Audit::default();
    for s in &run.summaries {
        let corrupted = s
            .audits
            .iter()
            .filter(|audit| {
                byzantine
                    .iter()
                    .any(|&b| audit.verdict_of(b) == Some(ReplicaVerdict::Agreed))
            })
            .count();
        a.voted += s.audits.len();
        a.corrupted += corrupted;
        a.max_corrupted_per_round = a.max_corrupted_per_round.max(corrupted);
        a.abandoned += s.abandoned_files;
        a.attempted += files;
    }
    a
}
