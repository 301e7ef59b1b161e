//! The in-process paper path: `Trainer::run` under omniscient ALIE with
//! vote-then-coordinate-median (paper Fig. 9 setup).
//!
//! The trainer has no wire and no phase timings of its own, so the
//! benchmark observes it through the public traits it is built from: an
//! `Aggregator` wrapper that runs once per round (its call times give the
//! per-round wall time), and — in a traced run — `Module` and
//! `AttackVector` wrappers that record a span per forward pass and per
//! forgery.

use crate::trace::Tracer;
use crate::workload::{build_task, Digest, Geometry, SetupTimes, Task, SIM_Q};
use byz_aggregate::AggregationError;
use byzshield::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// What the wrappers observe during one engine call.
#[derive(Default)]
pub struct Probe {
    /// `(start, end)` of every aggregator call, one per round.
    pub aggregate_calls: Vec<(Instant, Instant)>,
    /// Spans, when the call is traced.
    pub tracer: Option<Tracer>,
}

type SharedProbe = Rc<RefCell<Probe>>;

/// Records a span in the round in progress (the one whose aggregator
/// call is next).
fn record(probe: &SharedProbe, name: &'static str, start: Instant) {
    let end = Instant::now();
    let mut probe = probe.borrow_mut();
    let round = probe.aggregate_calls.len() as u64 + 1;
    if let Some(tracer) = probe.tracer.as_mut() {
        tracer.record_in(name, round, start, end);
    }
}

/// Coordinate median, timed.
struct TimedMedian(SharedProbe);

impl Aggregator for TimedMedian {
    fn name(&self) -> &'static str {
        CoordinateMedian.name()
    }

    fn aggregate(&self, gradients: &[Vec<f32>]) -> Result<Vec<f32>, AggregationError> {
        let start = Instant::now();
        let out = CoordinateMedian.aggregate(gradients);
        let end = Instant::now();
        let mut probe = self.0.borrow_mut();
        let round = probe.aggregate_calls.len() as u64 + 1;
        probe.aggregate_calls.push((start, end));
        if let Some(tracer) = probe.tracer.as_mut() {
            tracer.record_in("aggregate.median", round, start, end);
        }
        out
    }
}

/// ALIE, timed.
struct TimedAlie(SharedProbe);

impl AttackVector for TimedAlie {
    fn name(&self) -> &'static str {
        Alie::default().name()
    }

    fn forge(&self, ctx: &AttackContext<'_>) -> Vec<f32> {
        let start = Instant::now();
        let out = Alie::default().forge(ctx);
        record(&self.0, "attack.forge", start);
        out
    }
}

/// The MLP, with each forward pass timed.
pub struct TimedMlp {
    inner: Mlp,
    probe: SharedProbe,
}

impl Module for TimedMlp {
    fn forward(&self, input: &Tensor) -> Tensor {
        let start = Instant::now();
        let out = self.inner.forward(input);
        record(&self.probe, "nn.forward", start);
        out
    }

    fn parameters(&self) -> Vec<Tensor> {
        self.inner.parameters()
    }
}

/// Everything built before the engine call.
pub struct SimSetup {
    pub task: Task,
    pub model: Mlp,
    pub config: TrainingConfig,
    pub times: SetupTimes,
    pub total: Duration,
}

/// Builds one set-up: dataset, placement, bound, model and config.
pub fn setup(geom: &Geometry, seed: u64, rounds: usize, tracer: Option<&mut Tracer>) -> SimSetup {
    let start = Instant::now();
    let (task, times) = build_task(geom, seed, SIM_Q, tracer);
    let model = Mlp::new(&geom.dims(), &mut StdRng::seed_from_u64(seed ^ 0x11));
    let config = TrainingConfig {
        batch_size: geom.batch,
        iterations: rounds,
        lr_schedule: StepDecaySchedule::new(0.05, 0.96, 30),
        momentum: 0.9,
        num_byzantine: SIM_Q,
        eval_every: 0,
        eval_samples: geom.test_samples,
        seed: seed ^ 0x22,
        ..TrainingConfig::default()
    };
    SimSetup {
        task,
        model,
        config,
        times,
        total: start.elapsed(),
    }
}

/// One engine call and what it observed.
pub struct SimRun {
    pub history: TrainingHistory,
    /// Trained flat parameters.
    pub params: Vec<f32>,
    /// When the engine call began.
    pub start: Instant,
    pub wall: Duration,
    pub cpu_ms: f64,
    pub probe: Probe,
}

/// Runs `Trainer::run` once. With a tracer, the forward, forgery and
/// median spans are recorded into it; it comes back in the run's probe.
///
/// # Errors
///
/// The trainer's error, as text.
pub fn run_engine(setup: SimSetup, tracer: Option<Tracer>) -> Result<(SimRun, Task), String> {
    let SimSetup {
        task,
        model,
        config,
        ..
    } = setup;
    let traced = tracer.is_some();
    let probe: SharedProbe = Rc::new(RefCell::new(Probe {
        aggregate_calls: Vec::with_capacity(config.iterations),
        tracer,
    }));
    let defense = Defense::VoteThenAggregate(Box::new(TimedMedian(Rc::clone(&probe))));
    let cpu0 = crate::sys::cpu_ms();
    let start = Instant::now();
    let (history, params) = if traced {
        let attack: Box<dyn AttackVector> = Box::new(TimedAlie(Rc::clone(&probe)));
        let module = TimedMlp {
            inner: model,
            probe: Rc::clone(&probe),
        };
        train(&module, &task, attack, defense, config)?
    } else {
        train(&model, &task, Box::new(Alie::default()), defense, config)?
    };
    let wall = start.elapsed();
    let cpu_ms = crate::sys::cpu_ms() - cpu0;
    let probe = Rc::try_unwrap(probe)
        .map_err(|_| "trainer kept a wrapper alive".to_string())?
        .into_inner();
    Ok((
        SimRun {
            history,
            params,
            start,
            wall,
            cpu_ms,
            probe,
        },
        task,
    ))
}

fn train<M: Module>(
    model: &M,
    task: &Task,
    attack: Box<dyn AttackVector>,
    defense: Defense,
    config: TrainingConfig,
) -> Result<(TrainingHistory, Vec<f32>), String> {
    let mut trainer = Trainer::new(
        model,
        &task.train,
        &task.test,
        task.assignment.clone(),
        InputLayout::Flat,
        ByzantineSelector::Omniscient,
        attack,
        defense,
        config,
    );
    let history = trainer.run().map_err(|e| e.to_string())?;
    Ok((history, flatten_params(&model.parameters())))
}

/// Digest of the deterministic record of the first `rounds` iterations:
/// distortion and vote outcomes (timings excluded).
pub fn rounds_digest(history: &TrainingHistory, rounds: usize) -> Digest {
    let mut d = Digest::default();
    for r in history.records.iter().take(rounds) {
        for v in [
            r.iteration,
            r.distorted_files,
            r.outcome.full_quorum,
            r.outcome.degraded,
            r.outcome.abandoned.len(),
        ] {
            d.word(v as u64);
        }
        d.word(r.epsilon_hat.to_bits());
    }
    d
}

/// Digest of a whole run: every iteration and the trained parameters.
pub fn run_digest(run: &SimRun) -> Digest {
    let mut d = rounds_digest(&run.history, run.history.records.len());
    d.floats(&run.params);
    d.word(run.history.final_accuracy.to_bits());
    d
}

/// Per-round wall times: a round ends when its aggregator call returns,
/// and the first begins with the engine call.
pub fn round_intervals_ms(start: Instant, calls: &[(Instant, Instant)]) -> Vec<f64> {
    let mut prev = start;
    calls
        .iter()
        .map(|&(_, end)| {
            let ms = (end - prev).as_secs_f64() * 1e3;
            prev = end;
            ms
        })
        .collect()
}
