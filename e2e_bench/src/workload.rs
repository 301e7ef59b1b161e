//! The benchmark's workloads: geometry, sizing and the shared set-up
//! steps (dataset, placement, distortion bound).
//!
//! Every workload runs the paper's K = 15 cluster — MOLS `l = 5, r = 3`,
//! so 15 workers and 25 files — and is a closed loop: one job, each round
//! waits for the previous one.

use crate::trace::Tracer;
use byzshield::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Channel `train_run` with a wide MLP and one sample per file: most
    /// of the round is parameter-server work (encode, transit, decode,
    /// vote, median, update).
    ChanWide,
    /// Loopback-TCP `PsServer` with `run_tcp_worker` threads, a chunked
    /// wire, streaming rounds, constant-attack Byzantines and reputation:
    /// real compute plus real vote disagreement and quarantine.
    TcpAdversarial,
    /// The in-process `Trainer::run` under omniscient ALIE: the attack,
    /// autograd and vote-then-median path no wire workload touches.
    SimAlie,
}

/// Rounds a timed run needs so that ten lie beyond its 90th percentile.
pub const MIN_TIMED_ROUNDS: usize = 100;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ChanWide,
        Workload::TcpAdversarial,
        Workload::SimAlie,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChanWide => "chan-wide",
            Workload::TcpAdversarial => "tcp-adversarial",
            Workload::SimAlie => "sim-alie",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds per second on the reference machine (2 cores). A run's
    /// round count is fixed from this and `--seconds`, so both sides of
    /// a comparison do the same work whatever their speed.
    fn reference_rounds_per_s(self) -> f64 {
        match self {
            Workload::ChanWide => 36.0,
            Workload::TcpAdversarial => 6.5,
            Workload::SimAlie => 160.0,
        }
    }

    /// Timed rounds for a run meant to last about `seconds`.
    pub fn rounds_for(self, seconds: f64) -> usize {
        ((seconds * self.reference_rounds_per_s()).round() as usize).max(MIN_TIMED_ROUNDS)
    }

    /// Lowest acceptable final test accuracy (10 classes, chance 0.1).
    pub fn accuracy_floor(self) -> f64 {
        match self {
            Workload::ChanWide => 0.6,
            Workload::TcpAdversarial => 0.9,
            Workload::SimAlie => 0.85,
        }
    }

    /// The full-size geometry.
    pub fn geometry(self) -> Geometry {
        match self {
            Workload::ChanWide => Geometry {
                hw: 16,
                hidden: 256,
                batch: 25,
                train_samples: 4_000,
                test_samples: 1_000,
            },
            Workload::TcpAdversarial => Geometry {
                hw: 16,
                hidden: 512,
                batch: 2_500,
                train_samples: 5_000,
                test_samples: 1_000,
            },
            // The figure experiments' `standard_dataset` shapes and MLP.
            Workload::SimAlie => Geometry {
                hw: 12,
                hidden: 64,
                batch: 300,
                train_samples: 4_000,
                test_samples: 1_000,
            },
        }
    }

    /// Byzantine workers on the wire workloads (the simulator picks its
    /// own omnisciently).
    pub fn byzantine(self) -> Vec<usize> {
        match self {
            Workload::TcpAdversarial => vec![0, 5, 10, 11],
            Workload::ChanWide | Workload::SimAlie => Vec::new(),
        }
    }

    /// The adversary size `q` the distortion bound is computed for.
    pub fn q(self) -> usize {
        match self {
            Workload::SimAlie => SIM_Q,
            _ => self.byzantine().len(),
        }
    }
}

/// Omniscient ALIE adversary size on `sim-alie` (paper Fig. 9 setup).
pub const SIM_Q: usize = 3;

/// Classes of the synthetic image task.
pub const CLASSES: usize = 10;

/// Pixel noise of the synthetic images. The figure experiments'
/// `standard_dataset` uses 0.9; at that level final accuracy moves by
/// more than 10% from seed to seed, at 0.6 by about 3%, which keeps
/// `test_accuracy` comparable across the seeds of a benchmark set.
pub const NOISE: f32 = 0.6;

/// Model and data sizes of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometry {
    /// Image side; one channel, so the MLP input is `hw²`.
    pub hw: usize,
    /// Hidden-layer width of the `input × hidden × 10` MLP.
    pub hidden: usize,
    /// Samples per round (25 files, so a multiple of 25).
    pub batch: usize,
    pub train_samples: usize,
    pub test_samples: usize,
}

impl Geometry {
    pub fn dims(&self) -> Vec<usize> {
        vec![self.hw * self.hw, self.hidden, CLASSES]
    }

    /// A seconds-long version of any workload, for tests.
    pub fn tiny() -> Geometry {
        Geometry {
            hw: 6,
            hidden: 8,
            batch: 25,
            train_samples: 300,
            test_samples: 100,
        }
    }
}

/// The set-up products every workload shares.
pub struct Task {
    pub train: Arc<Dataset>,
    pub test: Dataset,
    pub assignment: Assignment,
    /// `c_max(q)`: the most file majorities any `q` workers can corrupt.
    pub cmax: usize,
}

impl Task {
    /// The paper's invariant: the corrupted-file fraction never exceeds
    /// `c_max(q) / f`.
    pub fn bound(&self) -> f64 {
        self.cmax as f64 / self.assignment.num_files() as f64
    }
}

/// Durations of the shared set-up steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate: Duration,
    pub assign: Duration,
    pub cmax: Duration,
}

/// Builds the dataset, placement and distortion bound. Spans go to the
/// tracer when one is given.
pub fn build_task(
    geom: &Geometry,
    seed: u64,
    q: usize,
    tracer: Option<&mut Tracer>,
) -> (Task, SetupTimes) {
    let t0 = Instant::now();
    let (train, test) = SyntheticImages::new(SyntheticConfig {
        num_classes: CLASSES,
        channels: 1,
        hw: geom.hw,
        train_samples: geom.train_samples,
        test_samples: geom.test_samples,
        noise: NOISE,
        max_shift: 2,
        seed,
    })
    .generate();
    let t1 = Instant::now();
    let assignment = MolsAssignment::new(5, 3)
        .expect("MOLS l = 5, r = 3 is a valid design")
        .build();
    let t2 = Instant::now();
    let cmax = cmax_auto(&assignment, q).value;
    let t3 = Instant::now();
    if let Some(tracer) = tracer {
        tracer.record("data.generate", t0, t1);
        tracer.record("assign.build", t1, t2);
        tracer.record("distortion.cmax", t2, t3);
    }
    (
        Task {
            train: Arc::new(train),
            test,
            assignment,
            cmax,
        },
        SetupTimes {
            generate: t1 - t0,
            assign: t2 - t1,
            cmax: t3 - t2,
        },
    )
}

/// FNV-1a over a stream of words: the determinism digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn floats(&mut self, xs: &[f32]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(u64::from(x.to_bits()));
        }
    }

    pub fn audit(&mut self, audit: &VoteAudit) {
        self.word(audit.winner_hash);
        for (w, verdict) in &audit.replicas {
            self.word(*w as u64);
            self.word(match verdict {
                ReplicaVerdict::Agreed => 1,
                ReplicaVerdict::Disagreed => 2,
                ReplicaVerdict::Absent => 3,
            });
        }
    }
}

/// Top-1 accuracy of flat MLP parameters on the whole test set.
pub fn fast_accuracy(dims: &[usize], params: &[f32], test: &Dataset) -> f64 {
    let mut model = fast_mlp(dims);
    model.set_params(params);
    let indices: Vec<usize> = (0..test.len()).collect();
    let (x, _) = gather(test, &indices);
    let predictions = model.predict(&x, indices.len());
    test.accuracy(&indices, &predictions)
}

/// A `FastMlp` of the given shape (parameters are overwritten by the
/// caller).
pub fn fast_mlp(dims: &[usize]) -> byz_nn::FastMlp {
    use rand::SeedableRng;
    byz_nn::FastMlp::new(dims, &mut rand::rngs::StdRng::seed_from_u64(0))
}

/// Seeded initial flat parameters, in the `FastMlp` layout the wire
/// workers use.
pub fn initial_params(dims: &[usize], seed: u64) -> Vec<f32> {
    use rand::SeedableRng;
    byz_nn::FastMlp::new(dims, &mut rand::rngs::StdRng::seed_from_u64(seed)).params_flat()
}

/// Flattened samples and labels (the wire workers' gather).
pub fn gather(dataset: &Dataset, indices: &[usize]) -> (Vec<f32>, Vec<usize>) {
    let mut x = Vec::with_capacity(indices.len() * dataset.sample_len());
    let mut labels = Vec::with_capacity(indices.len());
    for &i in indices {
        x.extend_from_slice(dataset.sample(i));
        labels.push(dataset.label(i));
    }
    (x, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn runs_always_support_p90() {
        for w in Workload::ALL {
            assert!(w.rounds_for(0.5) >= MIN_TIMED_ROUNDS);
            assert!(crate::stats::supports(w.rounds_for(1.0), 90.0));
        }
    }

    #[test]
    fn geometries_split_into_25_files() {
        for w in Workload::ALL {
            assert_eq!(w.geometry().batch % 25, 0, "{}", w.name());
        }
        assert_eq!(Geometry::tiny().batch % 25, 0);
    }

    #[test]
    fn bound_matches_the_paper_table() {
        let (task, _) = build_task(&Geometry::tiny(), 1, 3, None);
        assert_eq!(task.assignment.num_workers(), 15);
        assert_eq!(task.assignment.num_files(), 25);
        assert_eq!(task.cmax, 3, "Table 3: MOLS K = 15, q = 3");
        let (clean, _) = build_task(&Geometry::tiny(), 1, 0, None);
        assert_eq!(clean.bound(), 0.0);
    }
}
