//! # fedml — federated-learning ML substrate
//!
//! A dependency-light, pure-Rust machine-learning substrate used by the Air-FedGA
//! reproduction. The paper trains logistic regression, small CNNs and VGG-16 with
//! PyTorch; this crate provides the equivalent *training dynamics* (differentiable
//! models, SGD, cross-entropy loss, accuracy evaluation) together with synthetic
//! datasets and the Non-IID label-skew partitioner described in §VI.A of the paper.
//!
//! The crate is deliberately self-contained: dense linear algebra lives in
//! [`linalg`], flat parameter-vector arithmetic (the representation transmitted
//! over the air) in [`params`], models in [`model`], datasets and partitioning in
//! [`dataset`] / [`partition`], and the local SGD update of Eq. (4) in
//! [`optimizer`].
//!
//! ## The batched training engine
//!
//! Local training is the hot path of every experiment binary, so the numerical
//! core is organised around **whole-mini-batch execution**, with exactly one
//! training path and one evaluation path:
//!
//! * [`optimizer::local_update_ws`] runs the Eq. (4) local update as epochs
//!   of mini-batch SGD, one fused [`model::Model::sgd_batch_ws`] step per
//!   batch (forward, backward and parameter update in one pass, no gradient
//!   buffer).
//! * [`model::Model::evaluate_ws`] scores a whole dataset (loss + accuracy)
//!   in one batched forward pass.
//! * [`linalg`] provides the two register-tiled GEMM kernels both paths run
//!   on — [`linalg::gemm_nn`] (`Z = X · Wᵀ` after a weight transpose, and
//!   `δ_prev = δ · W`) and [`linalg::gemm_tn_acc`] (`W += −γ · δᵀ · X`) —
//!   writing into caller-provided buffers.
//! * [`workspace::Workspace`] is a checkout/checkin pool of scratch buffers;
//!   each simulated worker owns one, so after the first mini-batch the
//!   training loop performs **zero heap allocations**.
//!
//! The original per-sample implementation (matvec + rank-one update per
//! sample) survives only in the `model` tests, as the oracle the fused step
//! and the batched evaluation are checked against to 1e-10.
//!
//! ## Quick example
//!
//! ```
//! use fedml::dataset::SyntheticSpec;
//! use fedml::model::{Mlp, Model};
//! use fedml::optimizer::{local_update_ws, SgdConfig};
//! use fedml::rng::Rng64;
//! use fedml::workspace::Workspace;
//!
//! let mut rng = Rng64::seed_from(7);
//! let data = SyntheticSpec::mnist_like().with_samples_per_class(30).generate(&mut rng);
//! let mut model = Mlp::new(data.num_features(), &[32], data.num_classes(), &mut rng);
//! let cfg = SgdConfig { learning_rate: 0.1, batch_size: 16, local_epochs: 1 };
//! let mut ws = Workspace::new();
//! let before = model.evaluate_ws(&data, &mut ws).loss;
//! local_update_ws(&mut model, &data, &cfg, &mut rng, &mut ws);
//! assert!(model.evaluate_ws(&data, &mut ws).loss < before);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod linalg;
pub mod loss;
pub mod model;
pub mod optimizer;
pub mod params;
pub mod partition;
pub mod rng;
pub mod workspace;

pub use dataset::{Dataset, SyntheticSpec};
pub use model::{EvalStats, LogisticRegression, Mlp, Model};
pub use optimizer::{local_update_ws, SgdConfig};
pub use params::FlatParams;
pub use partition::{LabelDistribution, Partitioner};
pub use rng::Rng64;
pub use workspace::Workspace;
