//! DeepRecInfra-equivalent recommendation model zoo and end-to-end
//! inference engine.
//!
//! The paper evaluates RecSSD on "a diverse set of eight
//! industry-representative recommendation models provided in
//! DeepRecInfra" (§5), clustered into two classes (§3.3):
//!
//! * **MLP-dominated** — Wide&Deep (WND), Multi-Task Wide&Deep (MTWND),
//!   Deep Interest Network (DIN), Deep Interest Evolution Network (DIEN)
//!   and Neural Collaborative Filtering (NCF): execution time is dense
//!   matrix compute; storing embeddings on SSD barely matters
//!   (1.01–1.09× in Fig. 6).
//! * **Embedding-dominated** — DLRM-RMC1/RMC2/RMC3: dominated by sparse
//!   embedding gathers; SSD storage slows them by orders of magnitude,
//!   which is the gap RecSSD attacks. Their differentiating parameters
//!   are the paper's Table 1 (feature size / indices per lookup / table
//!   count), reproduced by [`ModelConfig::table1`].
//!
//! [`ModelInstance`] materialises a config's embedding tables on the
//! simulated device and [`ModelInstance::run_inference`] executes the
//! model graph — bottom MLP ∥ per-table SLS, then the
//! feature-interaction + top MLP — on the [`recssd::System`] virtual
//! clock, with the embedding path selected by a [`recssd::SlsPath`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod inference;
mod mlp;
mod zoo;

pub use inference::{BatchGen, InferenceResult, ModelInstance};
pub use mlp::MlpSpec;
pub use zoo::{ModelClass, ModelConfig};
