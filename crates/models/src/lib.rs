//! # vf-models
//!
//! Model definitions for the VirtualFlow reproduction, in two complementary
//! forms:
//!
//! * [`profile`] — **analytical profiles** of the paper's real models
//!   (ResNet-50/56, BERT-BASE/LARGE, Transformer): parameter counts, FLOPs
//!   and activation footprints, calibrated against the capacities the paper
//!   reports (a V100 fits 256 ResNet-50 examples, 8 BERT-BASE sequences, …).
//!   These drive the performance and memory experiments.
//! * [`trainable`] — **trainable stand-ins** (MLPs with optional batch norm,
//!   [`ConvNet`], [`ResidualMlp`]), each one forward pass that `grad` and
//!   `eval` run, training on synthetic tasks. These drive the convergence
//!   experiments, where what matters is the *identity of the gradient
//!   sequence* across hardware mappings, not the absolute model quality.
//!
//! ## Example
//!
//! ```
//! use vf_models::profile::resnet50;
//! use vf_device::{DeviceProfile, DeviceType};
//!
//! let p = resnet50();
//! let v100 = DeviceProfile::of(DeviceType::V100);
//! assert!(p.max_micro_batch(&v100) >= 256);
//! ```

#![warn(missing_docs)]

pub mod convnet;
mod error;
pub mod profile;
pub mod residual;
pub mod trainable;

pub use convnet::ConvNet;
pub use error::ModelError;
pub use profile::{ModelProfile, OptimizerKind};
pub use residual::ResidualMlp;
pub use trainable::{Architecture, EvalReport, GradReport, Mlp, StatefulState};
