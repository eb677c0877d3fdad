//! # vf-tensor
//!
//! Dense tensors, reverse-mode autograd, optimizers, and deterministic
//! reductions — the numerical substrate of the VirtualFlow reproduction.
//!
//! The VirtualFlow paper (MLSys 2022) implements virtual node processing
//! inside TensorFlow; this crate provides the minimal deterministic
//! differentiable executor that the rest of the workspace virtualizes.
//! Everything is `f32`, row-major, CPU-only, and — crucially for the paper's
//! reproducibility claims — *bit-for-bit deterministic*: the same seed and
//! the same logical batch order produce the same parameters regardless of
//! physical parallelism.
//!
//! ## Layout
//!
//! * [`Tensor`] / [`Shape`] — dense values and their shapes.
//! * [`ops`] — forward kernels (matmul, softmax cross-entropy, batch norm…).
//! * [`gemm`] — blocked, SIMD-dispatched matrix multiply with naive
//!   bit-equal [`gemm::reference`] kernels.
//! * [`pool`] — the process-wide worker pool all parallel kernels share.
//! * [`autograd`] — a tape recording one micro-batch's forward pass.
//! * [`optim`] — SGD/momentum and Adam/AdamW plus LR schedules.
//! * [`reduce`] — deterministic gradient reduction strategies.
//! * [`init`] — seeded parameter initializers.
//!
//! ## Example: one training step
//!
//! ```
//! use vf_tensor::{autograd::Tape, init, optim::{Optimizer, Sgd}, Tensor};
//!
//! let mut rng = init::rng(0);
//! let mut w = init::xavier_uniform(&mut rng, 4, 3);
//! let x = init::normal(&mut rng, [8, 4], 0.0, 1.0);
//! let labels = vec![0, 1, 2, 0, 1, 2, 0, 1];
//!
//! let mut tape = Tape::new();
//! let wv = tape.leaf(w.clone());
//! let xv = tape.constant(x);
//! let logits = tape.matmul(xv, wv)?;
//! let loss = tape.softmax_cross_entropy(logits, &labels)?;
//! let mut grads = tape.backward(loss)?;
//!
//! let mut opt = Sgd::new(0.1);
//! let g = grads.take(wv).expect("w requires grad");
//! let mut params = [w];
//! opt.step(&mut params, &[g])?;
//! # Ok::<(), vf_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

pub mod autograd;
pub mod conv;
mod error;
pub mod gemm;
pub mod init;
pub mod ops;
pub mod optim;
pub mod pool;
pub mod reduce;
#[cfg(debug_assertions)]
mod sanitizer;
mod shape;
mod storage;
mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;
