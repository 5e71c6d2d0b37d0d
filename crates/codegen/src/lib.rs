//! # nimble-codegen
//!
//! Kernel code generation for the Nimble reproduction (paper Section 4.5):
//!
//! * [`kernel`] — compile IR operator calls and fused primitive functions
//!   into executable [`kernel::Kernel`] closures (the payload of the VM's
//!   `InvokePacked` instruction), with an in-place fast path for fused
//!   elementwise tails and a tiled single-sweep evaluator (`sweep`) for
//!   elementwise groups, optionally behind a `dense` anchor;
//! * [`shape_func`] — compile shape functions in the three modes of
//!   Section 4.2 into CPU kernels over `i64` shape tensors;
//! * [`symbolic`] — **symbolic codegen with residue dispatch**: duplicate a
//!   dense kernel per residue of the tiling factor and dispatch on
//!   `m mod 8` at run time, eliminating boundary checks from the hot loop
//!   (the mechanism evaluated in Figure 3);
//! * [`tuner`] — the template-based tuning algorithm for symbolic shapes:
//!   tune on a proxy static shape, keep the top-k configurations,
//!   cross-evaluate on other shapes, pick the best average;
//! * [`select`] — the dispatch-function extension that profiles generated
//!   kernels against "third-party library" kernels per shape and invokes
//!   whichever is faster.

pub mod kernel;
pub mod select;
pub mod shape_func;
mod sweep;
pub mod symbolic;
pub mod tuner;

pub use kernel::{ArgSrc, DenseSpec, Kernel, KernelError};
pub use select::{select_schedule, DenseImpl, ScheduleChoice, SelectingDense};
pub use shape_func::ShapeFuncKernel;
pub use symbolic::{dense_symbolic, dense_symbolic_packed, DispatchLevel, SymbolicDense};
pub use tuner::{tune_dense_symbolic, TuneReport, TunerConfig};
