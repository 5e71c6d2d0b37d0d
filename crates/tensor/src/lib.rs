//! # nimble-tensor
//!
//! Dense tensor substrate for the Nimble reproduction: data types, shapes,
//! broadcasting, and the CPU kernel library that every higher layer
//! (compiler, VM, baseline frameworks) executes on.
//!
//! The paper's kernels are generated by TVM or supplied by vendor libraries
//! (MKL, cuDNN). Here the kernels are hand-written Rust, shared by *all*
//! measured systems so that end-to-end comparisons isolate system overhead
//! (graph construction, dispatch, memory management) rather than kernel
//! quality.
//!
//! ```
//! use nimble_tensor::{Tensor, kernels};
//!
//! # fn main() -> Result<(), nimble_tensor::TensorError> {
//! let a = Tensor::from_vec_f32(vec![1.0, 2.0, 3.0], &[3])?;
//! let b = Tensor::from_vec_f32(vec![10.0, 20.0, 30.0], &[3])?;
//! let c = kernels::add(&a, &b)?;
//! assert_eq!(c.as_f32()?, &[11.0, 22.0, 33.0]);
//! # Ok(())
//! # }
//! ```

pub mod dest;
pub mod dtype;
pub mod error;
pub mod kernels;
pub mod pool;
pub mod prepack;
pub mod shape;
pub mod tensor;

pub use dtype::DType;
pub use error::TensorError;
pub use kernels::gemm::UnaryOp;
pub use pool::ExecProfile;
pub use shape::{broadcast_shapes, Shape};
pub use tensor::{Data, Recycle, Tensor};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
