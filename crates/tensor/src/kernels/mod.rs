//! CPU kernel library.
//!
//! Each function takes borrowed input tensors and returns a freshly
//! allocated output, mirroring the functional operator interface of the IR.
//! The kernels the VM runs most also have an `_into` form that writes into
//! planned outputs (destination passing, [`crate::dest`]) — the VM's
//! `invoke_mut` calling convention; the fresh form is a thin wrapper over
//! it, so both compute every element the same way.

mod conv;
mod creation;
mod dynamic;
mod elementwise;
pub mod gemm;
mod matmul;
mod movement;
mod reduce;

pub use conv::{avg_pool2d, batch_norm, conv2d, global_avg_pool, max_pool2d};
pub use creation::{arange, cast, full_f32, one_hot};
pub use dynamic::{boolean_mask, nms, unique};
pub use elementwise::{
    add, add_into, div, div_into, equal, equal_into, gelu, gelu_into, greater, greater_into, less,
    less_into, logical_and, logical_and_into, logical_not, logical_not_into, maximum, maximum_into,
    minimum, minimum_into, mul, mul_into, neg, neg_into, power, power_into, relu, relu_into,
    sigmoid, sigmoid_into, sqrt, sqrt_into, sub, sub_into, tanh, tanh_into, where_select,
};
pub use matmul::{
    batch_matmul, batch_matmul_into, dense, dense_with_epilogue, dense_with_epilogue_into,
    dense_write, matmul, matmul_into, MatmulSchedule,
};
pub use movement::{
    concat, expand_dims, slice, slice_axis, split, split_into, squeeze, stack, take, transpose,
};
pub use reduce::{
    argmax, layer_norm, layer_norm_into, max_axis, mean_axis, softmax, softmax_into, sum_axis,
};
