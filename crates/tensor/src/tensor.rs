//! The dense tensor type: reference-counted, copy-on-write, row-major.
//!
//! Registers in the Nimble VM hold reference-counted objects that are passed
//! by reference and copied on write (Section 5.2); `Tensor` implements that
//! object representation directly: cloning is O(1) and never allocates,
//! and mutation through [`Tensor::data_mut`] copies only when the buffer is
//! shared.
//!
//! An element buffer may have a *home* (a [`Recycle`] implementation, the
//! VM's per-session storage arena): when the last tensor sharing the
//! buffer drops, the buffer goes back there instead of to the allocator.

use crate::{DType, Result, Shape, TensorError};
use std::sync::Arc;

/// Type-erased element buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Data {
    /// 32-bit float elements.
    F32(Vec<f32>),
    /// 64-bit integer elements.
    I64(Vec<i64>),
    /// 32-bit integer elements.
    I32(Vec<i32>),
    /// Boolean elements.
    Bool(Vec<bool>),
}

impl Data {
    /// The dtype of this buffer.
    pub fn dtype(&self) -> DType {
        match self {
            Data::F32(_) => DType::F32,
            Data::I64(_) => DType::I64,
            Data::I32(_) => DType::I32,
            Data::Bool(_) => DType::Bool,
        }
    }

    /// Number of elements in the buffer.
    pub fn len(&self) -> usize {
        match self {
            Data::F32(v) => v.len(),
            Data::I64(v) => v.len(),
            Data::I32(v) => v.len(),
            Data::Bool(v) => v.len(),
        }
    }

    /// Whether the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocate a zero-filled buffer of `len` elements of `dtype`.
    pub fn zeros(dtype: DType, len: usize) -> Data {
        match dtype {
            DType::F32 => Data::F32(vec![0.0; len]),
            DType::I64 => Data::I64(vec![0; len]),
            DType::I32 => Data::I32(vec![0; len]),
            DType::Bool => Data::Bool(vec![false; len]),
        }
    }

    /// An empty buffer of `dtype` that can grow to `capacity` elements
    /// without reallocating.
    pub fn with_capacity(dtype: DType, capacity: usize) -> Data {
        match dtype {
            DType::F32 => Data::F32(Vec::with_capacity(capacity)),
            DType::I64 => Data::I64(Vec::with_capacity(capacity)),
            DType::I32 => Data::I32(Vec::with_capacity(capacity)),
            DType::Bool => Data::Bool(Vec::with_capacity(capacity)),
        }
    }

    /// Elements the buffer holds without reallocating.
    pub fn capacity(&self) -> usize {
        match self {
            Data::F32(v) => v.capacity(),
            Data::I64(v) => v.capacity(),
            Data::I32(v) => v.capacity(),
            Data::Bool(v) => v.capacity(),
        }
    }

    /// Set the length to `len`, zero-filling new elements (no
    /// reallocation while `len <= capacity()`).
    pub fn resize(&mut self, len: usize) {
        match self {
            Data::F32(v) => v.resize(len, 0.0),
            Data::I64(v) => v.resize(len, 0),
            Data::I32(v) => v.resize(len, 0),
            Data::Bool(v) => v.resize(len, false),
        }
    }

    /// Overwrite every element with `src`'s.
    ///
    /// # Errors
    /// Fails when the dtypes or lengths differ.
    pub fn copy_from(&mut self, src: &Data) -> Result<()> {
        if self.dtype() != src.dtype() || self.len() != src.len() {
            return Err(TensorError::invalid(format!(
                "copy of {} {} elements into {} {} elements",
                src.len(),
                src.dtype(),
                self.len(),
                self.dtype()
            )));
        }
        match (self, src) {
            (Data::F32(d), Data::F32(s)) => d.copy_from_slice(s),
            (Data::I64(d), Data::I64(s)) => d.copy_from_slice(s),
            (Data::I32(d), Data::I32(s)) => d.copy_from_slice(s),
            (Data::Bool(d), Data::Bool(s)) => d.copy_from_slice(s),
            _ => unreachable!("dtypes checked equal"),
        }
        Ok(())
    }
}

/// Where an element buffer goes when the last tensor sharing it drops —
/// implemented by the VM's per-session storage arena.
pub trait Recycle: Send + Sync {
    /// Take back the buffer of a dropped tensor.
    fn recycle(&self, data: Data);
}

/// A tensor's element buffer and its optional home.
struct Buffer {
    data: Data,
    home: Option<Arc<dyn Recycle>>,
}

impl Clone for Buffer {
    /// A copy-on-write copy is a plain allocation: it has no home.
    fn clone(&self) -> Buffer {
        Buffer {
            data: self.data.clone(),
            home: None,
        }
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        if let Some(home) = self.home.take() {
            home.recycle(std::mem::replace(&mut self.data, Data::F32(Vec::new())));
        }
    }
}

impl std::fmt::Debug for Buffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.data.fmt(f)
    }
}

/// A dense, row-major, reference-counted n-dimensional array.
///
/// Cloning a `Tensor` is cheap (bumps an [`Arc`]); the underlying buffer is
/// copied lazily on mutation. This mirrors the VM's tagged-object
/// representation where "objects are reference counted, make use of
/// copy-on-write and passed by reference" (paper Section 5.2).
#[derive(Debug, Clone)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Buffer>,
}

impl Tensor {
    /// Build a tensor from an existing buffer.
    ///
    /// # Errors
    /// Fails with [`TensorError::LengthMismatch`] when the buffer length does
    /// not equal the shape volume.
    pub fn new(data: Data, shape: &[usize]) -> Result<Tensor> {
        Tensor::from_parts(data, Shape::new(shape), None)
    }

    /// Build a tensor from a buffer, an already-built (possibly shared)
    /// shape and the buffer's home, which takes the buffer back when the
    /// last tensor sharing it drops.
    ///
    /// # Errors
    /// Fails with [`TensorError::LengthMismatch`] when the buffer length does
    /// not equal the shape volume.
    pub fn from_parts(data: Data, shape: Shape, home: Option<Arc<dyn Recycle>>) -> Result<Tensor> {
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                len: data.len(),
                expected: shape.volume(),
            });
        }
        Ok(Tensor {
            shape,
            data: Arc::new(Buffer { data, home }),
        })
    }

    /// Build an `f32` tensor from a vector.
    pub fn from_vec_f32(data: Vec<f32>, shape: &[usize]) -> Result<Tensor> {
        Tensor::new(Data::F32(data), shape)
    }

    /// Build an `i64` tensor from a vector.
    pub fn from_vec_i64(data: Vec<i64>, shape: &[usize]) -> Result<Tensor> {
        Tensor::new(Data::I64(data), shape)
    }

    /// Build an `i32` tensor from a vector.
    pub fn from_vec_i32(data: Vec<i32>, shape: &[usize]) -> Result<Tensor> {
        Tensor::new(Data::I32(data), shape)
    }

    /// Build a `bool` tensor from a vector.
    pub fn from_vec_bool(data: Vec<bool>, shape: &[usize]) -> Result<Tensor> {
        Tensor::new(Data::Bool(data), shape)
    }

    /// Scalar f32 tensor.
    pub fn scalar_f32(v: f32) -> Tensor {
        Tensor::from_vec_f32(vec![v], &[]).expect("scalar shape always matches")
    }

    /// Scalar i64 tensor.
    pub fn scalar_i64(v: i64) -> Tensor {
        Tensor::from_vec_i64(vec![v], &[]).expect("scalar shape always matches")
    }

    /// Scalar bool tensor.
    pub fn scalar_bool(v: bool) -> Tensor {
        Tensor::from_vec_bool(vec![v], &[]).expect("scalar shape always matches")
    }

    /// Zero-filled tensor of the given dtype and shape.
    pub fn zeros(dtype: DType, shape: &[usize]) -> Tensor {
        let volume: usize = shape.iter().product();
        Tensor::from_parts(Data::zeros(dtype, volume), Shape::new(shape), None)
            .expect("volume matches by construction")
    }

    /// Tensor filled with ones (f32 only).
    pub fn ones_f32(shape: &[usize]) -> Tensor {
        let volume: usize = shape.iter().product();
        Tensor::from_vec_f32(vec![1.0; volume], shape).expect("volume matches by construction")
    }

    /// Uniform random f32 tensor in `[-scale, scale]`, from a caller-provided
    /// RNG so model initialization is reproducible.
    pub fn rand_f32<R: rand::Rng>(rng: &mut R, shape: &[usize], scale: f32) -> Tensor {
        let volume: usize = shape.iter().product();
        let data = (0..volume).map(|_| rng.gen_range(-scale..=scale)).collect();
        Tensor::from_vec_f32(data, shape).expect("volume matches by construction")
    }

    /// The shape of this tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn volume(&self) -> usize {
        self.shape.volume()
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.data().dtype()
    }

    /// Size of the tensor contents in bytes.
    pub fn nbytes(&self) -> usize {
        self.volume() * self.dtype().size_of()
    }

    /// Borrow the raw buffer.
    pub fn data(&self) -> &Data {
        &self.data.data
    }

    /// Mutably borrow the buffer, copying it first if it is shared
    /// (copy-on-write).
    pub fn data_mut(&mut self) -> &mut Data {
        &mut Arc::make_mut(&mut self.data).data
    }

    /// True when this tensor is the unique owner of its buffer.
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    /// Stable identity of the shared buffer, used as a cache key by the
    /// weight pre-pack cache. Two tensors share an id iff they share the
    /// same `Arc`'d buffer; any mutation goes through copy-on-write
    /// ([`Tensor::data_mut`]) and therefore produces a new id whenever the
    /// buffer is shared (the cache always holds a clone, so a cached buffer
    /// is never mutated in place).
    pub fn buffer_id(&self) -> usize {
        Arc::as_ptr(&self.data) as usize
    }

    /// View the elements as `f32`.
    ///
    /// # Errors
    /// Fails with [`TensorError::DTypeMismatch`] for non-f32 tensors.
    pub fn as_f32(&self) -> Result<&[f32]> {
        match self.data() {
            Data::F32(v) => Ok(v),
            other => Err(TensorError::dtype("as_f32", DType::F32, other.dtype())),
        }
    }

    /// View the elements as `i64`.
    ///
    /// # Errors
    /// Fails with [`TensorError::DTypeMismatch`] for non-i64 tensors.
    pub fn as_i64(&self) -> Result<&[i64]> {
        match self.data() {
            Data::I64(v) => Ok(v),
            other => Err(TensorError::dtype("as_i64", DType::I64, other.dtype())),
        }
    }

    /// View the elements as `i32`.
    ///
    /// # Errors
    /// Fails with [`TensorError::DTypeMismatch`] for non-i32 tensors.
    pub fn as_i32(&self) -> Result<&[i32]> {
        match self.data() {
            Data::I32(v) => Ok(v),
            other => Err(TensorError::dtype("as_i32", DType::I32, other.dtype())),
        }
    }

    /// View the elements as `bool`.
    ///
    /// # Errors
    /// Fails with [`TensorError::DTypeMismatch`] for non-bool tensors.
    pub fn as_bool(&self) -> Result<&[bool]> {
        match self.data() {
            Data::Bool(v) => Ok(v),
            other => Err(TensorError::dtype("as_bool", DType::Bool, other.dtype())),
        }
    }

    /// Mutable f32 view (copy-on-write).
    ///
    /// # Errors
    /// Fails with [`TensorError::DTypeMismatch`] for non-f32 tensors.
    pub fn as_f32_mut(&mut self) -> Result<&mut [f32]> {
        let dt = self.dtype();
        match self.data_mut() {
            Data::F32(v) => Ok(v),
            _ => Err(TensorError::dtype("as_f32_mut", DType::F32, dt)),
        }
    }

    /// Mutable i64 view (copy-on-write).
    ///
    /// # Errors
    /// Fails with [`TensorError::DTypeMismatch`] for non-i64 tensors.
    pub fn as_i64_mut(&mut self) -> Result<&mut [i64]> {
        let dt = self.dtype();
        match self.data_mut() {
            Data::I64(v) => Ok(v),
            _ => Err(TensorError::dtype("as_i64_mut", DType::I64, dt)),
        }
    }

    /// The scalar value of a single-element f32 tensor.
    ///
    /// # Errors
    /// Fails when the tensor has more than one element or a non-f32 dtype.
    pub fn scalar_value_f32(&self) -> Result<f32> {
        if self.volume() != 1 {
            return Err(TensorError::invalid(format!(
                "scalar_value_f32 on tensor with {} elements",
                self.volume()
            )));
        }
        Ok(self.as_f32()?[0])
    }

    /// The scalar truth value of a single-element bool tensor.
    ///
    /// # Errors
    /// Fails when the tensor has more than one element or a non-bool dtype.
    pub fn scalar_value_bool(&self) -> Result<bool> {
        if self.volume() != 1 {
            return Err(TensorError::invalid(format!(
                "scalar_value_bool on tensor with {} elements",
                self.volume()
            )));
        }
        Ok(self.as_bool()?[0])
    }

    /// Reinterpret the tensor with a new shape of identical volume without
    /// copying data. This is the runtime backing of the `ReshapeTensor` VM
    /// instruction ("assigns a new shape to a tensor without altering its
    /// data", Table A.1).
    ///
    /// # Errors
    /// Fails with [`TensorError::ShapeMismatch`] when volumes differ.
    pub fn reshaped(&self, new_shape: &[usize]) -> Result<Tensor> {
        let new_volume: usize = new_shape.iter().product();
        if new_volume != self.volume() {
            return Err(TensorError::shape("reshape", self.dims(), new_shape));
        }
        Ok(Tensor {
            shape: Shape::new(new_shape),
            data: Arc::clone(&self.data),
        })
    }

    /// The shape of this tensor as a rank-1 `i64` tensor — the runtime
    /// behaviour of the `ShapeOf` VM instruction / `shape_of` IR construct.
    pub fn shape_tensor(&self) -> Tensor {
        let dims: Vec<i64> = self.dims().iter().map(|&d| d as i64).collect();
        let n = dims.len();
        Tensor::from_vec_i64(dims, &[n]).expect("shape tensor volume always matches")
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn construction_checks_volume() {
        assert!(Tensor::from_vec_f32(vec![1.0, 2.0], &[3]).is_err());
        let t = Tensor::from_vec_f32(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t.dims(), &[2, 2]);
        assert_eq!(t.dtype(), DType::F32);
        assert_eq!(t.nbytes(), 16);
    }

    #[test]
    fn copy_on_write() {
        let t1 = Tensor::from_vec_f32(vec![1.0, 2.0], &[2]).unwrap();
        let mut t2 = t1.clone();
        assert!(!t2.is_unique());
        t2.as_f32_mut().unwrap()[0] = 99.0;
        assert_eq!(t1.as_f32().unwrap(), &[1.0, 2.0]);
        assert_eq!(t2.as_f32().unwrap(), &[99.0, 2.0]);
        assert!(t1.is_unique());
        assert!(t2.is_unique());
    }

    #[test]
    fn reshape_shares_data() {
        let t = Tensor::from_vec_f32(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        let r = t.reshaped(&[2, 2]).unwrap();
        assert_eq!(r.dims(), &[2, 2]);
        assert!(!r.is_unique()); // shares with t
        assert!(t.reshaped(&[3]).is_err());
    }

    #[test]
    fn shape_tensor_round_trip() {
        let t = Tensor::zeros(DType::F32, &[3, 5, 7]);
        let s = t.shape_tensor();
        assert_eq!(s.dtype(), DType::I64);
        assert_eq!(s.as_i64().unwrap(), &[3, 5, 7]);
        assert_eq!(s.dims(), &[3]);
    }

    #[test]
    fn scalars() {
        assert_eq!(Tensor::scalar_f32(2.5).scalar_value_f32().unwrap(), 2.5);
        assert!(Tensor::scalar_bool(true).scalar_value_bool().unwrap());
        assert!(Tensor::zeros(DType::F32, &[2]).scalar_value_f32().is_err());
        assert!(Tensor::scalar_f32(1.0).scalar_value_bool().is_err());
    }

    #[test]
    fn dtype_accessor_errors() {
        let t = Tensor::zeros(DType::I64, &[2]);
        assert!(t.as_f32().is_err());
        assert!(t.as_i64().is_ok());
        assert!(t.as_bool().is_err());
        assert!(t.as_i32().is_err());
    }

    #[test]
    fn rand_is_reproducible() {
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(7);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(7);
        let a = Tensor::rand_f32(&mut rng1, &[4, 4], 0.1);
        let b = Tensor::rand_f32(&mut rng2, &[4, 4], 0.1);
        assert_eq!(a, b);
        assert!(a.as_f32().unwrap().iter().all(|v| v.abs() <= 0.1));
    }
}
