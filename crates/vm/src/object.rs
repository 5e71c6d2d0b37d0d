//! The VM's tagged object representation (paper Section 5.2).
//!
//! "VM uses a tagged object representation reminiscent of those used by
//! programming languages such as Haskell and OCaml" — objects are
//! reference counted, copied on write, and passed by reference, so
//! register operations are cheap even for large payloads.

use crate::{Result, VmError};
use nimble_device::{DeviceId, TensorFuture};
use nimble_tensor::{Shape, Tensor};
use std::sync::Arc;

/// A storage region allocated by `AllocStorage`: the planned byte size and
/// device of the tensors that `AllocTensor` places in it.
///
/// The memory plan only emits offset 0 (one live tensor per storage at a
/// time), so a storage holds no memory of its own: `AllocTensor` draws the
/// tensor's element buffer from the session arena under the storage's size
/// class, and the buffer returns to the arena when the last tensor sharing
/// it drops. Allocating a storage therefore costs no heap allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageHandle {
    /// Planned size in bytes.
    pub size: u64,
    /// Device the storage lives on.
    pub device: DeviceId,
}

/// A planned output of a kernel placed on the simulated GPU: what
/// `AllocTensor`/`AllocTensorReg` declare when the storage lives on a
/// device with a stream. It holds no buffer yet. The launching
/// `InvokePacked` turns the register into a future, and the lane job
/// draws the element buffer from the session arena, under the storage's
/// size class, when it runs: one arena acquire per output, and a launch
/// backlog does not pin its outputs' memory.
#[derive(Debug, Clone)]
pub struct PlannedObj {
    /// Planned shape.
    pub shape: Shape,
    /// Planned dtype.
    pub dtype: nimble_tensor::DType,
    /// Planned byte size of the storage the tensor is placed in.
    pub nbytes: u64,
    /// Device the storage lives on.
    pub device: DeviceId,
}

/// A tensor resident on a device. Cloning one never allocates.
#[derive(Debug, Clone)]
pub struct TensorObj {
    /// The tensor payload.
    pub tensor: Tensor,
    /// Residency.
    pub device: DeviceId,
}

/// A pending asynchronous kernel output: shape/dtype metadata is known on
/// the host immediately (it was computed by the shape function before
/// launch), the data materializes when the device stream retires the job.
#[derive(Debug, Clone)]
pub struct FutureObj {
    /// Resolves to the kernel's outputs.
    pub future: TensorFuture,
    /// Which output of the kernel this register refers to.
    pub output_index: usize,
    /// Host-known shape metadata.
    pub shape: Shape,
    /// Host-known dtype.
    pub dtype: nimble_tensor::DType,
    /// Residency of the eventual tensor.
    pub device: DeviceId,
}

/// An algebraic-data-type value (tuples use [`TUPLE_TAG`]).
#[derive(Debug)]
pub struct AdtObj {
    /// Constructor tag.
    pub tag: u32,
    /// Field objects.
    pub fields: Vec<Object>,
}

/// A closure: function index plus captured environment.
#[derive(Debug)]
pub struct ClosureObj {
    /// Index into the executable's function table.
    pub func: u32,
    /// Captured objects, prepended to call arguments.
    pub captures: Vec<Object>,
}

/// Tag used for tuple objects.
pub const TUPLE_TAG: u32 = u32::MAX;

/// A VM register value.
#[derive(Debug, Clone, Default)]
pub enum Object {
    /// Empty register (also the result of `kill`).
    #[default]
    Unit,
    /// Device-resident tensor.
    Tensor(TensorObj),
    /// Pending asynchronous tensor.
    Future(FutureObj),
    /// Planned storage region.
    Storage(StorageHandle),
    /// Planned device output whose buffer is drawn when its kernel runs.
    Planned(PlannedObj),
    /// ADT value / tuple.
    Adt(Arc<AdtObj>),
    /// Closure.
    Closure(Arc<ClosureObj>),
}

impl Object {
    /// Wrap a CPU tensor.
    pub fn tensor(t: Tensor) -> Object {
        Object::tensor_on(t, DeviceId::Cpu)
    }

    /// Wrap a tensor on a device.
    pub fn tensor_on(t: Tensor, device: DeviceId) -> Object {
        Object::Tensor(TensorObj { tensor: t, device })
    }

    /// Build a tuple object.
    pub fn tuple(fields: Vec<Object>) -> Object {
        Object::Adt(Arc::new(AdtObj {
            tag: TUPLE_TAG,
            fields,
        }))
    }

    /// The device a tensor-like object resides on (CPU for the rest).
    pub fn device(&self) -> DeviceId {
        match self {
            Object::Tensor(t) => t.device,
            Object::Future(f) => f.device,
            Object::Storage(s) => s.device,
            Object::Planned(p) => p.device,
            _ => DeviceId::Cpu,
        }
    }

    /// Materialize as a tensor, blocking on futures.
    ///
    /// # Errors
    /// Fails for non-tensor objects or failed kernels.
    pub fn wait_tensor(&self) -> Result<Tensor> {
        match self {
            Object::Tensor(t) => Ok(t.tensor.clone()),
            Object::Future(f) => {
                let outs = f.future.wait().map_err(VmError)?;
                outs.get(f.output_index)
                    .cloned()
                    .ok_or_else(|| VmError::msg("future output index out of range"))
            }
            other => Err(VmError::msg(format!(
                "expected tensor object, got {}",
                other.kind_name()
            ))),
        }
    }

    /// Tensor shape without forcing synchronization: futures carry
    /// host-side metadata.
    ///
    /// # Errors
    /// Fails for non-tensor objects.
    pub fn tensor_shape(&self) -> Result<&[usize]> {
        match self {
            Object::Tensor(t) => Ok(t.tensor.dims()),
            Object::Future(f) => Ok(f.shape.dims()),
            Object::Planned(p) => Ok(p.shape.dims()),
            other => Err(VmError::msg(format!(
                "expected tensor object, got {}",
                other.kind_name()
            ))),
        }
    }

    /// View as an ADT object.
    ///
    /// # Errors
    /// Fails for non-ADT objects.
    pub fn as_adt(&self) -> Result<&Arc<AdtObj>> {
        match self {
            Object::Adt(a) => Ok(a),
            other => Err(VmError::msg(format!(
                "expected ADT object, got {}",
                other.kind_name()
            ))),
        }
    }

    /// View as a closure object.
    ///
    /// # Errors
    /// Fails for non-closure objects.
    pub fn as_closure(&self) -> Result<&Arc<ClosureObj>> {
        match self {
            Object::Closure(c) => Ok(c),
            other => Err(VmError::msg(format!(
                "expected closure object, got {}",
                other.kind_name()
            ))),
        }
    }

    /// Scalar comparison value used by the `If` instruction: bool scalars
    /// map to 0/1, i64/i32 scalars to their value.
    ///
    /// # Errors
    /// Fails for non-scalar or non-integer/bool tensors.
    pub fn scalar_i64(&self) -> Result<i64> {
        let t = self.wait_tensor()?;
        if t.volume() != 1 {
            return Err(VmError::msg("If operand must be a scalar"));
        }
        match t.data() {
            nimble_tensor::Data::Bool(v) => Ok(v[0] as i64),
            nimble_tensor::Data::I64(v) => Ok(v[0]),
            nimble_tensor::Data::I32(v) => Ok(v[0] as i64),
            nimble_tensor::Data::F32(_) => Err(VmError::msg("If operand must be integral")),
        }
    }

    /// Short name for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Object::Unit => "unit",
            Object::Tensor(_) => "tensor",
            Object::Future(_) => "future",
            Object::Storage(_) => "storage",
            Object::Planned(_) => "planned tensor",
            Object::Adt(_) => "adt",
            Object::Closure(_) => "closure",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_accessors() {
        let o = Object::tensor(Tensor::scalar_f32(2.0));
        assert_eq!(o.device(), DeviceId::Cpu);
        assert_eq!(o.wait_tensor().unwrap().scalar_value_f32().unwrap(), 2.0);
        assert_eq!(o.tensor_shape().unwrap(), Vec::<usize>::new());
        assert!(o.as_adt().is_err());
        assert!(Object::Unit.wait_tensor().is_err());
    }

    #[test]
    fn tuple_fields() {
        let t = Object::tuple(vec![
            Object::tensor(Tensor::scalar_f32(1.0)),
            Object::tensor(Tensor::scalar_f32(2.0)),
        ]);
        let adt = t.as_adt().unwrap();
        assert_eq!(adt.tag, TUPLE_TAG);
        assert_eq!(adt.fields.len(), 2);
    }

    #[test]
    fn scalar_comparison_values() {
        assert_eq!(
            Object::tensor(Tensor::scalar_bool(true))
                .scalar_i64()
                .unwrap(),
            1
        );
        assert_eq!(
            Object::tensor(Tensor::scalar_i64(42)).scalar_i64().unwrap(),
            42
        );
        assert!(Object::tensor(Tensor::scalar_f32(1.0))
            .scalar_i64()
            .is_err());
        assert!(Object::tensor(Tensor::ones_f32(&[2])).scalar_i64().is_err());
    }

    #[test]
    fn future_metadata_without_sync() {
        let f = TensorFuture::pending();
        let obj = Object::Future(FutureObj {
            future: f.clone(),
            output_index: 0,
            shape: Shape::new(&[3, 4]),
            dtype: nimble_tensor::DType::F32,
            device: DeviceId::Gpu,
        });
        // Shape is available before the future resolves.
        assert_eq!(obj.tensor_shape().unwrap(), [3, 4]);
        assert_eq!(obj.device(), DeviceId::Gpu);
        f.fulfill(vec![Tensor::ones_f32(&[3, 4])]);
        assert_eq!(obj.wait_tensor().unwrap().dims(), &[3, 4]);
    }

    #[test]
    fn clone_is_shallow() {
        let t = Tensor::ones_f32(&[1024]);
        let o1 = Object::tensor(t);
        let o2 = o1.clone();
        match (&o1, &o2) {
            (Object::Tensor(a), Object::Tensor(b)) => {
                // Same underlying buffer (reference counted, copy on write).
                assert!(!a.tensor.is_unique());
                assert!(!b.tensor.is_unique());
            }
            _ => unreachable!(),
        }
    }
}
