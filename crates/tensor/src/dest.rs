//! Destination passing: how a kernel finds the tensors it writes.
//!
//! Every kernel takes its outputs as `outs: &mut Vec<Tensor>`. The VM
//! passes one *planned* tensor per output — shape and dtype fixed by the
//! memory plan, element buffer drawn from the session arena — and the
//! kernel overwrites every element in place. Any other caller passes an
//! empty vector and the kernel pushes freshly allocated outputs. Kernels
//! reach their outputs through [`slot`], so both cases share one code
//! path, and a planned tensor whose dims or dtype differ from what the
//! kernel computes is an error, never a slice-length panic.

use crate::{DType, Result, Tensor, TensorError};

/// Output `i` of `op`: the planned tensor `outs[i]`, checked against
/// `dtype` and `dims`, or — when the caller planned nothing — a fresh
/// zero-filled tensor pushed onto `outs`.
///
/// # Errors
/// Fails when the planned tensor's dims or dtype differ from the computed
/// ones, or when outputs are requested out of order.
pub fn slot<'a>(
    op: &str,
    outs: &'a mut Vec<Tensor>,
    i: usize,
    dtype: DType,
    dims: &[usize],
) -> Result<&'a mut Tensor> {
    if i == outs.len() {
        outs.push(Tensor::zeros(dtype, dims));
    }
    let out = outs
        .get_mut(i)
        .ok_or_else(|| TensorError::invalid(format!("{op}: output {i} requested out of order")))?;
    if out.dtype() != dtype || out.dims() != dims {
        return Err(TensorError::invalid(format!(
            "{op}: planned output {i} is {} {:?}, the kernel computes {dtype} {dims:?}",
            out.dtype(),
            out.dims()
        )));
    }
    Ok(out)
}

/// [`slot`] for an `f32` output, as its element slice.
///
/// # Errors
/// As [`slot`].
pub fn slot_f32<'a>(
    op: &str,
    outs: &'a mut Vec<Tensor>,
    i: usize,
    dims: &[usize],
) -> Result<&'a mut [f32]> {
    slot(op, outs, i, DType::F32, dims)?.as_f32_mut()
}

/// Hand over the outputs of a kernel that builds its own results from
/// `inputs`: moved into `outs` when nothing was planned, copied into the
/// planned tensors (checked as by [`slot`]) otherwise. A result that
/// shares an input's buffer is a view (`reshape`, `expand_dims`,
/// `squeeze`): it replaces its planned tensor instead, so a view costs no
/// copy.
///
/// # Errors
/// Fails on an output-count, dims or dtype mismatch.
pub fn deliver(
    op: &str,
    inputs: &[Tensor],
    results: Vec<Tensor>,
    outs: &mut Vec<Tensor>,
) -> Result<()> {
    if outs.is_empty() {
        *outs = results;
        return Ok(());
    }
    if outs.len() != results.len() {
        return Err(TensorError::invalid(format!(
            "{op}: {} planned outputs, the kernel computes {}",
            outs.len(),
            results.len()
        )));
    }
    for (i, r) in results.into_iter().enumerate() {
        let planned = slot(op, outs, i, r.dtype(), r.dims())?;
        if inputs.iter().any(|x| x.buffer_id() == r.buffer_id()) {
            *planned = r;
        } else {
            planned.data_mut().copy_from(r.data())?;
        }
    }
    Ok(())
}

/// Call `f` with the dims `prefix ++ [last]`, built on the stack for
/// ranks up to 8 (a GEMM output: the activation's leading dims and the
/// weight's row count), so checking a planned output allocates nothing.
pub fn with_dims<R>(prefix: &[usize], last: usize, f: impl FnOnce(&[usize]) -> R) -> R {
    const STACK: usize = 8;
    if prefix.len() < STACK {
        let mut dims = [0usize; STACK];
        dims[..prefix.len()].copy_from_slice(prefix);
        dims[prefix.len()] = last;
        f(&dims[..=prefix.len()])
    } else {
        let mut dims = prefix.to_vec();
        dims.push(last);
        f(&dims)
    }
}

/// Run a destination-passing kernel with nothing planned and return its
/// single output — the fresh-output form of a kernel.
///
/// # Errors
/// Propagates the kernel's error.
pub fn fresh(kernel: impl FnOnce(&mut Vec<Tensor>) -> Result<()>) -> Result<Tensor> {
    let mut outs = Vec::with_capacity(1);
    kernel(&mut outs)?;
    outs.pop()
        .ok_or_else(|| TensorError::invalid("kernel produced no output"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_slot_is_checked_and_reused() {
        let planned = Tensor::zeros(DType::F32, &[2, 3]);
        let id = planned.buffer_id();
        let mut outs = vec![planned];
        slot_f32("t", &mut outs, 0, &[2, 3]).unwrap().fill(1.0);
        assert_eq!(outs[0].buffer_id(), id, "written in place");
        assert!(slot("t", &mut outs, 0, DType::F32, &[3, 2]).is_err());
        assert!(slot("t", &mut outs, 0, DType::I64, &[2, 3]).is_err());
        assert!(slot("t", &mut outs, 2, DType::F32, &[1]).is_err());
    }

    #[test]
    fn empty_outs_get_fresh_tensors() {
        let mut outs = Vec::new();
        slot_f32("t", &mut outs, 0, &[4]).unwrap()[3] = 2.0;
        assert_eq!(outs[0].as_f32().unwrap(), &[0.0, 0.0, 0.0, 2.0]);
        let t = fresh(|o| slot_f32("t", o, 0, &[1]).map(|_| ())).unwrap();
        assert_eq!(t.dims(), &[1]);
    }

    #[test]
    fn deliver_moves_or_copies() {
        let r = Tensor::from_vec_f32(vec![1.0, 2.0], &[2]).unwrap();
        let mut outs = Vec::new();
        deliver("t", &[], vec![r.clone()], &mut outs).unwrap();
        assert_eq!(outs[0].buffer_id(), r.buffer_id());
        let planned = Tensor::zeros(DType::F32, &[2]);
        let id = planned.buffer_id();
        let mut outs = vec![planned];
        deliver("t", &[], vec![r.clone()], &mut outs).unwrap();
        assert_eq!(outs[0].buffer_id(), id);
        assert_eq!(outs[0].as_f32().unwrap(), &[1.0, 2.0]);
        let mut wrong = vec![Tensor::zeros(DType::F32, &[3])];
        assert!(deliver("t", &[], vec![r.clone()], &mut wrong).is_err());
    }

    #[test]
    fn deliver_hands_views_over() {
        let x = Tensor::from_vec_f32(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let view = x.reshaped(&[4]).unwrap();
        let mut outs = vec![Tensor::zeros(DType::F32, &[4])];
        deliver("reshape", std::slice::from_ref(&x), vec![view], &mut outs).unwrap();
        assert_eq!(outs[0].buffer_id(), x.buffer_id(), "no copy");
        assert_eq!(outs[0].dims(), &[4]);
        let view = x.reshaped(&[4]).unwrap();
        let mut wrong = vec![Tensor::zeros(DType::F32, &[1, 4])];
        assert!(deliver("reshape", &[x], vec![view], &mut wrong).is_err());
    }
}
