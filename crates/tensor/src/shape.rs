//! Concrete (fully static) runtime shapes and broadcasting rules.
//!
//! The compiler-side shape representation (with `Any` and symbolic
//! dimensions) lives in `nimble-ir`; this module only deals with shapes of
//! materialized tensors, which are always concrete integers at run time.

use crate::{Result, TensorError};
use std::sync::Arc;

/// A concrete row-major tensor shape.
///
/// A scalar has an empty dimension list. The dimensions sit behind an
/// [`Arc`], so cloning a shape — and with it a [`crate::Tensor`] — never
/// allocates; the VM interns the static shapes of its `AllocTensor`
/// instructions once at load time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Arc<[usize]>);

impl Default for Shape {
    fn default() -> Self {
        Shape::scalar()
    }
}

impl Shape {
    /// Create a shape from a dimension slice.
    pub fn new(dims: &[usize]) -> Self {
        Shape(Arc::from(dims))
    }

    /// Scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape::new(&[])
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Total number of elements (1 for scalars).
    pub fn volume(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides, in *elements* (not bytes).
    ///
    /// ```
    /// use nimble_tensor::Shape;
    /// assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
    /// ```
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0; self.0.len()];
        let mut acc = 1;
        for (s, &d) in strides.iter_mut().zip(self.0.iter()).rev() {
            *s = acc;
            acc *= d;
        }
        strides
    }

    /// Convert a multi-dimensional index to a flat row-major offset.
    ///
    /// # Panics
    /// Panics in debug builds if `idx` has the wrong rank.
    pub fn flat_index(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.0.len());
        let mut off = 0;
        let mut acc = 1;
        for (&i, &d) in idx.iter().zip(self.0.iter()).rev() {
            off += i * acc;
            acc *= d;
        }
        off
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims.into())
    }
}

impl FromIterator<usize> for Shape {
    fn from_iter<I: IntoIterator<Item = usize>>(dims: I) -> Self {
        Shape(dims.into_iter().collect())
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

/// Compute the NumPy-style broadcast of two shapes.
///
/// Dimensions are aligned from the right; a dimension of size 1 broadcasts
/// against any size. This is the *runtime* counterpart of the `broadcast_rel`
/// type relation of Section 4.1 — by the time tensors are materialized every
/// `Any` has been instantiated, so this function also performs the deferred
/// (gradual-typing) check that the paper pushes to run time.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] when a pair of dimensions is
/// incompatible.
///
/// ```
/// use nimble_tensor::broadcast_shapes;
/// assert_eq!(broadcast_shapes(&[5, 1], &[3]).unwrap(), vec![5, 3]);
/// assert!(broadcast_shapes(&[2], &[3]).is_err());
/// ```
pub fn broadcast_shapes(lhs: &[usize], rhs: &[usize]) -> Result<Vec<usize>> {
    let rank = lhs.len().max(rhs.len());
    let mut out = vec![0; rank];
    for i in 0..rank {
        let l = if i < lhs.len() {
            lhs[lhs.len() - 1 - i]
        } else {
            1
        };
        let r = if i < rhs.len() {
            rhs[rhs.len() - 1 - i]
        } else {
            1
        };
        out[rank - 1 - i] = if l == r {
            l
        } else if l == 1 {
            r
        } else if r == 1 {
            l
        } else {
            return Err(TensorError::shape("broadcast", lhs, rhs));
        };
    }
    Ok(out)
}

/// Iterator over all multi-dimensional indices of a shape in row-major order.
///
/// Used by the generic (slow-path) broadcast kernels; the fast paths never
/// materialize indices.
pub struct IndexIter {
    dims: Vec<usize>,
    current: Vec<usize>,
    done: bool,
}

impl IndexIter {
    /// Create an iterator over all indices of `dims`.
    pub fn new(dims: &[usize]) -> Self {
        let done = dims.contains(&0);
        IndexIter {
            dims: dims.to_vec(),
            current: vec![0; dims.len()],
            done,
        }
    }
}

impl Iterator for IndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let result = self.current.clone();
        // Advance odometer.
        let mut i = self.dims.len();
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            self.current[i] += 1;
            if self.current[i] < self.dims[i] {
                break;
            }
            self.current[i] = 0;
        }
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn volume_and_strides() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.flat_index(&[1, 2, 3]), 23);
        assert_eq!(Shape::scalar().volume(), 1);
        assert_eq!(Shape::scalar().strides(), Vec::<usize>::new());
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[5, 1], &[3]).unwrap(), vec![5, 3]);
        assert_eq!(broadcast_shapes(&[1], &[7]).unwrap(), vec![7]);
        assert_eq!(broadcast_shapes(&[], &[2, 2]).unwrap(), vec![2, 2]);
        assert_eq!(
            broadcast_shapes(&[8, 1, 6], &[7, 1]).unwrap(),
            vec![8, 7, 6]
        );
    }

    #[test]
    fn broadcast_failure() {
        assert!(broadcast_shapes(&[2], &[3]).is_err());
        assert!(broadcast_shapes(&[4, 2], &[4, 3]).is_err());
    }

    #[test]
    fn index_iter_row_major() {
        let idx: Vec<_> = IndexIter::new(&[2, 2]).collect();
        assert_eq!(idx, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
        // A zero-sized dimension yields no indices.
        assert_eq!(IndexIter::new(&[0, 3]).count(), 0);
        // A scalar yields exactly one (empty) index.
        assert_eq!(IndexIter::new(&[]).count(), 1);
    }

    #[test]
    fn display() {
        assert_eq!(Shape::new(&[1, 10, 3]).to_string(), "(1, 10, 3)");
        assert_eq!(Shape::scalar().to_string(), "()");
    }

    proptest! {
        #[test]
        fn broadcast_is_commutative(
            a in proptest::collection::vec(1usize..5, 0..4),
            b in proptest::collection::vec(1usize..5, 0..4),
        ) {
            let ab = broadcast_shapes(&a, &b);
            let ba = broadcast_shapes(&b, &a);
            // Error payloads record argument order, so compare success
            // status and the successful shapes only.
            prop_assert_eq!(ab.is_ok(), ba.is_ok());
            if let (Ok(x), Ok(y)) = (ab, ba) {
                prop_assert_eq!(x, y);
            }
        }

        #[test]
        fn broadcast_with_self_is_identity(
            a in proptest::collection::vec(1usize..8, 0..5),
        ) {
            prop_assert_eq!(broadcast_shapes(&a, &a).unwrap(), a);
        }

        #[test]
        fn index_iter_counts_volume(
            dims in proptest::collection::vec(1usize..4, 0..4),
        ) {
            let count = IndexIter::new(&dims).count();
            prop_assert_eq!(count, Shape::new(&dims).volume());
        }

        #[test]
        fn flat_index_is_bijective(
            dims in proptest::collection::vec(1usize..4, 1..4),
        ) {
            let s = Shape::new(&dims);
            let mut seen = vec![false; s.volume()];
            for idx in IndexIter::new(&dims) {
                let off = s.flat_index(&idx);
                prop_assert!(!seen[off]);
                seen[off] = true;
            }
            prop_assert!(seen.iter().all(|&b| b));
        }
    }
}
