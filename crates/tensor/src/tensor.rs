use crate::{Result, TensorError};

/// A dense, row-major `f32` tensor of arbitrary rank.
///
/// `Tensor` is the single numeric container used across the FF-INT8
/// reproduction: mini-batches are `[batch, features]` or
/// `[batch, channels, height, width]`, dense weights are `[in, out]`, and
/// convolution weights are `[out_ch, in_ch, kh, kw]`.
///
/// # Examples
///
/// ```
/// use ff_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ff_tensor::Tensor;
    /// let t = Tensor::zeros(&[4]);
    /// assert_eq!(t.data(), &[0.0; 4]);
    /// ```
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::full(shape, 0.0)
    }

    /// Creates a tensor of the given shape filled with ones.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ff_tensor::Tensor;
    /// assert_eq!(Tensor::ones(&[2]).sum(), 2.0);
    /// ```
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor of the given shape filled with `value`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ff_tensor::Tensor;
    /// assert_eq!(Tensor::full(&[3], 2.0).sum(), 6.0);
    /// ```
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; n],
        }
    }

    /// Creates a rank-0-like single-element tensor holding `value`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ff_tensor::Tensor;
    /// assert_eq!(Tensor::scalar(3.5).data(), &[3.5]);
    /// ```
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: vec![1],
            data: vec![value],
        }
    }

    /// Builds a tensor from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCountMismatch`] when `data.len()` does not
    /// equal the product of `shape`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ff_tensor::Tensor;
    /// # fn main() -> Result<(), ff_tensor::TensorError> {
    /// let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
    /// assert_eq!(t.at2(1, 0)?, 3.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::ElementCountMismatch {
                shape: shape.to_vec(),
                provided: data.len(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Builds a tensor from a slice, copying the contents.
    ///
    /// # Errors
    ///
    /// Same as [`Tensor::from_vec`].
    ///
    /// # Examples
    ///
    /// ```
    /// # use ff_tensor::Tensor;
    /// # fn main() -> Result<(), ff_tensor::TensorError> {
    /// let t = Tensor::from_slice(&[3], &[1.0, 2.0, 3.0])?;
    /// assert_eq!(t.sum(), 6.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_slice(shape: &[usize], data: &[f32]) -> Result<Self> {
        Tensor::from_vec(shape, data.to_vec())
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying buffer.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ff_tensor::Tensor;
    /// let v = Tensor::ones(&[2]).into_vec();
    /// assert_eq!(v, vec![1.0, 1.0]);
    /// ```
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a copy of the tensor with a new shape holding the same data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCountMismatch`] if the new shape does not
    /// describe the same number of elements.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ff_tensor::Tensor;
    /// # fn main() -> Result<(), ff_tensor::TensorError> {
    /// let t = Tensor::ones(&[2, 3]).reshape(&[3, 2])?;
    /// assert_eq!(t.shape(), &[3, 2]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn reshape(&self, shape: &[usize]) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::ElementCountMismatch {
                shape: shape.to_vec(),
                provided: self.data.len(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Number of rows for a rank-2 tensor (first dimension otherwise).
    pub fn rows(&self) -> usize {
        self.shape.first().copied().unwrap_or(0)
    }

    /// Number of columns for a rank-2 tensor.
    ///
    /// For tensors of rank > 2 this is the product of all trailing dimensions,
    /// i.e. the row width after flattening to two dimensions.
    pub fn cols(&self) -> usize {
        if self.shape.len() <= 1 {
            return if self.shape.is_empty() { 0 } else { 1 };
        }
        self.shape[1..].iter().product()
    }

    /// Element access for rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when the index exceeds the
    /// shape and [`TensorError::RankMismatch`] for non-rank-2 tensors.
    pub fn at2(&self, i: usize, j: usize) -> Result<f32> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.ndim(),
                op: "at2",
            });
        }
        if i >= self.shape[0] || j >= self.shape[1] {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![i, j],
                shape: self.shape.clone(),
            });
        }
        Ok(self.data[i * self.shape[1] + j])
    }

    /// Mutable element write for rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::at2`].
    pub fn set2(&mut self, i: usize, j: usize, value: f32) -> Result<()> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.ndim(),
                op: "set2",
            });
        }
        if i >= self.shape[0] || j >= self.shape[1] {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![i, j],
                shape: self.shape.clone(),
            });
        }
        let cols = self.shape[1];
        self.data[i * cols + j] = value;
        Ok(())
    }

    /// Borrow row `i` of a tensor viewed as `[rows, cols]`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f32] {
        let cols = self.cols();
        &self.data[i * cols..(i + 1) * cols]
    }

    /// Mutably borrow row `i` of a tensor viewed as `[rows, cols]`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let cols = self.cols();
        &mut self.data[i * cols..(i + 1) * cols]
    }

    /// Copies rows `[start, end)` into a new tensor with the same trailing
    /// dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when the range is invalid.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ff_tensor::Tensor;
    /// # fn main() -> Result<(), ff_tensor::TensorError> {
    /// let t = Tensor::from_vec(&[3, 2], vec![1., 2., 3., 4., 5., 6.])?;
    /// let s = t.slice_rows(1, 3)?;
    /// assert_eq!(s.shape(), &[2, 2]);
    /// assert_eq!(s.data(), &[3., 4., 5., 6.]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Self> {
        if start > end || end > self.rows() {
            return Err(TensorError::InvalidParameter {
                message: format!(
                    "row slice {start}..{end} out of range for {} rows",
                    self.rows()
                ),
            });
        }
        let cols = self.cols();
        let mut shape = self.shape.clone();
        shape[0] = end - start;
        Tensor::from_vec(&shape, self.data[start * cols..end * cols].to_vec())
    }

    /// Gathers the given rows (in order, duplicates allowed) into a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if any index exceeds the row
    /// count.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Self> {
        let cols = self.cols();
        let rows = self.rows();
        let mut data = Vec::with_capacity(indices.len() * cols);
        for &idx in indices {
            if idx >= rows {
                return Err(TensorError::IndexOutOfBounds {
                    index: vec![idx],
                    shape: self.shape.clone(),
                });
            }
            data.extend_from_slice(self.row(idx));
        }
        let mut shape = self.shape.clone();
        shape[0] = indices.len();
        Tensor::from_vec(&shape, data)
    }

    /// Stacks two tensors along the first (row) dimension.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the trailing dimensions
    /// differ.
    pub fn concat_rows(&self, other: &Tensor) -> Result<Self> {
        if self.shape[1..] != other.shape[1..] {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
                op: "concat_rows",
            });
        }
        let mut shape = self.shape.clone();
        shape[0] += other.shape[0];
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Tensor::from_vec(&shape, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full(&[2, 2], 0.5).sum(), 2.0);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r = t.reshape(&[6]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[5]).is_err());
    }

    #[test]
    fn indexing_2d() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set2(0, 1, 3.0).unwrap();
        assert_eq!(t.at2(0, 1).unwrap(), 3.0);
        assert!(t.at2(2, 0).is_err());
        assert!(t.set2(0, 5, 1.0).is_err());
    }

    #[test]
    fn at2_requires_rank_2() {
        let t = Tensor::zeros(&[2, 2, 2]);
        assert!(matches!(t.at2(0, 0), Err(TensorError::RankMismatch { .. })));
    }

    #[test]
    fn row_access_and_slice() {
        let t = Tensor::from_vec(&[3, 2], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(t.row(1), &[3., 4.]);
        let s = t.slice_rows(0, 2).unwrap();
        assert_eq!(s.rows(), 2);
        assert!(t.slice_rows(2, 5).is_err());
    }

    #[test]
    fn select_rows_gathers_in_order() {
        let t = Tensor::from_vec(&[3, 2], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let g = t.select_rows(&[2, 0]).unwrap();
        assert_eq!(g.data(), &[5., 6., 1., 2.]);
        assert!(t.select_rows(&[7]).is_err());
    }

    #[test]
    fn concat_rows_stacks() {
        let a = Tensor::ones(&[1, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let c = a.concat_rows(&b).unwrap();
        assert_eq!(c.shape(), &[3, 3]);
        assert!(a.concat_rows(&Tensor::zeros(&[1, 4])).is_err());
    }

    #[test]
    fn cols_flattens_trailing_dims() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.cols(), 12);
        assert_eq!(t.rows(), 2);
    }

    #[test]
    fn default_is_empty() {
        assert!(Tensor::default().is_empty());
    }
}
