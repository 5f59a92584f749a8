use std::cell::RefCell;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::kernels::{self, Scratch};
use crate::ShapeError;

thread_local! {
    /// Pack buffer reused by the convenience (allocating-output) matmul
    /// entry points so repeated calls don't re-allocate panel space.
    /// Callers that want to own the buffer go through the `*_into`
    /// APIs with their own [`Scratch`].
    static LOCAL_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Dense, row-major `f64` matrix.
///
/// This is the workhorse type of the workspace: network weights, activation
/// batches, design matrices for OLS and the ADF test are all `Matrix` values.
///
/// Elementwise arithmetic is available both as panicking operators
/// (`&a + &b`) and as fallible `try_*` methods returning [`ShapeError`].
///
/// # Example
///
/// ```
/// use occusense_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
/// assert_eq!(a.shape(), (2, 3));
/// assert_eq!(a[(1, 2)], 6.0);
/// let t = a.transpose();
/// assert_eq!(t.shape(), (3, 2));
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Example
    ///
    /// ```
    /// use occusense_tensor::Matrix;
    /// let z = Matrix::zeros(2, 3);
    /// assert_eq!(z.sum(), 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates a `rows x cols` matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or if `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "row {i} has length {} but row 0 has length {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    ///
    /// # Example
    ///
    /// ```
    /// use occusense_tensor::Matrix;
    /// let m = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f64);
    /// assert_eq!(m[(1, 1)], 11.0);
    /// ```
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a single-row matrix from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Builds a single-column matrix from a slice.
    pub fn col_vector(values: &[f64]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns element `(r, c)` if in bounds.
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose of `self` into `out`, reshaping it as
    /// needed (allocation-free once `out` has enough capacity).
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.ensure_shape(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Reshapes the matrix to `rows x cols`, reusing the existing
    /// allocation when the capacity suffices. Element values after the
    /// call are unspecified — callers are expected to overwrite them.
    ///
    /// Returns `true` if the underlying buffer had to grow (i.e. the
    /// call heap-allocated); steady-state workspace code asserts this
    /// stays `false` after warm-up.
    pub fn ensure_shape(&mut self, rows: usize, cols: usize) -> bool {
        let needed = rows * cols;
        let grew = needed > self.data.capacity();
        self.data.resize(needed, 0.0);
        self.rows = rows;
        self.cols = cols;
        grew
    }

    /// Matrix product `self * rhs`.
    ///
    /// Runs on the register-tiled FMA kernel in [`crate::kernels`]:
    /// exactly reproducible (bitwise across batch sizes) and verified to tight tolerance against
    /// [`Matrix::matmul_naive`] — the original triple loop, kept as the
    /// reference oracle the kernels are property-tested against.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.try_matmul(rhs)
            .unwrap_or_else(|e| panic!("matmul: {e}"))
    }

    /// Fallible matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the inner dimensions disagree.
    pub fn try_matmul(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != rhs.rows {
            return Err(ShapeError::new("matmul", self.shape(), rhs.shape()));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        LOCAL_SCRATCH.with(|s| {
            kernels::gemm(
                self.rows,
                self.cols,
                rhs.cols,
                &self.data,
                &rhs.data,
                &mut out.data,
                &mut s.borrow_mut(),
            );
        });
        Ok(out)
    }

    /// Reference matrix product: the original i-k-j triple loop with a
    /// strictly ascending `k` accumulation per element. Kept as the
    /// oracle that every tiled/fused/parallel kernel is verified
    /// against to tight tolerance (the kernels accumulate in the same
    /// order but with fused multiply-adds, so only the per-step
    /// rounding differs). Not used on any hot path.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul_naive: inner dimensions {} vs {}",
            self.cols, rhs.rows
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps the inner accesses sequential for row-major data.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self * rhs` written into `out` (reshaped as needed) through
    /// `scratch` — the zero-allocation steady-state entry point.
    /// Bitwise identical to [`Matrix::matmul`] for every batch size.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix, scratch: &mut Scratch) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul_into: inner dimensions {} vs {}",
            self.cols, rhs.rows
        );
        if out.ensure_shape(self.rows, rhs.cols) {
            scratch.note_grow();
        }
        kernels::gemm(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
            scratch,
        );
    }

    /// `self * rhs^T` without the caller materialising the transpose
    /// (the kernel transposes `rhs` into its reusable scratch and runs
    /// the register-tiled FMA micro-kernel). This is the `δ · W^T`
    /// step of the dense backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        LOCAL_SCRATCH.with(|s| self.matmul_nt_into(rhs, &mut out, &mut s.borrow_mut()));
        out
    }

    /// [`Matrix::matmul_nt`] into a caller-owned output via `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix, scratch: &mut Scratch) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt: inner dimensions {} vs {}",
            self.cols, rhs.cols
        );
        if out.ensure_shape(self.rows, rhs.rows) {
            scratch.note_grow();
        }
        kernels::gemm_nt(
            self.rows,
            self.cols,
            rhs.rows,
            &self.data,
            &rhs.data,
            &mut out.data,
            scratch,
        );
    }

    /// `self^T * rhs` without materialising the transpose. This is the
    /// `x^T · δ` weight-gradient step of the dense backward pass;
    /// matches `self.transpose().matmul_naive(rhs)` to tight tolerance
    /// (same summation order, FMA rounding) and is exactly
    /// reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        LOCAL_SCRATCH.with(|s| self.matmul_tn_into(rhs, &mut out, &mut s.borrow_mut()));
        out
    }

    /// [`Matrix::matmul_tn`] into a caller-owned output via `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix, scratch: &mut Scratch) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: shared dimensions {} vs {}",
            self.rows, rhs.rows
        );
        if out.ensure_shape(self.cols, rhs.cols) {
            scratch.note_grow();
        }
        kernels::gemm_tn(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
            scratch,
        );
    }

    /// Matrix-vector product `self * v`.
    ///
    /// Runs on the unrolled dot kernel ([`kernels::gemv`]); see
    /// [`Matrix::matvec_into`] for the allocation-free variant used by
    /// the per-record serving path.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(v, &mut out);
        out
    }

    /// Matrix-vector product written into `out` (resized as needed;
    /// allocation-free once its capacity suffices).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec_into(&self, v: &[f64], out: &mut Vec<f64>) {
        assert_eq!(
            v.len(),
            self.cols,
            "matvec: vector length {} vs cols {}",
            v.len(),
            self.cols
        );
        out.resize(self.rows, 0.0);
        kernels::gemv(self.rows, self.cols, &self.data, v, out);
    }

    /// Elementwise sum, fallible.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes differ.
    pub fn try_add(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        self.try_zip_map(rhs, "add", |a, b| a + b)
    }

    /// Elementwise difference, fallible.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes differ.
    pub fn try_sub(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        self.try_zip_map(rhs, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product, fallible.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes differ.
    pub fn try_hadamard(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        self.try_zip_map(rhs, "hadamard", |a, b| a * b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.try_hadamard(rhs)
            .unwrap_or_else(|e| panic!("hadamard: {e}"))
    }

    /// Applies `f` to each element, producing a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to each element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two equal-shaped matrices elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes differ.
    pub fn try_zip_map(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix, ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::new(op, self.shape(), rhs.shape()));
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Multiplies every element by `k`.
    pub fn scale(&self, k: f64) -> Matrix {
        self.map(|x| x * k)
    }

    /// Adds `row` (a 1 x cols slice) to every row; used for bias broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn add_row_broadcast(&self, row: &[f64]) -> Matrix {
        assert_eq!(
            row.len(),
            self.cols,
            "broadcast row length {} vs cols {}",
            row.len(),
            self.cols
        );
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(row) {
                *o += b;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Column-wise sums as a vector of length `cols`.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        self.col_sums_into(&mut sums);
        sums
    }

    /// Column-wise sums written into `out` (resized as needed;
    /// allocation-free once its capacity suffices).
    pub fn col_sums_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for row in self.rows_iter() {
            for (s, &x) in out.iter_mut().zip(row) {
                *s += x;
            }
        }
    }

    /// Column-wise means as a vector of length `cols`.
    pub fn col_means(&self) -> Vec<f64> {
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        self.col_sums()
            .into_iter()
            .map(|s| s / self.rows as f64)
            .collect()
    }

    /// Maximum absolute element; `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Extracts the sub-matrix of the given rows (copying).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Copies the given rows into `out` (reshaped as needed;
    /// allocation-free once its capacity suffices). Used by the
    /// trainer's mini-batch gather so the step loop stops allocating.
    /// Returns `true` if `out` had to grow, like
    /// [`Matrix::ensure_shape`].
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) -> bool {
        let grew = out.ensure_shape(indices.len(), self.cols);
        for (dst, &i) in out.data.chunks_exact_mut(self.cols.max(1)).zip(indices) {
            dst.copy_from_slice(self.row(i));
        }
        grew
    }

    /// Extracts the sub-matrix of the given columns (copying).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        for &c in indices {
            assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        }
        let mut out = Matrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            let src = self.row(r);
            let dst = out.row_mut(r);
            for (d, &c) in dst.iter_mut().zip(indices) {
                *d = src[c];
            }
        }
        out
    }

    /// Horizontally concatenates `self` and `rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if row counts differ.
    pub fn try_hstack(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.rows != rhs.rows {
            return Err(ShapeError::new("hstack", self.shape(), rhs.shape()));
        }
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            let dst = out.row_mut(r);
            dst[..self.cols].copy_from_slice(self.row(r));
            dst[self.cols..].copy_from_slice(rhs.row(r));
        }
        Ok(out)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.try_add(rhs).unwrap_or_else(|e| panic!("add: {e}"))
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.try_sub(rhs).unwrap_or_else(|e| panic!("sub: {e}"))
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, k: f64) -> Matrix {
        self.scale(k)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "sub_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for (i, row) in self.rows_iter().enumerate() {
            if i >= max_rows {
                writeln!(f, "  ... ({} more rows)", self.rows - max_rows)?;
                break;
            }
            write!(f, "  [")?;
            for (j, x) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                if j >= 8 {
                    write!(f, "...")?;
                    break;
                }
                write!(f, "{x:.4}")?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn zeros_ones_filled() {
        assert_eq!(Matrix::zeros(2, 3).sum(), 0.0);
        assert_eq!(Matrix::ones(2, 3).sum(), 6.0);
        assert_eq!(Matrix::filled(2, 2, 2.5).sum(), 10.0);
    }

    #[test]
    fn identity_is_neutral_for_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        approx(c[(0, 0)], 58.0);
        approx(c[(0, 1)], 64.0);
        approx(c[(1, 0)], 139.0);
        approx(c[(1, 1)], 154.0);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.try_matmul(&b).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 7 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (5, 3));
        assert_eq!(a.transpose()[(4, 2)], a[(2, 4)]);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = [5.0, 6.0];
        let got = a.matvec(&v);
        let want = a.matmul(&Matrix::col_vector(&v));
        assert_eq!(got, want.col(0));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0], &[30.0, 40.0]]);
        assert_eq!((&a + &b)[(1, 1)], 44.0);
        assert_eq!((&b - &a)[(0, 0)], 9.0);
        assert_eq!(a.hadamard(&b)[(0, 1)], 40.0);
        assert_eq!((&a * 2.0)[(1, 0)], 6.0);
        assert_eq!((-&a)[(0, 0)], -1.0);
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut a = Matrix::ones(2, 2);
        let b = Matrix::filled(2, 2, 3.0);
        a += &b;
        assert_eq!(a.sum(), 16.0);
        a -= &b;
        assert_eq!(a.sum(), 4.0);
    }

    #[test]
    fn broadcasting_bias_row() {
        let a = Matrix::zeros(3, 2);
        let out = a.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(out.col_sums(), vec![3.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[&[1.0, -5.0], &[2.0, 2.0]]);
        approx(a.sum(), 0.0);
        approx(a.mean(), 0.0);
        approx(a.max_abs(), 5.0);
        approx(a.frobenius_norm(), (1.0f64 + 25.0 + 4.0 + 4.0).sqrt());
        assert_eq!(a.col_means(), vec![1.5, -1.5]);
    }

    #[test]
    fn row_col_accessors() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0, 7.0]);
        assert_eq!(a.col(2), vec![2.0, 6.0, 10.0]);
        assert_eq!(a.get(2, 3), Some(11.0));
        assert_eq!(a.get(3, 0), None);
        assert_eq!(a.get(0, 4), None);
    }

    #[test]
    fn select_rows_and_cols() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f64);
        let rows = a.select_rows(&[0, 2]);
        assert_eq!(rows.shape(), (2, 3));
        assert_eq!(rows.row(1), &[6.0, 7.0, 8.0]);
        let cols = a.select_cols(&[2, 0]);
        assert_eq!(cols.shape(), (4, 2));
        assert_eq!(cols.row(1), &[5.0, 3.0]);
    }

    #[test]
    fn hstack_concatenates() {
        let a = Matrix::ones(2, 2);
        let b = Matrix::zeros(2, 1);
        let c = a.try_hstack(&b).expect("compatible");
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 1.0, 0.0]);
        assert!(a.try_hstack(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn map_and_map_inplace() {
        let a = Matrix::from_rows(&[&[1.0, 4.0]]);
        assert_eq!(a.map(f64::sqrt).row(0), &[1.0, 2.0]);
        let mut b = a.clone();
        b.map_inplace(|x| x + 1.0);
        assert_eq!(b.row(0), &[2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a[(2, 0)];
    }

    #[test]
    fn debug_format_is_not_empty() {
        let a = Matrix::from_fn(10, 10, |r, c| (r + c) as f64);
        let s = format!("{a:?}");
        assert!(s.contains("Matrix 10x10"));
        assert!(s.contains("more rows"));
    }

    #[test]
    fn rows_iter_on_empty_matrix() {
        let a = Matrix::zeros(0, 0);
        assert_eq!(a.rows_iter().count(), 0);
        assert!(a.is_empty());
        assert_eq!(a.mean(), 0.0);
    }
}
