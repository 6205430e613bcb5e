package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when Cholesky factorization fails
// even after the maximum jitter has been applied.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L with A = L Lᵀ, plus the
// jitter that had to be added to the diagonal to make A numerically
// positive definite.
//
// The factor supports four incremental operations used by the GP hot
// path (see the package comment): Extend appends one row/column,
// Shrink drops trailing rows/columns, and Update/Downdate apply
// symmetric rank-1 modifications A ± vvᵀ. All of them cost O(n²)
// against the O(n³) of a fresh factorization.
type Cholesky struct {
	L *Matrix
	// Jitter is the diagonal jitter the factorization actually used.
	// Extend adds the same jitter to the appended diagonal entry, so an
	// incrementally grown factor agrees bit-for-bit with a batch
	// factorization at that jitter (NewCholeskyWithJitter).
	Jitter float64
}

// NewCholesky factorizes the symmetric matrix a. If the plain
// factorization fails it retries with exponentially growing diagonal
// jitter starting at 1e-10 times the mean diagonal, up to maxTries
// doublings — the standard trick for GP kernel matrices that are
// positive semi-definite up to rounding.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	c := &Cholesky{}
	if err := c.Refactor(a); err != nil {
		return nil, err
	}
	return c, nil
}

// Refactor is NewCholesky into an existing factor: it factorizes a
// (with the same jitter escalation) into c, reusing c.L's storage when
// it is already a.Rows×a.Rows. Callers that refit the same n
// repeatedly — hyperparameter slice sampling refactors one GP hundreds
// of times — then allocate nothing per factorization. The result is
// bit-identical to NewCholesky(a), upper triangle zero included. On
// failure c holds no factor (c.L is nil).
func (c *Cholesky) Refactor(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	meanDiag := 0.0
	for i := 0; i < n; i++ {
		meanDiag += a.At(i, i)
	}
	if n > 0 {
		meanDiag /= float64(n)
	}
	if meanDiag <= 0 {
		meanDiag = 1
	}
	if c.L == nil || c.L.Rows != n || c.L.Cols != n {
		c.L = NewMatrix(n, n)
	}

	const maxTries = 12
	jitter := 0.0
	for try := 0; try <= maxTries; try++ {
		if tryCholesky(a, jitter, c.L) {
			c.Jitter = jitter
			return nil
		}
		if jitter == 0 {
			jitter = 1e-10 * meanDiag
		} else {
			jitter *= 10
		}
	}
	c.L = nil
	return ErrNotPositiveDefinite
}

// NewCholeskyWithJitter factorizes a with exactly the given diagonal
// jitter — no escalation. It is the batch counterpart of Extend: a
// factor grown row by row from a smaller one at jitter j is
// bit-identical to NewCholeskyWithJitter of the full matrix at j.
func NewCholeskyWithJitter(a *Matrix, jitter float64) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	l := NewMatrix(a.Rows, a.Rows)
	if !tryCholesky(a, jitter, l) {
		return nil, ErrNotPositiveDefinite
	}
	return &Cholesky{L: l, Jitter: jitter}, nil
}

// Extend appends one row/column to the factored matrix: row holds the
// off-diagonal entries a(n, 0..n-1) of the new row and diag the new
// diagonal entry a(n, n), both of the raw matrix — the factor's
// recorded jitter is added to diag internally, keeping incremental and
// batch factorizations on the same effective matrix.
//
// The appended row is computed with the same operations in the same
// order as tryCholesky would use for the last row of a full
// factorization, so on success the result is bit-identical to
// refactorizing the whole (n+1)×(n+1) matrix at the same jitter, for
// O(n²) instead of O(n³). It fails with ErrNotPositiveDefinite when
// the extended matrix is not positive definite at the recorded jitter;
// the factor is left unchanged and the caller should refactorize in
// full (typically with jitter escalation).
func (c *Cholesky) Extend(row []float64, diag float64) error {
	n := c.L.Rows
	if len(row) != n {
		return fmt.Errorf("linalg: extend row len %d vs %d", len(row), n)
	}
	var y []float64
	if n > 0 {
		y = c.ForwardSolve(row)
	}
	d := diag + c.Jitter
	for _, v := range y {
		d -= v * v
	}
	if d <= 0 || math.IsNaN(d) {
		return ErrNotPositiveDefinite
	}
	m := n + 1
	l := NewMatrix(m, m)
	for i := 0; i < n; i++ {
		copy(l.Data[i*m:i*m+n], c.L.Data[i*n:(i+1)*n])
	}
	copy(l.Data[n*m:n*m+n], y)
	l.Data[n*m+n] = math.Sqrt(d)
	c.L = l
	return nil
}

// Shrink truncates the factor to its leading m×m block, undoing the
// most recent n−m Extend calls exactly: the retained entries are
// bit-identical to what they were before those appends. This is the
// constant-liar retraction path — fantasy points are always appended
// last, so dropping them is a trailing downdate.
func (c *Cholesky) Shrink(m int) error {
	n := c.L.Rows
	if m < 0 || m > n {
		return fmt.Errorf("linalg: shrink to %d rows from %d", m, n)
	}
	if m == n {
		return nil
	}
	l := NewMatrix(m, m)
	for i := 0; i < m; i++ {
		copy(l.Data[i*m:(i+1)*m], c.L.Data[i*n:i*n+m])
	}
	c.L = l
	return nil
}

// Update applies the symmetric rank-1 update A → A + vvᵀ to the
// factorization in place, in O(n²) (the LINPACK dchud scheme). v is
// not modified. An update of a positive-definite matrix cannot lose
// positive definiteness, so Update always succeeds.
func (c *Cholesky) Update(v []float64) {
	n := c.L.Rows
	if len(v) != n {
		panic(fmt.Sprintf("linalg: update vector len %d vs %d", len(v), n))
	}
	w := append([]float64(nil), v...)
	l := c.L.Data
	for k := 0; k < n; k++ {
		lkk := l[k*n+k]
		r := math.Hypot(lkk, w[k])
		cos := r / lkk
		sin := w[k] / lkk
		l[k*n+k] = r
		for i := k + 1; i < n; i++ {
			l[i*n+k] = (l[i*n+k] + sin*w[i]) / cos
			w[i] = cos*w[i] - sin*l[i*n+k]
		}
	}
}

// Downdate applies the symmetric rank-1 downdate A → A − vvᵀ in
// O(n²). It fails with ErrNotPositiveDefinite when the downdated
// matrix would not be positive definite; the factor is left unchanged
// in that case (the rotation runs against a scratch copy and only
// commits on success).
func (c *Cholesky) Downdate(v []float64) error {
	n := c.L.Rows
	if len(v) != n {
		return fmt.Errorf("linalg: downdate vector len %d vs %d", len(v), n)
	}
	w := append([]float64(nil), v...)
	l := append([]float64(nil), c.L.Data...)
	for k := 0; k < n; k++ {
		lkk := l[k*n+k]
		d := (lkk - w[k]) * (lkk + w[k])
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		r := math.Sqrt(d)
		cos := r / lkk
		sin := w[k] / lkk
		l[k*n+k] = r
		for i := k + 1; i < n; i++ {
			l[i*n+k] = (l[i*n+k] - sin*w[i]) / cos
			w[i] = cos*w[i] - sin*l[i*n+k]
		}
	}
	copy(c.L.Data, l)
	return nil
}

// tryCholesky factorizes a + jitter·I into l (n×n, any prior
// contents), reporting false when a pivot is not positive. Column j's
// sub-diagonal rows are computed four per pass: the rows share row j
// of L, and each keeps its own left-to-right subtraction chain, so the
// result is bitwise that of computing one row at a time while four
// independent chains hide the subtraction latency.
func tryCholesky(a *Matrix, jitter float64, l *Matrix) bool {
	n := a.Rows
	ad, ld := a.Data, l.Data
	for j := 0; j < n; j++ {
		lj := ld[j*n : j*n+j]
		d := ad[j*n+j] + jitter
		for _, v := range lj {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return false
		}
		ljj := math.Sqrt(d)
		ld[j*n+j] = ljj
		clear(ld[j*n+j+1 : (j+1)*n])
		i := j + 1
		for ; i+4 <= n; i += 4 {
			l0 := ld[i*n:][:len(lj)]
			l1 := ld[(i+1)*n:][:len(lj)]
			l2 := ld[(i+2)*n:][:len(lj)]
			l3 := ld[(i+3)*n:][:len(lj)]
			s0, s1, s2, s3 := ad[i*n+j], ad[(i+1)*n+j], ad[(i+2)*n+j], ad[(i+3)*n+j]
			for k, v := range lj {
				s0 -= l0[k] * v
				s1 -= l1[k] * v
				s2 -= l2[k] * v
				s3 -= l3[k] * v
			}
			ld[i*n+j] = s0 / ljj
			ld[(i+1)*n+j] = s1 / ljj
			ld[(i+2)*n+j] = s2 / ljj
			ld[(i+3)*n+j] = s3 / ljj
		}
		for ; i < n; i++ {
			s := ad[i*n+j]
			li := ld[i*n:][:len(lj)]
			for k, v := range lj {
				s -= li[k] * v
			}
			ld[i*n+j] = s / ljj
		}
	}
	return true
}

// SolveVec solves A x = b given the factorization, returning x.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	y := c.ForwardSolve(b)
	return c.BackSolve(y)
}

// ForwardSolve solves L y = b.
func (c *Cholesky) ForwardSolve(b []float64) []float64 {
	return c.ForwardSolveInto(make([]float64, c.L.Rows), b)
}

// ForwardSolveInto solves L y = b into dst (which must not alias b)
// and returns it. The allocation-free variant of ForwardSolve for
// per-candidate posterior variance in the acquisition scorer.
func (c *Cholesky) ForwardSolveInto(dst, b []float64) []float64 {
	n := c.L.Rows
	if len(b) != n || len(dst) != n {
		panic(fmt.Sprintf("linalg: forward solve len %d/%d vs %d", len(dst), len(b), n))
	}
	for i := 0; i < n; i++ {
		s := b[i]
		row := c.L.Data[i*n : i*n+i]
		for k, lik := range row {
			s -= lik * dst[k]
		}
		dst[i] = s / c.L.Data[i*n+i]
	}
	return dst
}

// ForwardSolve4Into solves L y = b for four right-hand sides at once,
// y_c into dst[c] (no dst[c] may alias any b[c'] or another dst). The
// four recurrences share each row of L and run interleaved, which
// hides the latency of the dependent subtraction chain a single solve
// is bound by. Each column keeps ForwardSolveInto's operation order, so
// dst[c] is bitwise what ForwardSolveInto(dst[c], b[c]) produces — the
// lane contract the blocked acquisition scorer relies on.
func (c *Cholesky) ForwardSolve4Into(dst, b [4][]float64) {
	n := c.L.Rows
	for q := range dst {
		if len(b[q]) != n || len(dst[q]) != n {
			panic(fmt.Sprintf("linalg: forward solve lane %d len %d/%d vs %d", q, len(dst[q]), len(b[q]), n))
		}
	}
	for q := range dst {
		copy(dst[q], b[q])
	}
	d0, d1, d2, d3 := dst[0], dst[1], dst[2], dst[3]
	for i := 0; i < n; i++ {
		row := c.L.Data[i*n : i*n+i+1]
		y0, y1, y2, y3 := d0[:len(row)], d1[:len(row)], d2[:len(row)], d3[:len(row)]
		s0, s1, s2, s3 := y0[i], y1[i], y2[i], y3[i]
		for k, lik := range row[:i] {
			s0 -= lik * y0[k]
			s1 -= lik * y1[k]
			s2 -= lik * y2[k]
			s3 -= lik * y3[k]
		}
		lii := row[i]
		y0[i] = s0 / lii
		y1[i] = s1 / lii
		y2[i] = s2 / lii
		y3[i] = s3 / lii
	}
}

// BackSolve solves Lᵀ x = y.
func (c *Cholesky) BackSolve(y []float64) []float64 {
	return c.BackSolveInto(make([]float64, c.L.Rows), y)
}

// BackSolveInto solves Lᵀ x = y into dst (which must not alias y) and
// returns it.
func (c *Cholesky) BackSolveInto(dst, y []float64) []float64 {
	n := c.L.Rows
	if len(y) != n || len(dst) != n {
		panic(fmt.Sprintf("linalg: back solve len %d/%d vs %d", len(dst), len(y), n))
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= c.L.Data[k*n+i] * dst[k]
		}
		dst[i] = s / c.L.Data[i*n+i]
	}
	return dst
}

// LogDet returns log|A| = 2 Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	n := c.L.Rows
	s := 0.0
	for i := 0; i < n; i++ {
		s += math.Log(c.L.Data[i*n+i])
	}
	return 2 * s
}

// SolveMatrix solves A X = B column by column.
func (c *Cholesky) SolveMatrix(b *Matrix) *Matrix {
	if b.Rows != c.L.Rows {
		panic("linalg: SolveMatrix dim mismatch")
	}
	out := NewMatrix(b.Rows, b.Cols)
	col := make([]float64, b.Rows)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < b.Rows; i++ {
			col[i] = b.At(i, j)
		}
		x := c.SolveVec(col)
		for i := 0; i < b.Rows; i++ {
			out.Set(i, j, x[i])
		}
	}
	return out
}
