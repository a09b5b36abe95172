//! Incremental least-squares fits over running sums \[Drap81\].
//!
//! Section 3.1.1 of the paper is explicit that PMM keeps only the sums
//! `k, Σx, Σx², Σx³, Σx⁴, Σy, Σxy, Σx²y` for the quadratic miss-ratio
//! projection, and `k, Σx, Σx², Σu, Σxu` for the utilization line. These
//! types store exactly those sums, so adding an observation is O(1) and
//! resetting after a detected workload change is trivial.
//!
//! The normal equations are solved with Gaussian elimination with partial
//! pivoting; near-singular systems (e.g. all observations at the same MPL)
//! are reported as `None` rather than returning garbage coefficients.

/// Shape of a fitted quadratic over the observed x-range — the four curve
/// types of Section 3.1.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CurveShape {
    /// Type 1: bowl — has an interior minimum; adopt the vertex.
    Bowl,
    /// Type 2: monotonically decreasing over the observed range — the
    /// optimum lies above the largest MPL tried.
    Decreasing,
    /// Type 3: monotonically increasing — the optimum lies below the
    /// smallest MPL tried.
    Increasing,
    /// Type 4: hill — the projection failed; fall back to the RU heuristic.
    Hill,
}

/// Coefficients of `y = a + b·x + c·x²`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quadratic {
    /// Constant term.
    pub a: f64,
    /// Linear coefficient.
    pub b: f64,
    /// Quadratic coefficient.
    pub c: f64,
}

impl Quadratic {
    /// Evaluate the polynomial at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        self.a + self.b * x + self.c * x * x
    }

    /// x-coordinate of the vertex (minimum when `c > 0`). `None` if the
    /// curve is degenerate (`c ≈ 0`).
    pub fn vertex(&self) -> Option<f64> {
        if self.c.abs() < 1e-12 {
            None
        } else {
            Some(-self.b / (2.0 * self.c))
        }
    }

    /// Classify the curve over the observed x-range `[lo, hi]`.
    ///
    /// The classification follows the sign of the derivative `b + 2cx` at
    /// the range endpoints: negative→negative is decreasing (Type 2),
    /// positive→positive increasing (Type 3), negative→positive a bowl
    /// (Type 1), positive→negative a hill (Type 4).
    pub fn classify(&self, lo: f64, hi: f64) -> CurveShape {
        let slope_lo = self.b + 2.0 * self.c * lo;
        let slope_hi = self.b + 2.0 * self.c * hi;
        match (slope_lo >= 0.0, slope_hi >= 0.0) {
            (false, false) => CurveShape::Decreasing,
            (true, true) => CurveShape::Increasing,
            (false, true) => CurveShape::Bowl,
            (true, false) => CurveShape::Hill,
        }
    }
}

/// Incremental least-squares fit of a quadratic.
#[derive(Clone, Debug, Default)]
pub struct QuadFit {
    k: u64,
    sx: f64,
    sx2: f64,
    sx3: f64,
    sx4: f64,
    sy: f64,
    sxy: f64,
    sx2y: f64,
    min_x: f64,
    max_x: f64,
}

impl QuadFit {
    /// An empty fit.
    pub fn new() -> Self {
        QuadFit {
            min_x: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            ..Default::default()
        }
    }

    /// Add an `(x, y)` observation.
    pub fn add(&mut self, x: f64, y: f64) {
        self.k += 1;
        let x2 = x * x;
        self.sx += x;
        self.sx2 += x2;
        self.sx3 += x2 * x;
        self.sx4 += x2 * x2;
        self.sy += y;
        self.sxy += x * y;
        self.sx2y += x2 * y;
        self.min_x = self.min_x.min(x);
        self.max_x = self.max_x.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.k
    }

    /// Smallest x observed so far (`+∞` when empty).
    pub fn min_x(&self) -> f64 {
        self.min_x
    }

    /// Largest x observed so far (`-∞` when empty).
    pub fn max_x(&self) -> f64 {
        self.max_x
    }

    /// Discard all observations (PMM restart after a workload change).
    pub fn reset(&mut self) {
        *self = QuadFit::new();
    }

    /// Solve the normal equations. Returns `None` with fewer than three
    /// observations or a (near-)singular system — e.g. fewer than three
    /// distinct x values.
    pub fn solve(&self) -> Option<Quadratic> {
        if self.k < 3 {
            return None;
        }
        let k = self.k as f64;
        let mut m = [
            [k, self.sx, self.sx2, self.sy],
            [self.sx, self.sx2, self.sx3, self.sxy],
            [self.sx2, self.sx3, self.sx4, self.sx2y],
        ];
        let sol = solve3(&mut m)?;
        Some(Quadratic {
            a: sol[0],
            b: sol[1],
            c: sol[2],
        })
    }
}

/// Incremental least-squares straight line `y = a + b·x`.
#[derive(Clone, Debug, Default)]
pub struct LinFit {
    k: u64,
    sx: f64,
    sx2: f64,
    sy: f64,
    sxy: f64,
}

impl LinFit {
    /// An empty fit.
    pub fn new() -> Self {
        LinFit::default()
    }

    /// Add an `(x, y)` observation.
    pub fn add(&mut self, x: f64, y: f64) {
        self.k += 1;
        self.sx += x;
        self.sx2 += x * x;
        self.sy += y;
        self.sxy += x * y;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.k
    }

    /// Discard all observations.
    pub fn reset(&mut self) {
        *self = LinFit::default();
    }

    /// `(intercept, slope)` of the fitted line. With exactly one
    /// observation, or all x identical, returns a horizontal line through
    /// the mean of y (which is the minimum-norm least-squares answer and the
    /// natural behaviour for the RU heuristic: "the best estimate of the
    /// utilization at this MPL is the average of what we saw").
    pub fn solve(&self) -> Option<(f64, f64)> {
        if self.k == 0 {
            return None;
        }
        let k = self.k as f64;
        let det = k * self.sx2 - self.sx * self.sx;
        if det.abs() < 1e-9 * (1.0 + self.sx2) {
            return Some((self.sy / k, 0.0));
        }
        let slope = (k * self.sxy - self.sx * self.sy) / det;
        let intercept = (self.sy - slope * self.sx) / k;
        Some((intercept, slope))
    }

    /// Predicted y at `x` from the fitted line.
    pub fn predict(&self, x: f64) -> Option<f64> {
        let (a, b) = self.solve()?;
        Some(a + b * x)
    }
}

/// Gaussian elimination with partial pivoting for a 3×3 augmented system.
fn solve3(m: &mut [[f64; 4]; 3]) -> Option<[f64; 3]> {
    gauss::<3, 4>(m)
}

fn gauss<const N: usize, const M: usize>(m: &mut [[f64; M]; N]) -> Option<[f64; N]> {
    debug_assert_eq!(M, N + 1);
    for col in 0..N {
        // Partial pivot.
        let pivot_row = (col..N)
            .max_by(|&a, &b| {
                m[a][col]
                    .abs()
                    .partial_cmp(&m[b][col].abs())
                    .expect("sums are finite")
            })
            .expect("non-empty range");
        if m[pivot_row][col].abs() < 1e-9 {
            return None; // Singular / near-singular system.
        }
        m.swap(col, pivot_row);
        for row in (col + 1)..N {
            let factor = m[row][col] / m[col][col];
            let (pivot, rest) = m.split_at_mut(row);
            let pivot_row_vals = &pivot[col];
            for (c, cell) in rest[0].iter_mut().enumerate().skip(col) {
                *cell -= factor * pivot_row_vals[c];
            }
        }
    }
    let mut x = [0.0; N];
    for row in (0..N).rev() {
        let mut acc = m[row][N];
        for c in (row + 1)..N {
            acc -= m[row][c] * x[c];
        }
        x[row] = acc / m[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn quad_fit_recovers_exact_polynomial() {
        let mut fit = QuadFit::new();
        // y = 2 - 3x + 0.5 x^2
        for x in 1..=8 {
            let x = x as f64;
            fit.add(x, 2.0 - 3.0 * x + 0.5 * x * x);
        }
        let q = fit.solve().expect("solvable");
        assert_close(q.a, 2.0, 1e-8);
        assert_close(q.b, -3.0, 1e-8);
        assert_close(q.c, 0.5, 1e-8);
        assert_close(q.vertex().unwrap(), 3.0, 1e-8);
    }

    #[test]
    fn quad_fit_underdetermined_returns_none() {
        let mut fit = QuadFit::new();
        fit.add(1.0, 1.0);
        fit.add(2.0, 2.0);
        assert!(fit.solve().is_none());
        // Three points at only two distinct x values: singular.
        fit.add(2.0, 3.0);
        assert!(fit.solve().is_none());
    }

    #[test]
    fn quad_fit_least_squares_of_noisy_data() {
        // Residuals of the LS solution must be orthogonal to the design:
        // check the fitted curve beats small perturbations of itself.
        let pts: Vec<(f64, f64)> = vec![
            (2.0, 0.40),
            (4.0, 0.22),
            (6.0, 0.12),
            (8.0, 0.10),
            (10.0, 0.14),
            (12.0, 0.25),
        ];
        let mut fit = QuadFit::new();
        for &(x, y) in &pts {
            fit.add(x, y);
        }
        let q = fit.solve().unwrap();
        let sse = |quad: &Quadratic| -> f64 {
            pts.iter().map(|&(x, y)| (quad.eval(x) - y).powi(2)).sum()
        };
        let base = sse(&q);
        for da in [-1e-3, 1e-3] {
            let perturbed = Quadratic { a: q.a + da, ..q };
            assert!(sse(&perturbed) >= base);
            let perturbed = Quadratic { b: q.b + da, ..q };
            assert!(sse(&perturbed) >= base);
            let perturbed = Quadratic { c: q.c + da, ..q };
            assert!(sse(&perturbed) >= base);
        }
        // And it should look like a bowl with a vertex around x≈8.
        assert_eq!(q.classify(2.0, 12.0), CurveShape::Bowl);
        let v = q.vertex().unwrap();
        assert!((6.0..10.0).contains(&v), "vertex {v}");
    }

    #[test]
    fn classify_four_types() {
        // Bowl: minimum at x=5.
        let bowl = Quadratic {
            a: 25.0,
            b: -10.0,
            c: 1.0,
        };
        assert_eq!(bowl.classify(0.0, 10.0), CurveShape::Bowl);
        // Same curve seen only on its descending side: Type 2.
        assert_eq!(bowl.classify(0.0, 4.0), CurveShape::Decreasing);
        // Ascending side only: Type 3.
        assert_eq!(bowl.classify(6.0, 10.0), CurveShape::Increasing);
        // Hill.
        let hill = Quadratic {
            a: 0.0,
            b: 10.0,
            c: -1.0,
        };
        assert_eq!(hill.classify(0.0, 10.0), CurveShape::Hill);
    }

    #[test]
    fn classify_degenerate_linear() {
        let down = Quadratic {
            a: 1.0,
            b: -0.1,
            c: 0.0,
        };
        assert_eq!(down.classify(1.0, 9.0), CurveShape::Decreasing);
        let up = Quadratic {
            a: 0.0,
            b: 0.1,
            c: 0.0,
        };
        assert_eq!(up.classify(1.0, 9.0), CurveShape::Increasing);
    }

    #[test]
    fn quad_reset_clears_everything() {
        let mut fit = QuadFit::new();
        for x in 0..5 {
            fit.add(x as f64, 1.0);
        }
        fit.reset();
        assert_eq!(fit.count(), 0);
        assert!(fit.solve().is_none());
        assert!(fit.min_x().is_infinite());
    }

    #[test]
    fn lin_fit_recovers_line() {
        let mut fit = LinFit::new();
        for x in 0..10 {
            let x = x as f64;
            fit.add(x, 3.0 + 0.25 * x);
        }
        let (a, b) = fit.solve().unwrap();
        assert_close(a, 3.0, 1e-9);
        assert_close(b, 0.25, 1e-9);
        assert_close(fit.predict(20.0).unwrap(), 8.0, 1e-9);
    }

    #[test]
    fn lin_fit_single_point_is_horizontal() {
        let mut fit = LinFit::new();
        fit.add(4.0, 0.6);
        let (a, b) = fit.solve().unwrap();
        assert_close(a, 0.6, 1e-12);
        assert_close(b, 0.0, 1e-12);
        assert_close(fit.predict(100.0).unwrap(), 0.6, 1e-12);
    }

    #[test]
    fn lin_fit_identical_x_is_mean() {
        let mut fit = LinFit::new();
        fit.add(5.0, 0.4);
        fit.add(5.0, 0.6);
        let (a, b) = fit.solve().unwrap();
        assert_close(a, 0.5, 1e-12);
        assert_close(b, 0.0, 1e-12);
    }

    #[test]
    fn lin_fit_empty_is_none() {
        assert!(LinFit::new().solve().is_none());
    }

    #[test]
    fn gauss_rejects_singular() {
        let mut m = [
            [1.0, 2.0, 3.0, 1.0],
            [2.0, 4.0, 6.0, 2.0],
            [1.0, 1.0, 1.0, 1.0],
        ];
        assert!(solve3(&mut m).is_none());
    }

    #[test]
    fn paper_example_shape_sequence() {
        // Section 3.4: three points on the descending branch give a Type 2
        // curve; adding a fourth point past the optimum flips to Type 1.
        let mut fit = QuadFit::new();
        fit.add(2.0, 0.55); // point a (Max-mode realized MPL, high miss)
        fit.add(25.0, 0.35); // point b
        fit.add(32.0, 0.25); // point c
        let q = fit.solve().unwrap();
        assert_eq!(q.classify(fit.min_x(), fit.max_x()), CurveShape::Decreasing);

        fit.add(40.0, 0.45); // point d: past the optimum
        let q = fit.solve().unwrap();
        assert_eq!(q.classify(fit.min_x(), fit.max_x()), CurveShape::Bowl);
        let v = q.vertex().unwrap();
        assert!((20.0..36.0).contains(&v), "vertex {v}");
    }
}
