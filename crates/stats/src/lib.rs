//! `stats` — the statistical toolkit PMM is built on.
//!
//! The paper uses three pieces of classical statistics, all of which are
//! implemented here from scratch:
//!
//! 1. **Least-squares polynomial fits** \[Drap81\] over *running sums*: PMM
//!    never stores individual `(MPL, miss-ratio)` observations, only the
//!    sums `k, Σx, Σx², Σx³, Σx⁴, Σy, Σxy, Σx²y` (Section 3.1.1) and the
//!    corresponding first-order sums for the utilization line
//!    (Section 3.1.2). [`fit::QuadFit`] and [`fit::LinFit`] mirror that
//!    representation exactly.
//! 2. **Curve-shape classification** (Types 1–4 of Section 3.1.1), in
//!    [`fit::CurveShape`].
//! 3. **Large-sample hypothesis tests** \[Devo91\] at a configurable
//!    confidence level, used for the Max→MinMax switching conditions
//!    (`AdaptConfLevel`, 95%) and workload-change detection
//!    (`ChangeConfLevel`, 99%). See [`hypothesis`].

pub mod fit;
pub mod hypothesis;
pub mod normal;

pub use fit::{CurveShape, LinFit, QuadFit};
pub use hypothesis::{mean_positive_test, means_differ_test, SampleSummary};
pub use normal::{cdf as normal_cdf, inverse_cdf as normal_inverse_cdf};
