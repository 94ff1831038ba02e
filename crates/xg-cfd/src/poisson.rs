//! Pressure Poisson solver.
//!
//! Solves `∇²p = rhs` with homogeneous Neumann boundaries (and the
//! compatibility gauge fixed by subtracting the mean) using damped Jacobi
//! iteration. Jacobi is chosen over Gauss–Seidel deliberately: with double
//! buffering every sweep reads only the previous iterate, so each cell's
//! update depends on nothing computed in the same sweep and any split of
//! the z-slabs gives **bitwise identical** results. The sweep goes through
//! the `rayon` slab API, but the workspace's `vendor/rayon` stand-in runs
//! every slab sequentially on the calling thread, so the solve is
//! single-core today.
//!
//! The sweep is row-sliced: for each y-row it picks the four neighbour
//! rows once (a boundary row mirrors itself, the Neumann ghost), handles
//! `i = 0` and `i = nx − 1` apart, and runs the interior over plain
//! equal-length slices with no branches, which LLVM vectorises. The
//! max-abs update for the tolerance test is taken in a second pass over
//! each finished slab, with independent accumulators so the
//! compare-and-select is not one serial chain. Every cell evaluates the
//! same floating-point expression in the same order as the per-cell form
//! it replaced, so fields, residual and iteration count do not depend on
//! the slicing.

use crate::field::Field3;
use rayon::prelude::*;

/// Result of a Poisson solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonStats {
    /// Iterations executed.
    pub iterations: usize,
    /// Final max-abs residual.
    pub residual: f64,
}

/// Inverse squared cell sizes and the Jacobi diagonal of one solve.
#[derive(Debug, Clone, Copy)]
struct Stencil {
    idx2: f64,
    idy2: f64,
    idz2: f64,
    denom: f64,
}

impl Stencil {
    fn new(d: [f64; 3]) -> Self {
        let (idx2, idy2, idz2) = (
            1.0 / (d[0] * d[0]),
            1.0 / (d[1] * d[1]),
            1.0 / (d[2] * d[2]),
        );
        Stencil {
            idx2,
            idy2,
            idz2,
            denom: 2.0 * (idx2 + idy2 + idz2),
        }
    }

    /// The Jacobi update of one cell from its six neighbours.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn cell(&self, xm: f64, xp: f64, ym: f64, yp: f64, zm: f64, zp: f64, rhs: f64) -> f64 {
        ((xm + xp) * self.idx2 + (ym + yp) * self.idy2 + (zm + zp) * self.idz2 - rhs) / self.denom
    }
}

/// The larger of `d` and `m` as a compare-and-select. A NaN `d` never
/// wins, so a NaN update is skipped exactly as `f64::max` skips it.
#[inline(always)]
fn max_of(d: f64, m: f64) -> f64 {
    if d > m {
        d
    } else {
        m
    }
}

/// One Jacobi sweep of a y-row: writes `out` from the row `c`, its four
/// neighbour rows and `rhs`. All slices have the row's length `nx ≥ 1`.
#[allow(clippy::too_many_arguments)]
fn sweep_row(
    s: &Stencil,
    c: &[f64],
    ym: &[f64],
    yp: &[f64],
    zm: &[f64],
    zp: &[f64],
    rhs: &[f64],
    out: &mut [f64],
) {
    let nx = c.len();
    let edge = |i: usize, xm: f64, xp: f64| s.cell(xm, xp, ym[i], yp[i], zm[i], zp[i], rhs[i]);
    if nx == 1 {
        out[0] = edge(0, c[0], c[0]);
        return;
    }
    out[0] = edge(0, c[0], c[1]);
    out[nx - 1] = edge(nx - 1, c[nx - 2], c[nx - 1]);
    // Interior 1..nx-1: every slice re-cut to the same length so the
    // loop runs without bounds checks or branches.
    let n = nx - 2;
    let (xm, xp) = (&c[..n], &c[2..2 + n]);
    let (ym, yp, zm, zp) = (&ym[1..=n], &yp[1..=n], &zm[1..=n], &zp[1..=n]);
    let (rhs, out) = (&rhs[1..=n], &mut out[1..=n]);
    for i in 0..n {
        out[i] = s.cell(xm[i], xp[i], ym[i], yp[i], zm[i], zp[i], rhs[i]);
    }
}

/// `max |new − old|` over two equal-length slices. Eight independent
/// accumulators keep the compare-and-select off one serial dependency
/// chain; the maximum does not depend on the order it is taken in.
fn max_abs_delta(new: &[f64], old: &[f64]) -> f64 {
    const LANES: usize = 8;
    let (new_c, new_t) = new.as_chunks::<LANES>();
    let (old_c, old_t) = old.as_chunks::<LANES>();
    let mut acc = [0.0f64; LANES];
    for (a, b) in new_c.iter().zip(old_c) {
        for l in 0..LANES {
            acc[l] = max_of((a[l] - b[l]).abs(), acc[l]);
        }
    }
    let mut m = acc.into_iter().fold(0.0, |m, d| max_of(d, m));
    for (a, b) in new_t.iter().zip(old_t) {
        m = max_of((a - b).abs(), m);
    }
    m
}

/// Solve `∇²p = rhs` in place (p is the initial guess and the result).
///
/// `d` are the cell sizes; iterates until `max_iters` or the max-abs
/// update falls below `tol`.
pub fn solve(
    p: &mut Field3,
    rhs: &Field3,
    d: [f64; 3],
    max_iters: usize,
    tol: f64,
) -> PoissonStats {
    let (nx, ny, nz) = (p.nx, p.ny, p.nz);
    let slab = nx * ny;
    let s = Stencil::new(d);
    let mut next = p.clone();
    let mut stats = PoissonStats {
        iterations: 0,
        residual: f64::INFINITY,
    };
    for it in 0..max_iters {
        let cur = p.as_slice();
        let rhs_s = rhs.as_slice();
        // Over z-slabs; each slab writes only its own chunk.
        let max_delta = next
            .as_mut_slice()
            .par_chunks_mut(slab)
            .enumerate()
            .map(|(k, out)| {
                for (j, out_row) in out.chunks_mut(nx).enumerate() {
                    let r = (k * ny + j) * nx;
                    let row_at = |start: usize| &cur[start..start + nx];
                    // Neumann: a missing neighbour row mirrors the row.
                    let row = row_at(r);
                    let ym = if j > 0 { row_at(r - nx) } else { row };
                    let yp = if j + 1 < ny { row_at(r + nx) } else { row };
                    let zm = if k > 0 { row_at(r - slab) } else { row };
                    let zp = if k + 1 < nz { row_at(r + slab) } else { row };
                    sweep_row(&s, row, ym, yp, zm, zp, &rhs_s[r..r + nx], out_row);
                }
                max_abs_delta(out, &cur[k * slab..(k + 1) * slab])
            })
            // xg-lint: allow(float-reduce, max is associative and commutative; result is order-independent)
            .reduce(|| 0.0f64, f64::max);
        std::mem::swap(p, &mut next);
        stats.iterations = it + 1;
        stats.residual = max_delta;
        if max_delta < tol {
            break;
        }
    }
    // Fix the Neumann gauge: zero-mean pressure.
    let mean = p.mean();
    p.as_mut_slice().iter_mut().for_each(|x| *x -= mean);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-cell Jacobi solve the row-sliced kernel replaced: six
    /// boundary branches per cell. The oracle for [`solve`].
    fn solve_reference(
        p: &mut Field3,
        rhs: &Field3,
        d: [f64; 3],
        max_iters: usize,
        tol: f64,
    ) -> PoissonStats {
        let (nx, ny, nz) = (p.nx, p.ny, p.nz);
        let slab = nx * ny;
        let (idx2, idy2, idz2) = (
            1.0 / (d[0] * d[0]),
            1.0 / (d[1] * d[1]),
            1.0 / (d[2] * d[2]),
        );
        let denom = 2.0 * (idx2 + idy2 + idz2);
        let mut next = p.clone();
        let mut stats = PoissonStats {
            iterations: 0,
            residual: f64::INFINITY,
        };
        for it in 0..max_iters {
            let cur = p.as_slice();
            let rhs_s = rhs.as_slice();
            let out = next.as_mut_slice();
            let mut max_delta: f64 = 0.0;
            for k in 0..nz {
                for j in 0..ny {
                    for i in 0..nx {
                        let c = (k * ny + j) * nx + i;
                        let xm = if i > 0 { cur[c - 1] } else { cur[c] };
                        let xp = if i + 1 < nx { cur[c + 1] } else { cur[c] };
                        let ym = if j > 0 { cur[c - nx] } else { cur[c] };
                        let yp = if j + 1 < ny { cur[c + nx] } else { cur[c] };
                        let zm = if k > 0 { cur[c - slab] } else { cur[c] };
                        let zp = if k + 1 < nz { cur[c + slab] } else { cur[c] };
                        let val = ((xm + xp) * idx2 + (ym + yp) * idy2 + (zm + zp) * idz2
                            - rhs_s[c])
                            / denom;
                        max_delta = max_delta.max((val - cur[c]).abs());
                        out[c] = val;
                    }
                }
            }
            std::mem::swap(p, &mut next);
            stats.iterations = it + 1;
            stats.residual = max_delta;
            if max_delta < tol {
                break;
            }
        }
        let mean = p.mean();
        p.as_mut_slice().iter_mut().for_each(|x| *x -= mean);
        stats
    }

    /// A deterministic, non-symmetric initial guess and right-hand side.
    fn poisson_case(nx: usize, ny: usize, nz: usize) -> (Field3, Field3) {
        let mut p = Field3::zeros(nx, ny, nz);
        let mut rhs = Field3::zeros(nx, ny, nz);
        for (i, v) in p.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f64 * 0.377).cos();
        }
        for (i, v) in rhs.as_mut_slice().iter_mut().enumerate() {
            *v = ((i as f64 * 0.7312 + 0.5).sin() * 10.0).fract();
        }
        (p, rhs)
    }

    /// Run both kernels from the same start and demand bitwise-equal
    /// pressure, iteration count and residual.
    fn assert_poisson_matches_reference(
        dims: (usize, usize, usize),
        iters: usize,
        tol: f64,
    ) -> PoissonStats {
        let (nx, ny, nz) = dims;
        let d = [0.9, 1.3, 0.6];
        let (p0, rhs) = poisson_case(nx, ny, nz);
        let (mut fast, mut slow) = (p0.clone(), p0);
        let got = solve(&mut fast, &rhs, d, iters, tol);
        let want = solve_reference(&mut slow, &rhs, d, iters, tol);
        assert_eq!(got.iterations, want.iterations, "{dims:?} tol {tol}");
        assert_eq!(
            got.residual.to_bits(),
            want.residual.to_bits(),
            "{dims:?} tol {tol}: residual {} vs {}",
            got.residual,
            want.residual
        );
        let same = fast
            .as_slice()
            .iter()
            .zip(slow.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{dims:?} tol {tol}: pressure differs from reference");
        got
    }

    #[test]
    fn poisson_rows_match_reference_on_degenerate_shapes() {
        for dims in [(1, 1, 1), (1, 5, 3), (7, 1, 2), (2, 2, 2), (3, 4, 2)] {
            assert_poisson_matches_reference(dims, 9, 0.0);
        }
    }

    #[test]
    fn poisson_rows_match_reference_on_in_loop_mesh() {
        assert_poisson_matches_reference((48, 40, 10), 2, 0.0);
    }

    #[test]
    fn poisson_rows_match_reference_with_early_exit() {
        // A tolerance the solve crosses part-way: both kernels must stop
        // on the same iteration with the same residual.
        for dims in [(1, 1, 1), (1, 5, 3), (7, 1, 2), (2, 2, 2), (6, 5, 4)] {
            let (mut p, rhs) = poisson_case(dims.0, dims.1, dims.2);
            let full = solve_reference(&mut p, &rhs, [0.9, 1.3, 0.6], 40, 0.0);
            let tol = full.residual * 4.0;
            let stats = assert_poisson_matches_reference(dims, 40, tol);
            assert!(stats.iterations < 40, "{dims:?}: no early exit");
        }
    }

    /// Apply the discrete Neumann Laplacian to a field.
    fn laplacian(p: &Field3, d: [f64; 3]) -> Field3 {
        let (nx, ny, nz) = (p.nx, p.ny, p.nz);
        let mut out = Field3::zeros(nx, ny, nz);
        let (idx2, idy2, idz2) = (
            1.0 / (d[0] * d[0]),
            1.0 / (d[1] * d[1]),
            1.0 / (d[2] * d[2]),
        );
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = p.at(i, j, k);
                    let xm = if i > 0 { p.at(i - 1, j, k) } else { c };
                    let xp = if i + 1 < nx { p.at(i + 1, j, k) } else { c };
                    let ym = if j > 0 { p.at(i, j - 1, k) } else { c };
                    let yp = if j + 1 < ny { p.at(i, j + 1, k) } else { c };
                    let zm = if k > 0 { p.at(i, j, k - 1) } else { c };
                    let zp = if k + 1 < nz { p.at(i, j, k + 1) } else { c };
                    out.set(
                        i,
                        j,
                        k,
                        (xm + xp - 2.0 * c) * idx2
                            + (ym + yp - 2.0 * c) * idy2
                            + (zm + zp - 2.0 * c) * idz2,
                    );
                }
            }
        }
        out
    }

    #[test]
    fn solves_manufactured_problem() {
        // rhs = ∇² of a known zero-mean field; the solver must recover a
        // field whose Laplacian matches rhs.
        let (nx, ny, nz) = (16, 12, 8);
        let d = [1.0, 1.0, 1.0];
        let mut truth = Field3::zeros(nx, ny, nz);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let x = i as f64 / nx as f64;
                    let y = j as f64 / ny as f64;
                    let z = k as f64 / nz as f64;
                    truth.set(
                        i,
                        j,
                        k,
                        (std::f64::consts::PI * x).cos()
                            * (std::f64::consts::PI * y).cos()
                            * (0.5 * std::f64::consts::PI * z).cos(),
                    );
                }
            }
        }
        let rhs = laplacian(&truth, d);
        let mut p = Field3::zeros(nx, ny, nz);
        let stats = solve(&mut p, &rhs, d, 20_000, 1e-12);
        assert!(stats.residual < 1e-10, "residual {}", stats.residual);
        // Laplacian of the answer matches rhs.
        let lap = laplacian(&p, d);
        let mut max_err = 0.0f64;
        for (a, b) in lap.as_slice().iter().zip(rhs.as_slice()) {
            max_err = max_err.max((a - b).abs());
        }
        assert!(max_err < 1e-8, "max laplacian error {max_err}");
    }

    #[test]
    fn zero_rhs_gives_zero_mean_constant() {
        let rhs = Field3::zeros(8, 8, 4);
        let mut p = Field3::filled(8, 8, 4, 5.0);
        solve(&mut p, &rhs, [1.0, 1.0, 1.0], 100, 1e-12);
        // Constant field with the gauge removed: everything ~0.
        assert!(p.max_abs() < 1e-9);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (nx, ny, nz) = (12, 10, 6);
        let mut rhs = Field3::zeros(nx, ny, nz);
        for (i, v) in rhs.as_mut_slice().iter_mut().enumerate() {
            // Deterministic pseudo-random rhs.
            *v = ((i as f64 * 0.7312).sin() * 10.0).fract();
        }
        // Zero-mean rhs for compatibility.
        let mean = rhs.mean();
        rhs.as_mut_slice().iter_mut().for_each(|x| *x -= mean);

        let solve_with = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut p = Field3::zeros(nx, ny, nz);
            let rhs = rhs.clone();
            pool.install(|| solve(&mut p, &rhs, [1.0, 1.0, 1.0], 200, 0.0));
            p
        };
        let p1 = solve_with(1);
        let p4 = solve_with(4);
        assert_eq!(
            p1.as_slice(),
            p4.as_slice(),
            "Jacobi must be bitwise deterministic across thread counts"
        );
    }

    #[test]
    fn early_exit_on_tolerance() {
        let rhs = Field3::zeros(8, 8, 4);
        let mut p = Field3::zeros(8, 8, 4);
        let stats = solve(&mut p, &rhs, [1.0, 1.0, 1.0], 1000, 1e-9);
        assert!(stats.iterations < 10, "converged in {}", stats.iterations);
    }
}
