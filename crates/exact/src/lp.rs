//! A small dense linear-programming solver (two-phase primal simplex).
//!
//! The placement IP of [`crate::ilp`] needs its LP relaxation solved
//! exactly: `n·m + 1` variables, `n` assignment equalities and `2m`
//! budget rows. At that scale a dense tableau with Bland's anti-cycling
//! rule is simple, dependency-free, and fast enough; this is *not* a
//! general-purpose LP code and stays deliberately small.
//!
//! Problems are stated over non-negative variables:
//!
//! ```text
//! minimize  cᵀx   subject to   Aᵢx {=, ≤, ≥} bᵢ,   x ≥ 0.
//! ```

/// Relation of one constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// Equality row `a·x = b`.
    Eq,
    /// Upper-bound row `a·x ≤ b`.
    Le,
    /// Lower-bound row `a·x ≥ b`.
    Ge,
}

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal basic solution was found.
    Optimal(LpSolution),
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
    /// The pivot budget ran out before optimality was proven.
    PivotLimit,
}

/// An optimal LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// The optimal objective value `cᵀx`.
    pub objective: f64,
    /// The optimal point, indexed like the structural variables.
    pub x: Vec<f64>,
}

/// A linear program under construction.
#[derive(Debug, Clone)]
pub struct LpProblem {
    n: usize,
    objective: Vec<f64>,
    rows: Vec<(Vec<f64>, Rel, f64)>,
}

const EPS: f64 = 1e-9;

impl LpProblem {
    /// An empty program over `n` non-negative variables (zero objective).
    pub fn new(n: usize) -> Self {
        LpProblem {
            n,
            objective: vec![0.0; n],
            rows: Vec::new(),
        }
    }

    /// Sets the (minimization) objective vector.
    ///
    /// # Panics
    /// Panics if `c.len() != n`.
    pub fn set_objective(&mut self, c: Vec<f64>) {
        assert_eq!(c.len(), self.n, "objective length mismatch");
        self.objective = c;
    }

    /// Adds one constraint row.
    ///
    /// # Panics
    /// Panics if `coeffs.len() != n` or `rhs` is not finite.
    pub fn add_row(&mut self, coeffs: Vec<f64>, rel: Rel, rhs: f64) {
        assert_eq!(coeffs.len(), self.n, "row length mismatch");
        assert!(rhs.is_finite(), "rhs must be finite");
        self.rows.push((coeffs, rel, rhs));
    }

    /// Number of structural variables.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of constraint rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Solves the program with at most `max_pivots` simplex pivots.
    pub fn solve(&self, max_pivots: usize) -> LpOutcome {
        Tableau::build(self).solve(max_pivots)
    }
}

/// Dense simplex tableau. Column layout: structural variables, then one
/// slack/surplus per inequality row, then one artificial per `Eq`/`Ge`
/// row; the right-hand side is kept separately.
struct Tableau {
    a: Vec<Vec<f64>>,
    rhs: Vec<f64>,
    basis: Vec<usize>,
    z: Vec<f64>,
    zval: f64,
    obj: Vec<f64>,
    n_struct: usize,
    art_start: usize,
    cols: usize,
}

impl Tableau {
    fn build(p: &LpProblem) -> Tableau {
        let m = p.rows.len();
        // Normalize rows to b ≥ 0 first, then count slacks/artificials on
        // the *normalized* relations (a flipped `Le` becomes `Ge`).
        let mut norm: Vec<(Vec<f64>, Rel, f64)> = Vec::with_capacity(m);
        for (coeffs, rel, rhs) in &p.rows {
            if *rhs < 0.0 {
                let flipped = match rel {
                    Rel::Eq => Rel::Eq,
                    Rel::Le => Rel::Ge,
                    Rel::Ge => Rel::Le,
                };
                norm.push((coeffs.iter().map(|v| -v).collect(), flipped, -rhs));
            } else {
                norm.push((coeffs.clone(), *rel, *rhs));
            }
        }
        let n_slack = norm.iter().filter(|r| r.1 != Rel::Eq).count();
        let n_art = norm.iter().filter(|r| r.1 != Rel::Le).count();
        let art_start = p.n + n_slack;
        let cols = art_start + n_art;

        let mut a = vec![vec![0.0; cols]; m];
        let mut rhs = vec![0.0; m];
        let mut basis = vec![0usize; m];
        let (mut s, mut t) = (p.n, art_start);
        for (i, (coeffs, rel, b)) in norm.into_iter().enumerate() {
            a[i][..p.n].copy_from_slice(&coeffs);
            rhs[i] = b;
            match rel {
                Rel::Le => {
                    a[i][s] = 1.0;
                    basis[i] = s;
                    s += 1;
                }
                Rel::Ge => {
                    a[i][s] = -1.0;
                    s += 1;
                    a[i][t] = 1.0;
                    basis[i] = t;
                    t += 1;
                }
                Rel::Eq => {
                    a[i][t] = 1.0;
                    basis[i] = t;
                    t += 1;
                }
            }
        }
        Tableau {
            a,
            rhs,
            basis,
            z: vec![0.0; cols],
            zval: 0.0,
            obj: p.objective.clone(),
            n_struct: p.n,
            art_start,
            cols,
        }
    }

    /// Loads reduced costs for cost vector `c` (length `cols`), pricing
    /// out the current basis; afterwards `zval` is the objective value of
    /// the current basic solution.
    fn price(&mut self, c: &[f64]) {
        self.z.copy_from_slice(c);
        self.zval = 0.0;
        for i in 0..self.a.len() {
            let cb = c[self.basis[i]];
            if cb != 0.0 {
                for j in 0..self.cols {
                    self.z[j] -= cb * self.a[i][j];
                }
                self.zval += cb * self.rhs[i];
            }
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let piv = self.a[row][col];
        for v in self.a[row].iter_mut() {
            *v /= piv;
        }
        self.rhs[row] /= piv;
        for i in 0..self.a.len() {
            if i != row && self.a[i][col] != 0.0 {
                let f = self.a[i][col];
                for j in 0..self.cols {
                    self.a[i][j] -= f * self.a[row][j];
                }
                self.a[i][col] = 0.0;
                self.rhs[i] -= f * self.rhs[row];
                if self.rhs[i] < 0.0 && self.rhs[i] > -EPS {
                    self.rhs[i] = 0.0;
                }
            }
        }
        let f = self.z[col];
        if f != 0.0 {
            for j in 0..self.cols {
                self.z[j] -= f * self.a[row][j];
            }
            self.z[col] = 0.0;
            self.zval += f * self.rhs[row];
        }
        self.basis[row] = col;
    }

    /// Runs primal simplex with Bland's rule on the current reduced
    /// costs; `allow_art` admits artificial columns as entering.
    /// Returns `Some(true)` on optimality, `Some(false)` on
    /// unboundedness, `None` if the pivot budget ran out.
    fn iterate(&mut self, budget: &mut usize, allow_art: bool) -> Option<bool> {
        let limit = if allow_art { self.cols } else { self.art_start };
        loop {
            // Bland: smallest-index column with negative reduced cost.
            let Some(e) = (0..limit).find(|&j| self.z[j] < -EPS) else {
                return Some(true);
            };
            // Ratio test; ties broken by smallest basis index (Bland).
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..self.a.len() {
                if self.a[i][e] > EPS {
                    let ratio = self.rhs[i] / self.a[i][e];
                    let better = match leave {
                        None => true,
                        Some((li, lr)) => {
                            ratio < lr - EPS || (ratio < lr + EPS && self.basis[i] < self.basis[li])
                        }
                    };
                    if better {
                        leave = Some((i, ratio));
                    }
                }
            }
            let Some((r, _)) = leave else {
                return Some(false);
            };
            if *budget == 0 {
                return None;
            }
            *budget -= 1;
            self.pivot(r, e);
        }
    }

    fn solve(mut self, max_pivots: usize) -> LpOutcome {
        let mut budget = max_pivots;
        // Phase 1: minimize the sum of artificials.
        if self.art_start < self.cols {
            let mut c1 = vec![0.0; self.cols];
            for slot in c1.iter_mut().skip(self.art_start) {
                *slot = 1.0;
            }
            self.price(&c1);
            match self.iterate(&mut budget, true) {
                None => return LpOutcome::PivotLimit,
                // Phase-1 objective is bounded below by 0, so simplex
                // cannot report unboundedness here.
                Some(false) => return LpOutcome::Infeasible,
                Some(true) => {}
            }
            if self.zval > 1e-7 {
                return LpOutcome::Infeasible;
            }
            // Drive any remaining (zero-valued) artificial out of the
            // basis so phase 2 can never push it positive again. A row
            // with no real pivot column is redundant: its artificial
            // stays basic at 0 and the row can never activate.
            for i in 0..self.a.len() {
                if self.basis[i] >= self.art_start {
                    if let Some(j) = (0..self.art_start).find(|&j| self.a[i][j].abs() > EPS) {
                        self.pivot(i, j);
                    }
                }
            }
        }
        // Phase 2: the real objective, artificial columns barred.
        let mut c2 = vec![0.0; self.cols];
        c2[..self.n_struct].copy_from_slice(&self.obj);
        self.price(&c2);
        match self.iterate(&mut budget, false) {
            None => LpOutcome::PivotLimit,
            Some(false) => LpOutcome::Unbounded,
            Some(true) => {
                let mut x = vec![0.0; self.n_struct];
                for i in 0..self.a.len() {
                    if self.basis[i] < self.n_struct {
                        x[self.basis[i]] = self.rhs[i].max(0.0);
                    }
                }
                LpOutcome::Optimal(LpSolution {
                    objective: self.zval,
                    x,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn optimal(o: LpOutcome) -> LpSolution {
        match o {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn simple_bounded_max() {
        // min -x - y  s.t.  x + y ≤ 4, x ≤ 2  →  x = 2, y = 2, obj -4.
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![-1.0, -1.0]);
        lp.add_row(vec![1.0, 1.0], Rel::Le, 4.0);
        lp.add_row(vec![1.0, 0.0], Rel::Le, 2.0);
        let s = optimal(lp.solve(1000));
        assert!((s.objective + 4.0).abs() < 1e-9, "obj {}", s.objective);
        assert!((s.x[0] - 2.0).abs() < 1e-9 && (s.x[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn equality_rows_via_phase1() {
        // min x + 2y  s.t.  x + y = 3, y ≥ 1  →  x = 2, y = 1, obj 4.
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![1.0, 2.0]);
        lp.add_row(vec![1.0, 1.0], Rel::Eq, 3.0);
        lp.add_row(vec![0.0, 1.0], Rel::Ge, 1.0);
        let s = optimal(lp.solve(1000));
        assert!((s.objective - 4.0).abs() < 1e-9, "obj {}", s.objective);
        assert!((s.x[0] - 2.0).abs() < 1e-9 && (s.x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn detects_infeasible() {
        // x ≤ 1 and x ≥ 2 cannot both hold.
        let mut lp = LpProblem::new(1);
        lp.add_row(vec![1.0], Rel::Le, 1.0);
        lp.add_row(vec![1.0], Rel::Ge, 2.0);
        assert_eq!(lp.solve(1000), LpOutcome::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        // min -x with only x ≥ 0: unbounded below.
        let mut lp = LpProblem::new(1);
        lp.set_objective(vec![-1.0]);
        lp.add_row(vec![1.0], Rel::Ge, 0.0);
        assert_eq!(lp.solve(1000), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // -x ≤ -2  ⇔  x ≥ 2; min x → 2.
        let mut lp = LpProblem::new(1);
        lp.set_objective(vec![1.0]);
        lp.add_row(vec![-1.0], Rel::Le, -2.0);
        let s = optimal(lp.solve(1000));
        assert!((s.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pivot_budget_reports_limit() {
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![-1.0, -1.0]);
        lp.add_row(vec![1.0, 1.0], Rel::Le, 4.0);
        lp.add_row(vec![1.0, 0.0], Rel::Le, 2.0);
        assert_eq!(lp.solve(0), LpOutcome::PivotLimit);
    }

    #[test]
    fn fractional_scheduling_relaxation() {
        // Two machines, three unit tasks, relaxed: C* = 1.5.
        // Vars: y[j][i] (6), C (index 6).
        let n = 3;
        let m = 2;
        let nv = n * m + 1;
        let mut lp = LpProblem::new(nv);
        let mut c = vec![0.0; nv];
        c[n * m] = 1.0;
        lp.set_objective(c);
        for j in 0..n {
            let mut row = vec![0.0; nv];
            for i in 0..m {
                row[j * m + i] = 1.0;
            }
            lp.add_row(row, Rel::Eq, 1.0);
        }
        for i in 0..m {
            let mut row = vec![0.0; nv];
            for j in 0..n {
                row[j * m + i] = 1.0; // p̂_j = 1
            }
            row[n * m] = -1.0;
            lp.add_row(row, Rel::Le, 0.0);
        }
        let s = optimal(lp.solve(10_000));
        assert!((s.objective - 1.5).abs() < 1e-9, "obj {}", s.objective);
    }
}
