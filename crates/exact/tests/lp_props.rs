//! The flat row-major simplex tableau of `rds_exact::lp` against the
//! nested `Vec<Vec<f64>>` tableau it replaced, kept here verbatim as the
//! reference. Both run the same Bland pivots with the same arithmetic,
//! so every outcome must agree to the bit: the variant, the objective
//! and the optimal point.
//!
//! Inputs: random programs with `Eq`, `Le` and `Ge` rows, negative
//! right-hand sides and small pivot budgets (so infeasible, unbounded
//! and pivot-limited outcomes all occur), and `PlacementModel`'s LP
//! relaxations at m ≤ 8, n ≤ 16, with and without a memory budget.

use proptest::prelude::*;
use proptest::TestRng;
use rds_exact::ilp::PlacementModel;
use rds_exact::lp::{LpOutcome, LpProblem, LpSolution, Rel};

const EPS: f64 = 1e-9;

/// A program as the reference tableau reads it: `n` variables, the
/// objective and `(coefficients, relation, rhs)` rows.
#[derive(Debug, Clone)]
struct Problem {
    n: usize,
    objective: Vec<f64>,
    rows: Vec<(Vec<f64>, Rel, f64)>,
}

impl Problem {
    fn to_lp(&self) -> LpProblem {
        let mut lp = LpProblem::new(self.n);
        lp.set_objective(self.objective.clone());
        for (coeffs, rel, rhs) in &self.rows {
            lp.add_row(coeffs.clone(), *rel, *rhs);
        }
        lp
    }

    fn solve_reference(&self, max_pivots: usize) -> LpOutcome {
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
    fn build(p: &Problem) -> Tableau {
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

/// `true` when the two outcomes are the same variant with the same
/// objective and point, bit for bit.
fn same_bits(a: &LpOutcome, b: &LpOutcome) -> bool {
    let bits = |s: &LpSolution| {
        (
            s.objective.to_bits(),
            s.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        )
    };
    match (a, b) {
        (LpOutcome::Optimal(x), LpOutcome::Optimal(y)) => bits(x) == bits(y),
        _ => std::mem::discriminant(a) == std::mem::discriminant(b),
    }
}

/// A coefficient: mostly small integers and zeros, so degenerate
/// vertices and ties in the ratio test are common, sometimes a
/// fraction or a uniform draw.
fn coefficient() -> impl Strategy<Value = f64> {
    (0usize..10, -3.0f64..3.0).prop_map(|(pick, u)| match pick {
        0..=2 => 0.0,
        3 => 1.0,
        4 => -1.0,
        5 => 2.0,
        6 => -2.0,
        7 => 0.5,
        _ => u,
    })
}

fn relation() -> impl Strategy<Value = Rel> {
    (0usize..3).prop_map(|r| [Rel::Eq, Rel::Le, Rel::Ge][r])
}

/// A random program over 0–6 variables with 0–6 rows, and a pivot
/// budget: 0–3 pivots a quarter of the time, else a generous one.
fn random_problem() -> impl Strategy<Value = (Problem, usize)> {
    (0usize..=6, 0usize..=6, 0usize..8).prop_flat_map(|(n, rows, budget)| {
        (
            prop::collection::vec(coefficient(), n),
            prop::collection::vec(
                (
                    prop::collection::vec(coefficient(), n),
                    relation(),
                    coefficient(),
                ),
                rows,
            ),
        )
            .prop_map(move |(objective, rows)| {
                let pivots = if budget < 4 { budget } else { 1000 };
                (Problem { n, objective, rows }, pivots)
            })
    })
}

/// The LP relaxation `PlacementModel::lp_relaxation` builds, row for
/// row.
fn placement_problem(env: &[f64], sizes: &[f64], m: usize, budget: f64) -> Problem {
    let n = env.len();
    let nv = n * m + 1;
    let mut objective = vec![0.0; nv];
    objective[n * m] = 1.0;
    let mut rows = Vec::new();
    for j in 0..n {
        let mut row = vec![0.0; nv];
        for i in 0..m {
            row[j * m + i] = 1.0;
        }
        rows.push((row, Rel::Eq, 1.0));
    }
    for i in 0..m {
        let mut row = vec![0.0; nv];
        for j in 0..n {
            row[j * m + i] = env[j];
        }
        row[n * m] = -1.0;
        rows.push((row, Rel::Le, 0.0));
    }
    if budget.is_finite() {
        for i in 0..m {
            let mut row = vec![0.0; nv];
            for j in 0..n {
                row[j * m + i] = sizes[j];
            }
            rows.push((row, Rel::Le, budget));
        }
    }
    Problem {
        n: nv,
        objective,
        rows,
    }
}

/// `(envelopes, sizes, m, budget)`: a budget between the volume floor
/// and twice it, or none.
fn placement_model() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, usize, f64)> {
    (1usize..=16, 1usize..=8, 0usize..3).prop_flat_map(|(n, m, kind)| {
        (
            prop::collection::vec(0.5f64..10.0, n),
            prop::collection::vec(0.5f64..8.0, n),
            0.0f64..1.0,
        )
            .prop_map(move |(env, sizes, slack)| {
                let total: f64 = sizes.iter().sum();
                let floor = sizes.iter().fold(total / m as f64, |a, &s| a.max(s));
                let budget = if kind == 0 {
                    f64::INFINITY
                } else {
                    floor * (1.0 + slack)
                };
                (env, sizes, m, budget)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn flat_tableau_matches_the_nested_reference((problem, pivots) in random_problem()) {
        let new = problem.to_lp().solve(pivots);
        let reference = problem.solve_reference(pivots);
        prop_assert!(same_bits(&new, &reference), "{problem:?} at {pivots} pivots:\n{new:?}\n{reference:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn placement_relaxations_match_the_reference((env, sizes, m, budget) in placement_model()) {
        let model = PlacementModel::new(&env, &sizes, m, budget).unwrap();
        let problem = placement_problem(&env, &sizes, m, budget);
        let pivots = 200 * (problem.n + problem.rows.len());
        let reference = problem.solve_reference(pivots);
        prop_assert!(same_bits(&problem.to_lp().solve(pivots), &reference));
        // The model's own relaxation reads the same bound and point.
        let relaxation = model.lp_relaxation();
        match (&relaxation, &reference) {
            (Some(r), LpOutcome::Optimal(s)) => {
                prop_assert_eq!(r.bound.to_bits(), s.objective.max(0.0).to_bits());
                let y: Vec<u64> = s.x[..env.len() * m].iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(r.y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), y);
            }
            (None, LpOutcome::Optimal(_)) | (Some(_), _) => {
                panic!("relaxation {relaxation:?} against reference {reference:?}")
            }
            (None, _) => {}
        }
    }
}

#[test]
fn random_problems_reach_every_outcome() {
    // The generator must exercise each outcome, or the comparison above
    // says nothing about it.
    let mut rng = TestRng::for_test("lp_props::random_problems_reach_every_outcome");
    let mut seen = [0usize; 4];
    for _ in 0..2000 {
        let (problem, pivots) = random_problem().new_value(&mut rng);
        let outcome = problem.to_lp().solve(pivots);
        assert!(same_bits(&outcome, &problem.solve_reference(pivots)));
        seen[match outcome {
            LpOutcome::Optimal(_) => 0,
            LpOutcome::Infeasible => 1,
            LpOutcome::Unbounded => 2,
            LpOutcome::PivotLimit => 3,
        }] += 1;
    }
    assert!(seen.iter().all(|&c| c > 0), "outcome counts {seen:?}");
}
