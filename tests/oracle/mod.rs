//! A deliberately naive reference Interchange (Algorithm 1 of the paper),
//! built only from public API, for lock-stepping `VasSampler` against.
//!
//! It implements the paper's rule directly: add the candidate to form the
//! expanded set, find the most redundant element by a linear first-wins
//! argmax, and swap the candidate in unless it is that element itself. None
//! of the sampler's machinery appears here — no max tracker, no rejection
//! filter, no batched kernel. What the oracle does share with production
//! is every floating-point operation's order:
//!
//! * kernel values come from the scalar [`Kernel::eval_dist2`];
//! * ES+Loc neighbourhoods come from an [`AnyLocalityIndex`] of the same
//!   backend, through its `for_each_in_radius_with_dist2` visitor, so every
//!   fold runs in the production lane order. Each neighbourhood is also
//!   checked, as a set, against a brute-force scan over all slots;
//! * ties in the Shrink step go to the candidate, then to the lowest slot
//!   among the base responsibilities, then to the first neighbour lane.
//!
//! Agreement is therefore bit for bit, so a test can compare the sample,
//! the responsibilities, the replacement count and the objective after
//! every tuple.

use vas::prelude::*;

/// Reference Interchange state over slot-indexed sample points.
#[derive(Debug)]
pub struct Oracle {
    kernel: GaussianKernel,
    k: usize,
    /// Locality cutoff radius (ES+Loc only).
    cutoff: f64,
    /// The sample's neighbourhood index, for ES+Loc; `None` for plain ES.
    index: Option<AnyLocalityIndex>,
    /// Current sample, slot-indexed.
    pub points: Vec<Point>,
    /// `rsp[i] = Σ_{j≠i} κ̃(s_i, s_j)` over the pairs the strategy sees.
    pub rsp: Vec<f64>,
    /// Running objective, maintained like the sampler's.
    pub objective: f64,
    /// Valid replacements performed.
    pub replacements: u64,
}

impl Oracle {
    /// An oracle for `config` (`ExpandShrink` or `ExpandShrinkLocality`),
    /// with the bandwidth resolved from `data` the way
    /// `VasSampler::from_dataset` resolves it.
    pub fn new(data: &Dataset, config: &VasConfig) -> Self {
        let kernel = config
            .epsilon
            .map(GaussianKernel::new)
            .unwrap_or_else(|| GaussianKernel::for_dataset(data));
        let cutoff = kernel.effective_radius(config.locality_threshold);
        let index = match config.strategy {
            InterchangeStrategy::ExpandShrink => None,
            InterchangeStrategy::ExpandShrinkLocality => {
                let mut index = AnyLocalityIndex::new(config.locality_backend);
                index.reset(cutoff);
                Some(index)
            }
            InterchangeStrategy::Naive => panic!("the oracle covers ES and ES+Loc"),
        };
        Self {
            kernel,
            k: config.k,
            cutoff,
            index,
            points: Vec::new(),
            rsp: Vec::new(),
            objective: 0.0,
            replacements: 0,
        }
    }

    /// The expanded set's kernel row for `p`: `(slot, κ̃(p, s_slot))` over
    /// every slot for ES, over the index neighbourhood (in visitation order)
    /// for ES+Loc.
    fn row(&self, p: &Point) -> Vec<(usize, f64)> {
        let Some(index) = &self.index else {
            return (0..self.points.len())
                .map(|i| (i, self.kernel.eval(p, &self.points[i])))
                .collect();
        };
        let mut lanes = Vec::new();
        index.for_each_in_radius_with_dist2(p, self.cutoff, |i, _, d2| lanes.push((i, d2)));
        let mut visited: Vec<usize> = lanes.iter().map(|&(i, _)| i).collect();
        visited.sort_unstable();
        let r2 = self.cutoff * self.cutoff;
        let scanned: Vec<usize> = (0..self.points.len())
            .filter(|&i| self.points[i].dist2(p) <= r2)
            .collect();
        assert_eq!(
            visited, scanned,
            "index neighbourhood of {p:?} is not the brute-force set"
        );
        lanes
            .into_iter()
            .map(|(i, d2)| (i, self.kernel.eval_dist2(d2)))
            .collect()
    }

    /// Observes one stream tuple; non-finite points are skipped.
    pub fn observe(&mut self, p: Point) {
        if self.k == 0 || !p.is_finite() {
            return;
        }
        let row = self.row(&p);
        let cand_rsp = row.iter().fold(0.0, |sum, &(_, v)| sum + v);
        if self.points.len() < self.k {
            for &(i, v) in &row {
                self.rsp[i] += v;
            }
            let slot = self.points.len();
            if let Some(index) = &mut self.index {
                index.insert(slot, p);
            }
            self.points.push(p);
            self.rsp.push(cand_rsp);
            self.objective += cand_rsp;
            return;
        }

        // Shrink: the most redundant element of the expanded set, first
        // wins. ES raises every slot, so it scans them in slot order; ES+Loc
        // raises only the neighbour lanes, so it scans the untouched base
        // responsibilities first, then the raised lanes in visitation order.
        let mut max = (None, cand_rsp);
        let raised = row.iter().map(|&(i, v)| (i, self.rsp[i] + v));
        let base = self.rsp.iter().copied().enumerate();
        let scan: Vec<(usize, f64)> = match self.index {
            None => raised.collect(),
            Some(_) => base.chain(raised).collect(),
        };
        for (i, r) in scan {
            if r > max.1 {
                max = (Some(i), r);
            }
        }
        let Some(out) = max.0 else {
            return; // the candidate itself is the most redundant: reject
        };

        // Swap the candidate into slot `out`.
        let removed = self.points[out];
        for &(i, v) in &row {
            if i != out {
                self.rsp[i] += v;
            }
        }
        for (i, v) in self.row(&removed) {
            if i != out {
                self.rsp[i] -= v;
            }
        }
        if let Some(index) = &mut self.index {
            assert!(index.remove(out, &removed));
            index.insert(out, p);
        }
        let kappa_removed = row
            .iter()
            .find(|&&(i, _)| i == out)
            .map_or_else(|| self.kernel.eval(&p, &removed), |&(_, v)| v);
        let new_rsp = cand_rsp - kappa_removed;
        self.objective += new_rsp - self.rsp[out];
        self.points[out] = p;
        self.rsp[out] = new_rsp;
        self.replacements += 1;
    }
}
