//! Equivalence tests of the word-level search kernel.
//!
//! * **Arena domains ≡ a set.**  Random sequences of `remove`,
//!   `remove_mask`, `assign`, `remove_below` and `remove_above` on domains
//!   of 1–300 values (several words, bounds crossing word boundaries,
//!   several variables sharing one arena) keep `size`, `min`, `max`,
//!   `iter`, `contains` and the wipeout verdict equal to a `BTreeSet<u32>`
//!   model, and never touch a neighbouring variable.
//! * **Prefix-mask bin packing ≡ per-value bin packing.**  On random
//!   instances (1–200 bins, 0–300 items, random pre-fixed items) the
//!   propagator reaches the same fixpoint — or the same failure — as the
//!   straightforward per-(item, candidate bin) pruning, which lives here
//!   only, as the reference.
//!
//! Cases come from a seeded [`SmallRng`]: same seed, same cases, every run.

use std::collections::BTreeSet;
use std::sync::Arc;

use cwcs_model::SmallRng;
use cwcs_solver::constraints::BinPacking;
use cwcs_solver::propagator::{
    propagate_to_fixpoint, Inconsistency, PropagationResult, Propagator,
};
use cwcs_solver::{DomainStore, Model, VarId};

const DOMAIN_CASES: usize = 256;
const OPS_PER_CASE: usize = 60;
const PACKING_CASES: usize = 160;

/// Assert that `var`'s domain in `store` is exactly `set`.
fn assert_matches(store: &DomainStore, var: VarId, set: &BTreeSet<u32>, ctx: &str) {
    let d = store.domain(var);
    assert_eq!(d.size() as usize, set.len(), "{ctx}: size");
    assert_eq!(d.min(), *set.first().unwrap(), "{ctx}: min");
    assert_eq!(d.max(), *set.last().unwrap(), "{ctx}: max");
    assert_eq!(d.is_fixed(), set.len() == 1, "{ctx}: is_fixed");
    assert_eq!(
        d.iter().collect::<Vec<_>>(),
        set.iter().copied().collect::<Vec<_>>(),
        "{ctx}: iter"
    );
    for v in 0..400 {
        assert_eq!(d.contains(v), set.contains(&v), "{ctx}: contains({v})");
    }
}

/// A random initial domain within `[0, 300)`: either a range or a sparse
/// value set.
fn arbitrary_domain(rng: &mut SmallRng) -> BTreeSet<u32> {
    let width = rng.u32_in_inclusive(1, 300);
    let lo = rng.u32_in_inclusive(0, 300 - width);
    if rng.bool_with(0.5) {
        (lo..lo + width).collect()
    } else {
        let keep = rng.f64_in(0.05, 1.0);
        let mut set: BTreeSet<u32> = (lo..lo + width).filter(|_| rng.bool_with(keep)).collect();
        set.insert(lo + rng.u32_in_inclusive(0, width - 1));
        set
    }
}

/// A random mask of `0..=5` words with a random bit density.
fn arbitrary_mask(rng: &mut SmallRng) -> Vec<u64> {
    let len = rng.index(6);
    let sparse = rng.bool_with(0.7);
    (0..len)
        .map(|_| {
            let w = rng.next_u64();
            if sparse {
                w & rng.next_u64() & rng.next_u64()
            } else {
                w
            }
        })
        .collect()
}

#[test]
fn arena_domains_match_a_set_model() {
    let mut rng = SmallRng::seed_from_u64(0x6b65_726e_656c);
    let mut wipeouts = 0;
    for case in 0..DOMAIN_CASES {
        let mut model = Model::new();
        let mut sets = Vec::new();
        let mut vars = Vec::new();
        for _ in 0..rng.u64_in(1, 5) {
            let set = arbitrary_domain(&mut rng);
            let values: Vec<u32> = set.iter().copied().collect();
            vars.push(model.new_var_with_values(&values));
            sets.push(set);
        }
        let mut store = model.root_store();
        for step in 0..OPS_PER_CASE {
            let which = rng.index(vars.len());
            let (var, set) = (vars[which], &mut sets[which]);
            let before = set.clone();
            let value = rng.u32_in_inclusive(0, 330);
            let (op, result) = match rng.index(5) {
                0 => {
                    set.remove(&value);
                    ("remove", store.remove(var, value))
                }
                1 => {
                    let mask = arbitrary_mask(&mut rng);
                    set.retain(|&v| {
                        mask.get(v as usize / 64)
                            .map_or(true, |w| w & (1u64 << (v % 64)) == 0)
                    });
                    ("remove_mask", store.remove_mask(var, &mask))
                }
                2 => {
                    // Assign mostly to a present value.
                    let target = if rng.bool_with(0.8) {
                        *set.iter().nth(rng.index(set.len())).unwrap()
                    } else {
                        value
                    };
                    let kept = set.contains(&target);
                    set.clear();
                    if kept {
                        set.insert(target);
                    }
                    ("assign", store.assign(var, target))
                }
                3 => {
                    set.retain(|&v| v >= value);
                    ("remove_below", store.remove_below(var, value))
                }
                _ => {
                    set.retain(|&v| v <= value);
                    ("remove_above", store.remove_above(var, value))
                }
            };
            let ctx = format!("case {case} step {step}: {op}({value}) on x{}", var.0);
            if set.is_empty() {
                assert_eq!(result, Err(Inconsistency::wipeout(var)), "{ctx}");
                wipeouts += 1;
                break;
            }
            assert_eq!(result, Ok(*set != before), "{ctx}: changed flag");
            for (&v, s) in vars.iter().zip(&sets) {
                assert_matches(&store, v, s, &ctx);
            }
        }
    }
    assert!(wipeouts > 0, "the sequences must exercise wipeouts");
}

/// The per-value bin-packing pruning: for every unfixed item, test every
/// candidate bin against the committed loads and remove it when the item
/// no longer fits.  The reference the prefix-mask propagator must agree
/// with.
struct PerValueBinPacking {
    assignments: Vec<VarId>,
    sizes: Vec<u64>,
    capacities: Vec<u64>,
}

impl Propagator for PerValueBinPacking {
    fn propagate(&self, store: &mut DomainStore) -> Result<PropagationResult, Inconsistency> {
        let n_bins = self.capacities.len();
        let mut changed = false;
        for &var in &self.assignments {
            if store.max(var) as usize >= n_bins {
                changed |= store.remove_above(var, n_bins as u32 - 1)?;
            }
        }
        loop {
            let mut progressed = false;
            let mut committed = vec![0u64; n_bins];
            for (i, &var) in self.assignments.iter().enumerate() {
                if let Some(bin) = store.fixed_value(var) {
                    committed[bin as usize] += self.sizes[i];
                }
            }
            for (bin, &load) in committed.iter().enumerate() {
                if load > self.capacities[bin] {
                    return Err(Inconsistency::failure("overloaded"));
                }
            }
            for (i, &var) in self.assignments.iter().enumerate() {
                if store.is_fixed(var) {
                    continue;
                }
                for bin in store.domain(var).values() {
                    if committed[bin as usize] + self.sizes[i] > self.capacities[bin as usize] {
                        store.remove(var, bin)?;
                        progressed = true;
                        changed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        if self.sizes.iter().sum::<u64>() > self.capacities.iter().sum::<u64>() {
            return Err(Inconsistency::failure("infeasible"));
        }
        Ok(if changed {
            PropagationResult::Changed
        } else {
            PropagationResult::Unchanged
        })
    }
}

/// A random packing model: item domains are random subsets of the bins
/// (sometimes reaching past the last bin), some items pre-fixed — mostly
/// where they still fit, so that the instances mix fixpoints and failures.
fn arbitrary_packing(rng: &mut SmallRng) -> (Model, Vec<VarId>, Vec<u64>, Vec<u64>) {
    let bins = rng.u64_in(1, 201) as usize;
    let items = rng.index(301);
    // Mean bin capacity a little above the mean load per bin: most
    // instances are feasible overall, and some bins run close to full.
    let mean = 4 + (items * 5 / bins) as u64;
    let capacities: Vec<u64> = (0..bins).map(|_| rng.u64_in(0, 2 * mean)).collect();
    let sizes: Vec<u64> = (0..items).map(|_| rng.u64_in(0, 9)).collect();
    let extra = rng.u32_in_inclusive(0, 70);
    // Half the instances pre-fix items only where they still fit; the
    // other half also drop a few anywhere, overloading some bins.
    let wild = if rng.bool_with(0.5) { 0.0 } else { 0.05 };
    let mut room = capacities.clone();
    let mut model = Model::new();
    let vars = sizes
        .iter()
        .map(|&size| {
            if rng.bool_with(0.4) {
                let bin = if !rng.bool_with(wild) {
                    (0..bins)
                        .find(|&b| room[b] >= size)
                        .unwrap_or_else(|| rng.index(bins))
                } else {
                    rng.index(bins)
                };
                room[bin] = room[bin].saturating_sub(size);
                model.new_var_with_values(&[bin as u32])
            } else {
                let hi = bins as u32 - 1 + extra;
                let keep = rng.f64_in(0.2, 1.0);
                let mut values: Vec<u32> = (0..=hi).filter(|_| rng.bool_with(keep)).collect();
                if values.is_empty() {
                    values.push(rng.u32_in_inclusive(0, hi));
                }
                model.new_var_with_values(&values)
            }
        })
        .collect();
    (model, vars, sizes, capacities)
}

#[test]
fn prefix_mask_packing_matches_per_value_pruning() {
    let mut rng = SmallRng::seed_from_u64(0x7072_6566_6978);
    let (mut fixpoints, mut failures, mut pruned) = (0, 0, 0);
    for case in 0..PACKING_CASES {
        let (model, vars, sizes, capacities) = arbitrary_packing(&mut rng);
        let fast: Arc<dyn Propagator> = Arc::new(BinPacking::new(
            vars.clone(),
            sizes.clone(),
            capacities.clone(),
        ));
        let reference: Arc<dyn Propagator> = Arc::new(PerValueBinPacking {
            assignments: vars.clone(),
            sizes,
            capacities,
        });

        // One propagator run: same verdict, same change flag, same store.
        let (mut a, mut b) = (model.root_store(), model.root_store());
        let run_a = fast.propagate(&mut a);
        let run_b = reference.propagate(&mut b);
        assert_eq!(run_a.is_ok(), run_b.is_ok(), "case {case}: single run");
        if let (Ok(ra), Ok(rb)) = (run_a, run_b) {
            assert_eq!(ra, rb, "case {case}: change flag");
            assert_eq!(a, b, "case {case}: single-run store");
        }

        // Fixpoint: same Ok/Err outcome and, when Ok, the same domains.
        let (mut a, mut b) = (model.root_store(), model.root_store());
        let fix_a = propagate_to_fixpoint(&[fast], &mut a);
        let fix_b = propagate_to_fixpoint(&[reference], &mut b);
        assert_eq!(fix_a.is_ok(), fix_b.is_ok(), "case {case}: fixpoint");
        if fix_a.is_ok() {
            for &v in &vars {
                assert_eq!(
                    a.domain(v).values(),
                    b.domain(v).values(),
                    "case {case}: x{}",
                    v.0
                );
            }
            assert_eq!(a, b, "case {case}: fixpoint store");
            fixpoints += 1;
            if a != model.root_store() {
                pruned += 1;
            }
        } else {
            failures += 1;
        }
    }
    assert!(
        fixpoints > 0 && failures > 0,
        "{fixpoints} Ok / {failures} Err"
    );
    assert!(pruned > 0, "the instances must exercise pruning");
}
