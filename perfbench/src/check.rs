//! Answer checkers. None of them reuses the program's evaluation code:
//! the exact probabilities are computed here from the definitions, and
//! the Monte-Carlo cross-checks draw from `eval::oracle`, which
//! simulates the probability model without the query machinery.

use std::collections::HashMap;

use iloc_core::eval::oracle::{binomial_tolerance, mc_point_probability, mc_uncertain_probability};
use iloc_core::serve::{ServeEngine, Snapshot};
use iloc_core::{Match, PointEngine, UncertainEngine};
use iloc_geometry::{Point, Rect};
use iloc_uncertainty::{ObjectId, PointObject, UncertainObject};

use crate::inputs::{Class, Item, Updates};

/// Absolute slack between an exact probability computed here and the
/// program's: far below the 1e-6 perturbation the checkers must catch,
/// far above the rounding of two orderings of the same arithmetic.
pub const EXACT_TOL: f64 = 1e-9;
/// Standard deviations of the binomial band for Monte-Carlo agreement.
const Z: f64 = 6.0;
/// Oracle draws per cross-checked probability.
const ORACLE_SAMPLES: u32 = 4_000;
/// Matches per answer cross-checked against the oracle.
const ORACLE_MATCHES: usize = 6;

pub type Verdict = Result<(), String>;

/// What every answer must satisfy: strictly increasing ids, and
/// probabilities in `(0, 1]` (at least `Qp` for constrained queries).
pub fn structural(results: &[Match], qp: Option<f64>) -> Verdict {
    for pair in results.windows(2) {
        if pair[0].id >= pair[1].id {
            return Err(format!("ids not strictly increasing at {:?}", pair[1].id));
        }
    }
    for m in results {
        let p = m.probability;
        if !(p > 0.0 && p <= 1.0 + EXACT_TOL) {
            return Err(format!("probability {p} of {:?} outside (0, 1]", m.id));
        }
        if let Some(qp) = qp {
            if p < qp {
                return Err(format!("probability {p} of {:?} below Qp {qp}", m.id));
            }
        }
    }
    Ok(())
}

/// Length of `[a0, a1] ∩ [b0, b1]`.
fn overlap(a0: f64, a1: f64, b0: f64, b1: f64) -> f64 {
    (a1.min(b1) - a0.max(b0)).max(0.0)
}

/// Exact IPQ probability under a uniform issuer on `u0`: the share of
/// `U0` from which the point lies in the range, |U0 ∩ (p ⊕ R)| / |U0|.
pub fn ipq_area_ratio(u0: Rect, p: Point, w: f64, h: f64) -> f64 {
    let x = overlap(u0.min.x, u0.max.x, p.x - w, p.x + w);
    let y = overlap(u0.min.y, u0.max.y, p.y - h, p.y + h);
    (x * y) / ((u0.max.x - u0.min.x) * (u0.max.y - u0.min.y))
}

/// `∫_0^x clamp(s, 0, len) ds`.
fn ramp_integral(x: f64, len: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else if x <= len {
        x * x / 2.0
    } else {
        len * len / 2.0 + len * (x - len)
    }
}

/// `P(|o − q| ≤ w)` for independent `q ~ U[q0, q1]`, `o ~ U[o0, o1]`.
fn axis_probability(q0: f64, q1: f64, o0: f64, o1: f64, w: f64) -> f64 {
    let lq = q1 - q0;
    let lo = o1 - o0;
    if lo <= 0.0 {
        // A degenerate object axis is a point.
        return overlap(q0, q1, o0 - w, o0 + w) / lq;
    }
    // G(t) = ∫_{q0}^{q1} |[o0, o1] ∩ (-∞, q + t]| dq.
    let g = |t: f64| ramp_integral(q1 + t - o0, lo) - ramp_integral(q0 + t - o0, lo);
    ((g(w) - g(-w)) / (lq * lo)).clamp(0.0, 1.0)
}

/// Exact IUQ probability for a uniform issuer on `u0` and a uniform
/// object on `ui`: the per-axis probabilities multiply (Eq. 8).
pub fn iuq_uniform_probability(u0: Rect, ui: Rect, w: f64, h: f64) -> f64 {
    axis_probability(u0.min.x, u0.max.x, ui.min.x, ui.max.x, w)
        * axis_probability(u0.min.y, u0.max.y, ui.min.y, ui.max.y, h)
}

/// Compares an answer with the exact answer computed by a full scan.
/// `exact` lists every object with its exact probability; an object is
/// required when its probability clears the acceptance test by more
/// than the tolerance, forbidden when it fails it by more, and free in
/// between (a tie at `Qp` or at 0 may round either way).
fn compare_exact(results: &[Match], exact: &[(ObjectId, f64)], qp: Option<f64>) -> Verdict {
    let got: HashMap<ObjectId, f64> = results.iter().map(|m| (m.id, m.probability)).collect();
    let floor = qp.unwrap_or(0.0);
    let mut seen = 0usize;
    for &(id, p) in exact {
        let required = p > EXACT_TOL && p >= floor + EXACT_TOL;
        let allowed = p > 0.0 && p >= floor - EXACT_TOL;
        match got.get(&id) {
            Some(&q) => {
                seen += 1;
                if !allowed {
                    return Err(format!("{id:?} returned with exact probability {p}"));
                }
                if (q - p).abs() > EXACT_TOL {
                    return Err(format!("{id:?}: probability {q}, exact {p}"));
                }
            }
            None if required => {
                return Err(format!("{id:?} (exact probability {p}) missing"));
            }
            None => {}
        }
    }
    if seen != results.len() {
        return Err(format!(
            "{} returned ids are not live catalog objects",
            results.len() - seen
        ));
    }
    Ok(())
}

/// Checks an answer of `item` against the catalog, by a full scan.
/// Uniform-issuer classes are checked exactly (and IUQ-class answers
/// also against the Monte-Carlo oracle); the Gaussian class, whose
/// probabilities are themselves Monte-Carlo estimates, against the
/// oracle within the binomial band of both estimates.
pub fn check_answer(
    points: &[PointObject],
    uncertain: &[UncertainObject],
    item: &Item,
    results: &[Match],
    seed: u64,
) -> Verdict {
    let qp = item.qp();
    structural(results, qp)?;
    let issuer = item.issuer();
    let u0 = issuer.region();
    let range = item.range();
    match item.class {
        Class::Ipq | Class::Cipq => {
            let exact: Vec<(ObjectId, f64)> = points
                .iter()
                .map(|o| (o.id, ipq_area_ratio(u0, o.loc, range.w, range.h)))
                .collect();
            compare_exact(results, &exact, qp)
        }
        Class::Iuq | Class::Ciuq => {
            let exact: Vec<(ObjectId, f64)> = uncertain
                .iter()
                .map(|o| {
                    let ui = o.region();
                    (o.id, iuq_uniform_probability(u0, ui, range.w, range.h))
                })
                .collect();
            compare_exact(results, &exact, qp)?;
            let by_id: HashMap<ObjectId, &UncertainObject> =
                uncertain.iter().map(|o| (o.id, o)).collect();
            for (k, m) in results.iter().take(ORACLE_MATCHES).enumerate() {
                let object = by_id[&m.id];
                let est = mc_uncertain_probability(
                    issuer,
                    object,
                    range,
                    ORACLE_SAMPLES,
                    seed ^ (k as u64) << 20,
                );
                let tol = binomial_tolerance(est, ORACLE_SAMPLES, Z);
                if (est - m.probability).abs() > tol {
                    return Err(format!(
                        "{:?}: probability {} outside the oracle's {est} ± {tol}",
                        m.id, m.probability
                    ));
                }
            }
            Ok(())
        }
        Class::GaussCipq => {
            let qp = qp.expect("C-IPQ carries a threshold");
            // The program estimates with `samples` draws; the band
            // covers both its estimate's and the oracle's noise.
            let samples = match &item.query {
                crate::inputs::Query::Point(r) => match r.integrator {
                    iloc_core::Integrator::MonteCarlo { samples } => samples as u32,
                    _ => return Err("Gaussian class without Monte-Carlo".into()),
                },
                _ => return Err("Gaussian class on the uncertain catalog".into()),
            };
            let reach = Rect::from_coords(
                u0.min.x - range.w,
                u0.min.y - range.h,
                u0.max.x + range.w,
                u0.max.y + range.h,
            );
            let got: HashMap<ObjectId, f64> =
                results.iter().map(|m| (m.id, m.probability)).collect();
            let mut seen = 0usize;
            for (k, o) in points.iter().enumerate() {
                let inside = o.loc.x >= reach.min.x
                    && o.loc.x <= reach.max.x
                    && o.loc.y >= reach.min.y
                    && o.loc.y <= reach.max.y;
                let returned = got.get(&o.id).copied();
                if !inside {
                    if returned.is_some() {
                        return Err(format!("{:?} returned from outside R ⊕ U0", o.id));
                    }
                    continue;
                }
                let est =
                    mc_point_probability(issuer, o.loc, range, ORACLE_SAMPLES, seed ^ k as u64);
                let tol = binomial_tolerance(est, samples, Z)
                    + binomial_tolerance(est, ORACLE_SAMPLES, Z);
                match returned {
                    Some(p) => {
                        seen += 1;
                        if (p - est).abs() > tol {
                            return Err(format!(
                                "{:?}: probability {p} outside the oracle's {est} ± {tol}",
                                o.id
                            ));
                        }
                    }
                    None if est >= qp + tol && est > tol => {
                        return Err(format!("{:?} (oracle {est}) missing at Qp {qp}", o.id));
                    }
                    None => {}
                }
            }
            if seen != results.len() {
                return Err("returned ids are not live catalog objects".into());
            }
            Ok(())
        }
    }
}

/// Live objects of a snapshot as sortable keys, sorted.
fn live<E: ServeEngine, T: Ord>(snapshot: &Snapshot<E>, key: impl Fn(&E::Object) -> T) -> Vec<T> {
    let mut all: Vec<T> = snapshot
        .shards()
        .iter()
        .flat_map(|s| s.objects().iter().map(&key))
        .collect();
    all.sort();
    all
}

fn rect_bits(r: Rect) -> [u64; 4] {
    [
        r.min.x.to_bits(),
        r.min.y.to_bits(),
        r.max.x.to_bits(),
        r.max.y.to_bits(),
    ]
}

/// The served live sets equal the update generators' own models: the
/// same ids at bit-identical locations and regions.
pub fn live_sets(
    points: &Snapshot<PointEngine>,
    uncertain: &Snapshot<UncertainEngine>,
    updates: &Updates,
) -> Verdict {
    let mut model_p: Vec<(u64, u64, u64)> = updates
        .points
        .live()
        .iter()
        .map(|(id, p)| (*id, p.x.to_bits(), p.y.to_bits()))
        .collect();
    model_p.sort();
    let served_p = live(points, |o| (o.id.0, o.loc.x.to_bits(), o.loc.y.to_bits()));
    if served_p != model_p {
        return Err(format!(
            "point live set: {} served, {} in the model",
            served_p.len(),
            model_p.len()
        ));
    }
    let mut model_u: Vec<(u64, [u64; 4])> = updates
        .rects
        .live()
        .iter()
        .map(|(id, r)| (*id, rect_bits(*r)))
        .collect();
    model_u.sort();
    let served_u = live(uncertain, |o| (o.id.0, rect_bits(o.region())));
    if served_u != model_u {
        return Err(format!(
            "uncertain live set: {} served, {} in the model",
            served_u.len(),
            model_u.len()
        ));
    }
    Ok(())
}

/// Bit-for-bit equality of two answers.
pub fn same_bits(got: &[Match], want: &[Match]) -> Verdict {
    if got.len() != want.len() {
        return Err(format!("{} matches, expected {}", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(want) {
        if g.id != w.id || g.probability.to_bits() != w.probability.to_bits() {
            return Err(format!(
                "match ({:?}, {}) where ({:?}, {}) was expected",
                g.id, g.probability, w.id, w.probability
            ));
        }
    }
    Ok(())
}

/// Applies one NOTIFY delta — upserted matches and removed ids — to an
/// id-sorted answer held by the subscriber.
pub fn apply_delta(answer: &mut Vec<Match>, upserts: &[Match], removals: &[ObjectId]) {
    let mut by_id: std::collections::BTreeMap<ObjectId, f64> =
        answer.iter().map(|m| (m.id, m.probability)).collect();
    for id in removals {
        by_id.remove(id);
    }
    for m in upserts {
        by_id.insert(m.id, m.probability);
    }
    answer.clear();
    answer.extend(
        by_id
            .into_iter()
            .map(|(id, probability)| Match { id, probability }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{query_mix, Query, Raw};
    use iloc_core::serve::ShardedEngine;
    use iloc_core::subscribe::AnswerDelta;
    use iloc_core::QueryAnswer;

    /// A small catalog, the engines over it, and one answer per class.
    fn scene() -> (
        Vec<PointObject>,
        Vec<UncertainObject>,
        Vec<(Item, QueryAnswer)>,
    ) {
        let raw = Raw {
            points: iloc_datagen::california_points(3_000, 5),
            rects: iloc_datagen::long_beach_rects(2_500, 6),
        };
        let cat = raw.catalogs();
        let pe = ShardedEngine::<PointEngine>::build(cat.points.clone(), 2).snapshot();
        let ue = ShardedEngine::<UncertainEngine>::build(cat.uncertain.clone(), 2).snapshot();
        let mut picked: Vec<(Item, QueryAnswer)> = Vec::new();
        for item in query_mix(9, 4, true) {
            if picked.iter().any(|(i, _)| i.class == item.class) {
                continue;
            }
            let answer = match &item.query {
                Query::Point(r) => pe.execute_one(r),
                Query::Uncertain(r) => ue.execute_one(r),
            };
            if answer.results.len() >= 3 {
                picked.push((item, answer));
            }
        }
        assert_eq!(picked.len(), 5, "one non-trivial answer per class");
        (cat.points, cat.uncertain, picked)
    }

    #[test]
    fn accepts_the_programs_answers_and_rejects_corruptions() {
        let (points, uncertain, picked) = scene();
        for (item, answer) in &picked {
            let check = |r: &[Match]| check_answer(&points, &uncertain, item, r, 77);
            let good = &answer.results;
            assert_eq!(check(good), Ok(()), "{:?}", item.class);

            let mut dropped = good.clone();
            dropped.remove(dropped.len() / 2);
            assert!(check(&dropped).is_err(), "{:?}: dropped match", item.class);

            let mut unsorted = good.clone();
            unsorted.swap(0, 1);
            assert!(check(&unsorted).is_err(), "{:?}: unsorted ids", item.class);

            if item.class != Class::GaussCipq {
                // Exact classes catch a 1e-6 shift of any probability.
                let mut moved = good.clone();
                let k = moved.len() / 2;
                moved[k].probability += if moved[k].probability > 0.5 {
                    -1e-6
                } else {
                    1e-6
                };
                assert!(
                    check(&moved).is_err(),
                    "{:?}: moved probability",
                    item.class
                );
            }
        }
    }

    #[test]
    fn exact_forms_match_hand_values() {
        let u0 = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        // Range 2×2 around (11, 5): x overlap [9, 10], y overlap [4, 6].
        assert_eq!(ipq_area_ratio(u0, Point::new(11.0, 5.0), 2.0, 1.0), 0.02);
        assert_eq!(ipq_area_ratio(u0, Point::new(20.0, 5.0), 2.0, 1.0), 0.0);
        // A point-like object deep inside a huge range is always in it.
        let p = iuq_uniform_probability(u0, Rect::from_coords(4.0, 4.0, 6.0, 6.0), 100.0, 100.0);
        assert_eq!(p, 1.0);
        // Two unit intervals, w = 0.5: P(|o − q| ≤ 0.5) = 0.75 per axis.
        let unit = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let p = iuq_uniform_probability(unit, unit, 0.5, 0.5);
        assert!((p - 0.5625).abs() < 1e-12, "{p}");
    }

    #[test]
    fn delta_replay_rejects_a_missing_notify() {
        let m = |id: u64, p: f64| Match {
            id: ObjectId(id),
            probability: p,
        };
        let states = [
            vec![m(1, 0.5), m(2, 0.25), m(4, 1.0)],
            vec![m(1, 0.5), m(3, 0.75), m(4, 0.5)],
            vec![m(3, 0.75), m(4, 0.5), m(9, 0.125)],
        ];
        let deltas: Vec<AnswerDelta> = states
            .windows(2)
            .map(|w| {
                let mut d = AnswerDelta::new();
                AnswerDelta::diff_into(&w[0], &w[1], &mut d);
                d
            })
            .collect();
        let mut replayed = states[0].clone();
        for d in &deltas {
            apply_delta(&mut replayed, &d.upserts, &d.removals);
        }
        assert_eq!(same_bits(&replayed, &states[2]), Ok(()));

        let mut missing = states[0].clone();
        apply_delta(&mut missing, &deltas[1].upserts, &deltas[1].removals);
        assert!(same_bits(&missing, &states[2]).is_err());
    }

    #[test]
    fn bit_identity_catches_the_last_bit() {
        let a = vec![Match {
            id: ObjectId(3),
            probability: 0.3,
        }];
        let mut b = a.clone();
        b[0].probability = f64::from_bits(b[0].probability.to_bits() + 1);
        assert!(same_bits(&a, &a).is_ok());
        assert!(same_bits(&b, &a).is_err());
    }
}
