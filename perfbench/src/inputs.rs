//! Seeded inputs: the paper-scale catalogs, the query mixes and the
//! update stream. Everything here is a pure function of the seed.

use iloc_core::durable::FsyncPolicy;
use iloc_core::integrate::PAPER_MC_SAMPLES_POINT;
use iloc_core::pipeline::{PointRequest, UncertainRequest};
use iloc_core::serve::Update;
use iloc_core::{CipqStrategy, CiuqStrategy, Integrator, Issuer, RangeSpec};
use iloc_datagen::{
    california_points, long_beach_rects, point_objects, uniform_objects, PointUpdate,
    PointUpdateGen, RectUpdate, RectUpdateGen, UpdateMix, CALIFORNIA_SIZE, LONG_BEACH_SIZE, SPACE,
};
use iloc_geometry::{Point, Rect};
use iloc_server::protocol::WireUpdate;
use iloc_uncertainty::{ObjectId, PointObject, UncertainObject, UniformPdf};

use crate::util::Rng;

/// Issuer half-sizes `u` of the paper's Figures 8–10 sweep.
pub const U_SWEEP: [f64; 10] = [
    100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0, 1000.0,
];
/// Range half-sizes `w` of Figures 9–10.
pub const W_SERIES: [f64; 3] = [500.0, 1000.0, 1500.0];
/// Thresholds `Qp` of Figures 11–13.
pub const QP_SWEEP: [f64; 11] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
/// Table 2 defaults, used by the constrained classes.
pub const DEFAULT_U: f64 = 250.0;
pub const DEFAULT_W: f64 = 500.0;

/// WAL fsync policy of every durable store the benchmark opens.
pub const FSYNC: FsyncPolicy = FsyncPolicy::Always;
/// Background checkpoint cadence of the churn server, in commits per
/// catalog.
pub const CHECKPOINT_EVERY: u64 = 64;

/// Shards per catalog in the single-process engines and the server.
pub const SHARDS: usize = 4;

/// The five query classes the benchmark sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Ipq,
    Cipq,
    Iuq,
    Ciuq,
    /// C-IPQ with a truncated-Gaussian issuer under Monte-Carlo
    /// refinement (Figure 13).
    GaussCipq,
}

/// One request of a mix.
#[derive(Debug, Clone)]
pub enum Query {
    Point(PointRequest),
    Uncertain(UncertainRequest),
}

#[derive(Debug, Clone)]
pub struct Item {
    pub class: Class,
    pub query: Query,
}

impl Item {
    pub fn qp(&self) -> Option<f64> {
        match &self.query {
            Query::Point(r) => r.constraint.map(|c| c.qp),
            Query::Uncertain(r) => r.constraint.map(|c| c.qp),
        }
    }

    pub fn issuer(&self) -> &Issuer {
        match &self.query {
            Query::Point(r) => &r.issuer,
            Query::Uncertain(r) => &r.issuer,
        }
    }

    pub fn range(&self) -> RangeSpec {
        match &self.query {
            Query::Point(r) => r.range,
            Query::Uncertain(r) => r.range,
        }
    }
}

/// The classes of one round, in sending order: IPQ, C-IPQ, IUQ, C-IUQ
/// repeated twelve times, with the last slot (a C-IUQ slot) given to a
/// Gaussian-issuer C-IPQ when `with_gaussian`. One Monte-Carlo query
/// costs about as much as the other 47 together, so one per round keeps
/// the closed-form paths at half the engine's time. A run always sends
/// whole rounds of this fixed make-up, so the class shares do not
/// depend on the seed.
pub fn round(with_gaussian: bool) -> Vec<Class> {
    (0..48)
        .map(|k| match k % 4 {
            0 => Class::Ipq,
            1 => Class::Cipq,
            2 => Class::Iuq,
            _ if with_gaussian && k == 47 => Class::GaussCipq,
            _ => Class::Ciuq,
        })
        .collect()
}

/// `rounds` rounds of the mix. Issuer centres are uniform over the data
/// space; `u`, `w` and `Qp` step through the paper's sweeps class by
/// class, so every sweep point carries the same share in every run.
pub fn query_mix(seed: u64, rounds: usize, with_gaussian: bool) -> Vec<Item> {
    let mut rng = Rng::new(seed ^ 0x0051_3A7C);
    let pattern = round(with_gaussian);
    let mut per_class = [0usize; 5];
    let mut items = Vec::with_capacity(rounds * pattern.len());
    for _ in 0..rounds {
        for &class in &pattern {
            let c = per_class[class as usize];
            per_class[class as usize] += 1;
            let centre = Point::new(
                rng.range(SPACE.min.x, SPACE.max.x),
                rng.range(SPACE.min.y, SPACE.max.y),
            );
            let swept_u = U_SWEEP[c % U_SWEEP.len()];
            let swept_w = W_SERIES[(c / U_SWEEP.len()) % W_SERIES.len()];
            let qp = QP_SWEEP[c % QP_SWEEP.len()];
            let default_region = Rect::centered(centre, DEFAULT_U, DEFAULT_U);
            let query = match class {
                Class::Ipq => Query::Point(PointRequest::ipq(
                    Issuer::uniform(Rect::centered(centre, swept_u, swept_u)),
                    RangeSpec::square(swept_w),
                )),
                Class::Cipq => Query::Point(PointRequest::cipq(
                    Issuer::uniform(default_region),
                    RangeSpec::square(DEFAULT_W),
                    qp,
                    CipqStrategy::PExpanded,
                )),
                Class::Iuq => Query::Uncertain(UncertainRequest::iuq(
                    Issuer::uniform(Rect::centered(centre, swept_u, swept_u)),
                    RangeSpec::square(swept_w),
                )),
                Class::Ciuq => Query::Uncertain(UncertainRequest::ciuq(
                    Issuer::uniform(default_region),
                    RangeSpec::square(DEFAULT_W),
                    qp,
                    CiuqStrategy::PtiPExpanded,
                )),
                Class::GaussCipq => Query::Point(
                    PointRequest::cipq(
                        Issuer::gaussian(default_region),
                        RangeSpec::square(DEFAULT_W),
                        qp,
                        CipqStrategy::PExpanded,
                    )
                    .with_integrator(Integrator::MonteCarlo {
                        samples: PAPER_MC_SAMPLES_POINT,
                    }),
                ),
            };
            items.push(Item { class, query });
        }
    }
    items
}

/// Standing queries per catalog on the churn workload's writer.
pub const SUBSCRIPTIONS: usize = 16;
/// Safe-envelope margin of each standing query, in space units.
pub const SLACK: f64 = 100.0;

/// The standing C-IPQ and C-IUQ queries: uniform issuers of the Table 2
/// size centred on a fixed 4 × 4 grid over the space (the uncertain
/// catalog's grid shifted by half a cell), thresholds stepping through
/// the `Qp` sweep. Every commit re-evaluates all of them, so their cost
/// sets the pump's; fixed positions keep it the same in every run.
pub fn subscriptions() -> (Vec<PointRequest>, Vec<UncertainRequest>) {
    let cell = (SPACE.max.x - SPACE.min.x) / 4.0;
    let region = |k: usize, shift: f64| {
        let c = Point::new(
            SPACE.min.x + cell * ((k % 4) as f64 + shift),
            SPACE.min.y + cell * ((k / 4) as f64 + shift),
        );
        Issuer::uniform(Rect::centered(c, DEFAULT_U, DEFAULT_U))
    };
    let range = RangeSpec::square(DEFAULT_W);
    let points = (0..SUBSCRIPTIONS)
        .map(|k| {
            let qp = QP_SWEEP[k % QP_SWEEP.len()];
            PointRequest::cipq(region(k, 0.5), range, qp, CipqStrategy::MinkowskiSum)
        })
        .collect();
    let uncertain = (0..SUBSCRIPTIONS)
        .map(|k| {
            let qp = QP_SWEEP[k % QP_SWEEP.len()];
            UncertainRequest::ciuq(region(k, 0.25), range, qp, CiuqStrategy::RTreeMinkowski)
        })
        .collect();
    (points, uncertain)
}

/// Updates per UPDATE_BATCH on the churn workload (and in the ladder's
/// commit steps).
pub const BATCH: usize = 64;

/// Seed of the two datasets. They stand in for the paper's fixed
/// TIGER/Line files, so they are the same in every run; the run's seed
/// draws the queries and the update streams over them.
pub const DATASET_SEED: u64 = 2007;

/// The raw paper-scale datasets: 62 K California points and 53 K Long
/// Beach rectangles.
pub struct Raw {
    pub points: Vec<Point>,
    pub rects: Vec<Rect>,
}

impl Raw {
    pub fn paper() -> Raw {
        Raw {
            points: california_points(CALIFORNIA_SIZE, DATASET_SEED),
            rects: long_beach_rects(LONG_BEACH_SIZE, DATASET_SEED + 1),
        }
    }

    /// The first `1/divisor` of each dataset (the commit-size ladder's
    /// small catalog).
    pub fn fraction(&self, divisor: usize) -> Raw {
        Raw {
            points: self.points[..self.points.len() / divisor].to_vec(),
            rects: self.rects[..self.rects.len() / divisor].to_vec(),
        }
    }

    pub fn catalogs(&self) -> Catalogs {
        Catalogs {
            points: point_objects(&self.points),
            uncertain: uniform_objects(&self.rects),
        }
    }

    /// Update generators over this base, one per catalog.
    pub fn updates(&self, seed: u64) -> Updates {
        Updates {
            points: PointUpdateGen::from_base(&self.points, seed, UpdateMix::balanced()),
            rects: RectUpdateGen::from_base(&self.rects, seed, UpdateMix::balanced()),
        }
    }
}

/// Catalog objects (ids are dataset positions).
#[derive(Clone)]
pub struct Catalogs {
    pub points: Vec<PointObject>,
    pub uncertain: Vec<UncertainObject>,
}

/// The seeded arrive/depart/move streams of both catalogs.
pub struct Updates {
    pub points: PointUpdateGen,
    pub rects: RectUpdateGen,
}

impl Updates {
    pub fn point_batch(&mut self, n: usize) -> Vec<Update<PointObject>> {
        (0..n)
            .map(|_| match self.points.next_update() {
                PointUpdate::Arrive { id, loc } => Update::Arrive(PointObject::new(id, loc)),
                PointUpdate::Depart { id } => Update::Depart(ObjectId(id)),
                PointUpdate::Move { id, to } => Update::Move(PointObject::new(id, to)),
            })
            .collect()
    }

    pub fn rect_batch(&mut self, n: usize) -> Vec<Update<UncertainObject>> {
        (0..n)
            .map(|_| match self.rects.next_update() {
                RectUpdate::Arrive { id, region } => {
                    Update::Arrive(UncertainObject::new(id, UniformPdf::new(region)))
                }
                RectUpdate::Depart { id } => Update::Depart(ObjectId(id)),
                RectUpdate::Move { id, to } => {
                    Update::Move(UncertainObject::new(id, UniformPdf::new(to)))
                }
            })
            .collect()
    }
}

pub fn wire_points(batch: &[Update<PointObject>]) -> Vec<WireUpdate> {
    batch.iter().cloned().map(WireUpdate::Point).collect()
}

pub fn wire_rects(batch: &[Update<UncertainObject>]) -> Vec<WireUpdate> {
    batch.iter().cloned().map(WireUpdate::Uncertain).collect()
}

/// Splits a catalog by the cluster's id hash: slice `k` is what node
/// `k` of `n` owns.
pub fn partition<O: Clone>(objects: &[O], n: usize, id: impl Fn(&O) -> ObjectId) -> Vec<Vec<O>> {
    let mut parts = vec![Vec::new(); n];
    for o in objects {
        parts[iloc_core::serve::shard_of(id(o), n)].push(o.clone());
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_have_fixed_class_shares() {
        let count = |r: &[Class], c: Class| r.iter().filter(|&&x| x == c).count();
        let g = round(true);
        assert_eq!(g.len(), 48);
        assert_eq!(count(&g, Class::Ipq), 12);
        assert_eq!(count(&g, Class::Cipq), 12);
        assert_eq!(count(&g, Class::Iuq), 12);
        assert_eq!(count(&g, Class::Ciuq), 11);
        assert_eq!(count(&g, Class::GaussCipq), 1);
        let plain = round(false);
        assert_eq!(count(&plain, Class::Ipq), 12);
        assert_eq!(count(&plain, Class::GaussCipq), 0);
    }

    #[test]
    fn mix_is_a_function_of_the_seed() {
        let a = query_mix(3, 2, true);
        let b = query_mix(3, 2, true);
        let c = query_mix(4, 2, true);
        let regions = |m: &[Item]| m.iter().map(|i| i.issuer().region()).collect::<Vec<_>>();
        assert_eq!(regions(&a), regions(&b));
        assert_ne!(regions(&a), regions(&c));
    }
}
