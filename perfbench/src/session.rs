//! The analyst's session at the end of `geolife_pipeline`.
//!
//! After a build is persisted, the catalog is read back and one analyst
//! explores it in a closed loop, over a series of exploration sessions
//! laid out by `ZoomWorkload::session`: one overview, then deep zooms, the
//! shape of the paper's Table I / Figure 1 workloads. A medium zoom (the
//! level of the user-study density questions in `vas-user-sim`) comes
//! before every deep one, and the overview returns every `ZOOMED` deep
//! zooms. Each viewport is answered from the catalog under a point budget
//! and rendered before the next is issued; every `EXACT_EVERY`th is also
//! answered exactly from the base table through `VizEngine::query` and
//! rendered.

use crate::trace::Spans;
use crate::{bitwise_eq, Tally};
use std::time::Instant;
use vas_data::{BoundingBox, Dataset, Point, ZoomLevel, ZoomWorkload};
use vas_sampling::Sample;
use vas_storage::{SampleCatalog, Table, VizEngine, VizQuery};
use vas_viz::{ScatterRenderer, Viewport};

/// Canvas the analyst looks at.
const CANVAS: (usize, usize) = (640, 480);

/// Deep zooms per exploration session, as in the interactive dashboard
/// example; each follows a medium zoom, so a session has 7 viewports.
const ZOOMED: usize = 3;

/// Salt of the medium zooms' seed, so their anchors differ from the deep
/// zooms'.
const MEDIUM_SALT: u64 = 0x6d65_6469_756d;

/// Every this many viewports is also answered exactly. Coprime to the
/// session's length (7), so exact answers visit every zoom level.
const EXACT_EVERY: usize = 16;

/// Renders of an empty point list timed after a traced phase, to separate
/// the fixed canvas cost from the per-point cost.
const BLANK_RENDERS: usize = 200;

/// What the session needs besides the catalog: the base table behind a
/// `VizEngine`, and the viewports.
pub(crate) struct View {
    engine: VizEngine,
    table: String,
    viewports: Vec<BoundingBox>,
}

impl View {
    /// Registers `dataset` as a table and lays out `count` viewports.
    pub(crate) fn new(dataset: &Dataset, seed: u64, count: usize) -> Self {
        let zoomed = count.div_ceil(1 + 2 * ZOOMED) * ZOOMED;
        let zooms = ZoomWorkload::new(seed).session(dataset, zoomed);
        let medium =
            ZoomWorkload::new(seed ^ MEDIUM_SALT).regions(dataset, ZoomLevel::Medium, zoomed);
        let viewports = match zooms.split_first() {
            Some((overview, deep)) => deep
                .chunks(ZOOMED)
                .zip(medium.chunks(ZOOMED))
                .flat_map(|(deep, medium)| {
                    let zooms = medium.iter().zip(deep).flat_map(|(m, d)| [m, d]);
                    std::iter::once(overview).chain(zooms)
                })
                .map(|r| r.viewport)
                .take(count)
                .collect(),
            None => Vec::new(),
        };
        let mut engine = VizEngine::new();
        engine.register_table(Table::from_dataset(dataset));
        Self {
            engine,
            table: dataset.name.clone(),
            viewports,
        }
    }
}

/// One answered viewport.
pub(crate) struct Answer {
    pub query_ms: f64,
    pub render_ms: f64,
    pub points: usize,
}

impl Answer {
    /// Query plus render: what the analyst waits for.
    pub fn ms(&self) -> f64 {
        self.query_ms + self.render_ms
    }
}

/// The answers of one or more sessions.
#[derive(Default)]
pub(crate) struct Answers {
    pub budgeted: Vec<Answer>,
    pub exact: Vec<Answer>,
}

impl Answers {
    /// Wall time of every answer, in seconds.
    pub fn total_s(&self) -> f64 {
        self.budgeted
            .iter()
            .chain(&self.exact)
            .map(Answer::ms)
            .sum::<f64>()
            * 1e-3
    }
}

fn in_region(region: &BoundingBox, p: &Point) -> bool {
    p.x >= region.min_x && p.x <= region.max_x && p.y >= region.min_y && p.y <= region.max_y
}

/// A budgeted answer must be the brute-force filter of the sample that
/// was built, all inside the viewport.
fn check_budgeted(built: &Sample, region: &BoundingBox, points: &[Point]) -> Result<(), String> {
    let expected: Vec<Point> = built
        .points
        .iter()
        .filter(|p| in_region(region, p))
        .copied()
        .collect();
    if bitwise_eq(points, &expected) {
        Ok(())
    } else {
        Err(format!(
            "{} points returned, the built sample has {} in the viewport",
            points.len(),
            expected.len()
        ))
    }
}

/// An exact answer must hold every table row in the viewport.
fn check_exact(
    dataset: &Dataset,
    region: &BoundingBox,
    points: &[Point],
    from_sample: bool,
) -> Result<(), String> {
    let expected = dataset
        .points
        .iter()
        .filter(|p| in_region(region, p))
        .count();
    if from_sample || points.len() != expected || !points.iter().all(|p| in_region(region, p)) {
        return Err(format!(
            "{} points returned (from_sample = {from_sample}), {expected} rows are in the viewport",
            points.len()
        ));
    }
    Ok(())
}

/// Replays the session once against `catalog`, appending to `answers`.
/// Only the query and the render of each viewport are timed; the checks
/// run between them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replay(
    view: &View,
    dataset: &Dataset,
    catalog: &SampleCatalog,
    built: &Sample,
    spans: &Spans,
    tally: &mut Tally,
    plant: &mut bool,
    answers: &mut Answers,
) {
    let renderer = ScatterRenderer::default_style();
    for (i, region) in view.viewports.iter().enumerate() {
        let viewport = Viewport::new(*region, CANVAS.0, CANVAS.1);
        let t0 = Instant::now();
        let points = {
            let _s = spans.span("storage.query");
            catalog
                .best_within(built.target_size)
                .map(|s| s.filter_region(region))
        };
        let t1 = Instant::now();
        if let Some(points) = &points {
            let _s = spans.span("viz.render");
            std::hint::black_box(renderer.render_points(points, &viewport));
        }
        let t2 = Instant::now();
        {
            let _c = spans.span("bench.check");
            let checked = match points {
                Some(mut points) => {
                    if std::mem::take(plant) {
                        points.pop();
                    }
                    answers.budgeted.push(answer(t0, t1, t2, points.len()));
                    check_budgeted(built, region, &points)
                }
                None => Err("the catalog has no sample within the budget".into()),
            };
            tally.record("budgeted viewport", checked);
        }

        if (i + 1) % EXACT_EVERY != 0 {
            continue;
        }
        let query = VizQuery::full(view.table.as_str()).in_region(*region);
        let t0 = Instant::now();
        let result = {
            let _s = spans.span("storage.exact_query");
            view.engine.query(&query)
        };
        let t1 = Instant::now();
        if let Ok(r) = &result {
            let _s = spans.span("viz.exact_render");
            std::hint::black_box(renderer.render_points(&r.points, &viewport));
        }
        let t2 = Instant::now();
        let _c = spans.span("bench.check");
        let checked = result.map_err(|e| e.to_string()).and_then(|r| {
            answers.exact.push(answer(t0, t1, t2, r.points.len()));
            check_exact(dataset, region, &r.points, r.from_sample)
        });
        tally.record("exact viewport", checked);
    }
}

/// An answer queried from `t0` to `t1` and rendered from `t1` to `t2`.
fn answer(t0: Instant, t1: Instant, t2: Instant, points: usize) -> Answer {
    Answer {
        query_ms: (t1 - t0).as_secs_f64() * 1e3,
        render_ms: (t2 - t1).as_secs_f64() * 1e3,
        points,
    }
}

/// Renders no points `BLANK_RENDERS` times under `viz.blank_canvas`;
/// returns each render's wall time in milliseconds.
pub(crate) fn blank_canvas(dataset: &Dataset, spans: &Spans) -> Vec<f64> {
    let renderer = ScatterRenderer::default_style();
    let viewport = Viewport::new(dataset.bounds(), CANVAS.0, CANVAS.1);
    (0..BLANK_RENDERS)
        .map(|_| {
            let _s = spans.span("viz.blank_canvas");
            let t0 = Instant::now();
            std::hint::black_box(renderer.render_points(&[], &viewport));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}
