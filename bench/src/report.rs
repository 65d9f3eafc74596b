//! Metric names, units and directions, and the two output forms: an aligned
//! table for people and the one-line JSON result.

use rgae_obs::Json;

use crate::stats::{median, relative_spread, tail_percentile};

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's identity.
#[derive(Debug)]
pub struct Def {
    /// Name in the output and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics of the untraced pass that carry a regression bound:
/// the ones listed in `BENCHMARK.json` and in the result line.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", Lower),
    def("train_s", "s", Lower),
    def("epochs_per_s", "epoch/s", Higher),
    def("peak_rss_mb", "MB", Lower),
];

/// End-to-end metrics printed in the same table but given no bound, so kept
/// out of `BENCHMARK.json` and the result line. Clustering quality moves with
/// the seed far more than any bound allows (an R-GMM-VGAE draw on
/// pubmed-like can collapse to NMI 0), and a speed change must leave it bit
/// for bit unchanged anyway; the correctness gate checks it instead.
/// `fail_rate` is 0 on a healthy commit, so a bound taken as a share of it
/// means nothing; the result line carries it as `attempted` and `failed`.
pub const UNBOUNDED: &[Def] = &[
    def("acc", "fraction", Higher),
    def("nmi", "fraction", Higher),
    def("ari", "fraction", Higher),
    def("fail_rate", "fraction", Lower),
];

/// Per-layer metrics of the traced pass, as listed in `BENCHMARK.json`.
/// Directions of descriptive counts (edges, threads) are nominal.
pub const PER_LAYER: &[Def] = &[
    def("datasets.generate_s", "s", Lower),
    def("models.prep_s", "s", Lower),
    def("models.pretrain_s", "s", Lower),
    def("models.step_s", "s", Lower),
    def("models.steps", "count", Lower),
    def("autodiff.self_s", "s", Lower),
    def("linalg.decoder_s", "s", Lower),
    def("linalg.decoder_calls", "count", Lower),
    def("linalg.decoder_pairs", "count", Lower),
    def("linalg.decoder_gflops", "GFLOP", Lower),
    def("linalg.matmul_s", "s", Lower),
    def("linalg.matmul_calls", "count", Lower),
    def("linalg.spmm_s", "s", Lower),
    def("linalg.spmm_calls", "count", Lower),
    def("par.threads", "count", Higher),
    def("par.kernel_calls", "count", Lower),
    def("cluster.kmeans_s", "s", Lower),
    def("cluster.kmeans_calls", "count", Lower),
    def("cluster.kmeans_iters", "count", Lower),
    def("cluster.gmm_s", "s", Lower),
    def("cluster.eval_s", "s", Lower),
    def("core.xi_s", "s", Lower),
    def("core.xi_calls", "count", Lower),
    def("core.upsilon_s", "s", Lower),
    def("core.upsilon_calls", "count", Lower),
    def("core.edges_added", "count", Higher),
    def("core.edges_dropped", "count", Higher),
    def("core.omega_coverage", "fraction", Higher),
    def("core.record_s", "s", Lower),
    def("core.epochs", "count", Lower),
    def("core.epoch_ms_p50", "ms", Lower),
    def("core.epoch_ms_p99", "ms", Lower),
    def("ckpt.saves", "count", Lower),
    def("ckpt.bytes", "B", Lower),
    def("ckpt.save_ms", "ms", Lower),
    def("ckpt.load_ms", "ms", Lower),
    def("guard.trips", "count", Lower),
    def("obs.overhead_pct", "%", Lower),
];

/// Look a metric up by name in `defs`.
pub fn find(defs: &'static [Def], name: &str) -> &'static Def {
    defs.iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("unknown metric {name}"))
}

/// One measured metric: the median of its samples.
#[derive(Debug)]
pub struct Value {
    /// What was measured.
    pub def: &'static Def,
    /// Median of the samples.
    pub value: f64,
    /// Sample count behind `value`.
    pub samples: usize,
    /// Highest percentile with at least ten samples beyond it, and its value.
    pub tail: Option<(f64, f64)>,
    /// Interquartile range over the median, from two samples on.
    pub spread: Option<f64>,
}

impl Value {
    /// Summarise samples; an empty sample set reads 0.
    pub fn of(def: &'static Def, samples: &[f64]) -> Value {
        Value {
            def,
            value: median(samples).unwrap_or(0.0),
            samples: samples.len(),
            tail: tail_percentile(samples),
            spread: relative_spread(samples),
        }
    }

    /// A single value that is itself an aggregate of `samples` inputs (a
    /// mean over runs, a ratio over attempts).
    pub fn single(def: &'static Def, value: f64, samples: usize) -> Value {
        Value {
            def,
            value,
            samples,
            tail: None,
            spread: None,
        }
    }
}

/// Aligned table: name, unit, direction, median, tail percentile, spread,
/// samples.
pub fn table<'a>(title: &str, values: impl IntoIterator<Item = &'a Value>) -> String {
    let dash = || "-".to_owned();
    let rows: Vec<[String; 7]> = values
        .into_iter()
        .map(|v| {
            [
                v.def.name.to_owned(),
                v.def.unit.to_owned(),
                v.def.better.as_str().to_owned(),
                format!("{:.6}", v.value),
                v.tail.map_or_else(dash, |(p, x)| format!("p{p}={x:.6}")),
                v.spread.map_or_else(dash, |s| format!("{s:.3}")),
                v.samples.to_string(),
            ]
        })
        .collect();
    let header = [
        "metric", "unit", "better", "median", "tail", "iqr/med", "samples",
    ];
    let mut widths = header.map(str::len);
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: [&str; 7]| {
        let mut s = String::from(" ");
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!(" {c:<w$}"));
        }
        s.trim_end().to_owned()
    };
    let mut out = format!("== {title} ==\n{}\n", line(header));
    for row in &rows {
        out.push_str(&line(row.each_ref().map(String::as_str)));
        out.push('\n');
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`,
/// each metric as `{"value": v, "unit": u}` under the name given with it.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    values: &[(String, Value)],
) -> String {
    let metrics = values
        .iter()
        .map(|(name, v)| {
            (
                name.clone(),
                Json::Obj(vec![
                    ("value".to_owned(), Json::Num(v.value)),
                    ("unit".to_owned(), Json::Str(v.def.unit.to_owned())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::Int(attempted as i64)),
        ("failed".to_owned(), Json::Int(failed as i64)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// `(name, unit, better)` of every metric in a `BENCHMARK.json` list.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn defs(list: &[Def]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    d.better.as_str().to_owned(),
                )
            })
            .collect()
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let all: Vec<&Def> = END_TO_END
            .iter()
            .chain(UNBOUNDED)
            .chain(PER_LAYER)
            .collect();
        for d in &all {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the bench dir");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), defs(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), defs(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        let ours: Vec<String> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name().to_owned())
            .collect();
        assert_eq!(workloads, ours);
        // Every end-to-end metric carries a bound of at most 0.25.
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let values: Vec<(String, Value)> = END_TO_END
            .iter()
            .map(|d| (d.name.to_owned(), Value::of(d, &[1.5, 2.5, 3.25])))
            .collect();
        let line = result_line(true, 12, 0, &values);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::as_i64), Some(12));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, m), d) in metrics.iter().zip(END_TO_END) {
            assert_eq!(name, d.name);
            let Json::Obj(inner) = m else { panic!() };
            assert_eq!(inner.len(), 2);
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(2.5));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
        }
    }

    #[test]
    fn table_shows_unit_direction_and_sample_count() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = table(
            "w",
            &[
                Value::of(find(END_TO_END, "train_s"), &samples),
                Value::single(find(UNBOUNDED, "fail_rate"), 0.0, 12),
            ],
        );
        let train = t.lines().find(|l| l.contains("train_s")).unwrap();
        let cells: Vec<&str> = train.split_whitespace().collect();
        assert_eq!(
            cells,
            [
                "train_s",
                "s",
                "lower",
                "20.500000",
                "p75=30.000000",
                "1.000",
                "40"
            ]
        );
        let fail = t.lines().find(|l| l.contains("fail_rate")).unwrap();
        let cells: Vec<&str> = fail.split_whitespace().collect();
        assert_eq!(cells[4..], ["-", "-", "12"]);
    }
}
