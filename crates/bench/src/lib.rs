//! Benchmark and experiment harness for the ANSMET reproduction.
//!
//! The `experiments` binary regenerates every table and figure of the
//! paper's evaluation; the Criterion benches cover the micro-kernels
//! (distance computation, lower bounds, layout transform, the DRAM
//! simulator, and HNSW search).

use ansmet_sim::experiment as e;
pub use ansmet_sim::experiment::{Scale, Suite};

pub mod ops;

pub use ops::ops_experiment;

/// Default artifact file written by the `serve` experiment.
pub const SERVING_ARTIFACT: &str = "BENCH_serving.json";
/// Default artifact file written by the `resilience` experiment.
pub const RESILIENCE_ARTIFACT: &str = "BENCH_resilience.json";
/// Default artifact file written by the `freshness` experiment.
pub const FRESHNESS_ARTIFACT: &str = "BENCH_freshness.json";
/// Perfetto trace written by the `trace` experiment.
pub const TRACE_ARTIFACT: &str = "trace.json";
/// Metrics snapshot written by the `trace` experiment.
pub const METRICS_ARTIFACT: &str = "BENCH_metrics.json";
/// Ops-plane artifact written by the `ops` experiment.
pub const OPS_ARTIFACT: &str = "BENCH_ops.json";
/// Prometheus text exposition written by the `ops` experiment.
pub const OPS_EXPOSITION_ARTIFACT: &str = "BENCH_ops.prom";
/// Sharded-cluster artifact written by the `cluster` experiment.
pub const CLUSTER_ARTIFACT: &str = "BENCH_cluster.json";

/// One file an experiment wants written next to its text report.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Default output path (relative to the working directory).
    pub path: &'static str,
    /// File body, already rendered.
    pub body: String,
}

/// An experiment: its text report plus the artifacts it wants written.
pub type Experiment = fn(&Suite) -> (String, Vec<Artifact>);

/// Every experiment the `experiments` binary runs, in suite order. `serve`,
/// `resilience`, `freshness` and `cluster` write their report JSON; `ops`
/// writes its JSON and a Prometheus exposition; `trace` writes a Perfetto
/// trace and a metrics snapshot; everything else writes no artifact. BENCH
/// JSON artifacts carry a provenance header (git revision + config
/// fingerprint).
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table2", |s| text(e::table2(s.scale))),
    ("fig1", |s| text(e::fig1(s))),
    ("fig3", |s| text(e::fig3(s.scale))),
    ("fig6", |s| text(e::fig6(s))),
    ("fig7", |s| text(e::fig7(s))),
    ("fig8", |s| text(e::fig8(s))),
    ("fig9", |s| text(e::fig9(s))),
    ("fig10", |s| text(e::fig10(s))),
    ("fig11", |s| text(e::fig11(s))),
    ("fig12", |s| text(e::fig12(s))),
    ("table3", |s| text(e::table3(s))),
    ("table4", |s| text(e::table4(s))),
    ("table5", |s| text(e::table5(s))),
    ("loadbal", |s| text(e::loadbal(s))),
    ("ablation", |s| text(e::ablation(s))),
    ("faults", |s| text(e::faults(s))),
    ("serve", |s| {
        let (text, json) = ansmet_serve::serve_experiment(s);
        (text, vec![bench(SERVING_ARTIFACT, &json)])
    }),
    ("resilience", |s| {
        let (text, json) = ansmet_serve::resilience_experiment(s);
        (text, vec![bench(RESILIENCE_ARTIFACT, &json)])
    }),
    ("trace", |s| {
        let b = e::trace_bundle(s);
        let trace = Artifact {
            path: TRACE_ARTIFACT,
            body: b.perfetto_json,
        };
        (
            b.report,
            vec![trace, bench(METRICS_ARTIFACT, &b.metrics_json)],
        )
    }),
    ("freshness", |s| {
        let (text, json) = ansmet_freshness::freshness_experiment(s.scale);
        (text, vec![bench(FRESHNESS_ARTIFACT, &json)])
    }),
    ("ops", |s| {
        let (text, json, expo) = ops_experiment(s);
        let expo = Artifact {
            path: OPS_EXPOSITION_ARTIFACT,
            body: expo,
        };
        (text, vec![bench(OPS_ARTIFACT, &json), expo])
    }),
    ("cluster", |s| {
        let (text, json) = ansmet_cluster::cluster_experiment(s.scale);
        (text, vec![bench(CLUSTER_ARTIFACT, &json)])
    }),
];

/// The experiment called `name`, if there is one.
pub fn experiment(name: &str) -> Option<Experiment> {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, f)| f)
}

/// A text-only experiment result.
fn text(report: String) -> (String, Vec<Artifact>) {
    (report, Vec::new())
}

/// A BENCH JSON artifact with its provenance header.
fn bench(path: &'static str, json: &str) -> Artifact {
    Artifact {
        path,
        body: with_provenance(json),
    }
}

/// The git revision of the working tree (`git describe --always
/// --dirty`), or `"unknown"` outside a repository.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a fingerprint of the default [`SystemConfig`] — changes whenever
/// any simulated parameter changes, so artifacts record which modeled
/// machine produced them. It hashes the default config, not
/// [`Suite::config`], so it is the same for every `--threads` value.
///
/// [`SystemConfig`]: ansmet_sim::SystemConfig
pub fn config_fingerprint() -> u64 {
    let cfg = ansmet_sim::SystemConfig::default();
    ansmet_obs::fingerprint64(format!("{cfg:?}").as_bytes())
}

/// The provenance fields embedded in every BENCH JSON artifact, as
/// `"key": value` lines (no surrounding braces).
pub fn provenance_fields() -> String {
    format!(
        "  \"git_revision\": {},\n  \"config_fingerprint\": \"{:#018x}\",\n",
        ansmet_obs::json_string(&git_revision()),
        config_fingerprint(),
    )
}

/// Insert the provenance fields at the top of a JSON object body
/// (which must start with `{`).
pub fn with_provenance(body: &str) -> String {
    let rest = body
        .strip_prefix("{\n")
        .or_else(|| body.strip_prefix('{'))
        .expect("artifact body is a JSON object");
    format!("{{\n{}{}", provenance_fields(), rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_none() {
        assert!(experiment("fig99").is_none());
    }

    #[test]
    fn experiment_list_is_complete() {
        assert_eq!(EXPERIMENTS.len(), 22);
        for name in ["resilience", "freshness", "ops", "cluster", "trace"] {
            assert!(experiment(name).is_some(), "{name} missing");
        }
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
    }

    #[test]
    fn serve_and_trace_emit_artifacts_and_others_do_not() {
        let suite = Suite::new(Scale::Quick, 1);
        let (text, artifacts) = experiment("serve").unwrap()(&suite);
        assert!(text.contains("serving"));
        assert_eq!(artifacts.len(), 1);
        assert_eq!(artifacts[0].path, SERVING_ARTIFACT);
        assert!(artifacts[0].body.contains("\"experiment\": \"serve\""));
        assert!(artifacts[0].body.contains("\"git_revision\""));

        let (text, artifacts) = experiment("trace").unwrap()(&suite);
        assert!(text.contains("cycle attribution"));
        assert_eq!(artifacts.len(), 2);
        assert_eq!(artifacts[0].path, TRACE_ARTIFACT);
        assert!(artifacts[0].body.contains("\"traceEvents\""));
        assert_eq!(artifacts[1].path, METRICS_ARTIFACT);
        assert!(artifacts[1].body.contains("\"config_fingerprint\""));

        let (_, none) = experiment("table2").unwrap()(&suite);
        assert!(none.is_empty());
    }

    #[test]
    fn provenance_injection_preserves_json_shape() {
        let body = "{\n  \"experiment\": \"x\"\n}\n";
        let out = with_provenance(body);
        assert!(out.starts_with("{\n  \"git_revision\": "));
        assert!(out.contains("\"config_fingerprint\": \"0x"));
        assert!(out.ends_with("  \"experiment\": \"x\"\n}\n"));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }

    #[test]
    fn config_fingerprint_is_stable_within_a_build() {
        assert_eq!(config_fingerprint(), config_fingerprint());
        assert_ne!(config_fingerprint(), 0);
    }
}
