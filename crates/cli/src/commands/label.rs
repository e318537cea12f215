//! `ranking-facts label` — produce a nutritional label (Figure 1).

use crate::args::{parse_attribute_value, ParsedArgs};
use crate::commands::{build_scoring, load_input, write_or_return};
use crate::error::{CliError, CliResult};
use rf_core::{AnalysisPipeline, IngredientsMethod, LabelConfig, NutritionalLabel};
use std::sync::Arc;

const ALLOWED: &[&str] = &[
    "dataset",
    "data",
    "rows",
    "seed",
    "score",
    "normalize",
    "sensitive",
    "diversity",
    "k",
    "ks",
    "alpha",
    "ingredients",
    "method",
    "stability-threshold",
    "trials",
    "data-noise",
    "weight-noise",
    "mc-seed",
    "mc-deadline",
    "relaxed-fp",
    "format",
    "out",
    "cache-dir",
    "cache-disk-bytes",
];

/// Default size bound for `--cache-dir` (64 MiB — one-shot CLI runs rarely
/// need more).
const DEFAULT_CACHE_DISK_BYTES: u64 = 64 * 1024 * 1024;

/// Runs the command.
///
/// With `--ks 5,10,20` the command produces one label per audited prefix
/// size, backed by [`AnalysisPipeline::generate_sweep`]: the ranking and the
/// shared analysis context are computed once and re-rendered per `k`
/// (byte-identical to running the command once per size).
///
/// # Errors
/// Returns a usage error for malformed options or an execution error from the
/// label pipeline (unknown columns, non-binary sensitive attributes, ...).
pub fn run(args: &ParsedArgs) -> CliResult<String> {
    args.reject_unknown(ALLOWED)?;
    if args.get("k").is_some() && args.get("ks").is_some() {
        return Err(CliError::usage(
            "give either `--k N` or `--ks N,N,...`, not both",
        ));
    }
    let (table, name) = load_input(args)?;
    let config = build_config(args, name)?;
    let format = args.get("format").unwrap_or("text");
    if !matches!(format, "text" | "json" | "html") {
        return Err(CliError::usage(format!(
            "unknown format `{format}` (available: text, json, html)"
        )));
    }
    // The command owns its table, so it hands it straight to the parallel
    // pipeline without the copy `NutritionalLabel::generate` would make, on
    // a pool of its own that lives as long as the run.
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .clamp(2, 32);
    let pipeline = AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(workers)));
    let table = Arc::new(table);
    let config = Arc::new(config);
    let sweep = args.get("ks").is_some();
    // `--cache-dir` reuses labels across one-shot runs through the same
    // crash-safe disk tier the server uses.  Sweeps stay on the pipeline
    // path (the bulk renderer shares one prepared context; per-k disk
    // probes would cost more than they save).
    if !sweep {
        if let Some(dir) = args.get("cache-dir") {
            let max_bytes = args.get_u64("cache-disk-bytes", DEFAULT_CACHE_DISK_BYTES)?;
            let store = rf_store::DiskStore::open(dir, max_bytes)
                .map_err(|err| CliError::execution(format!("cache dir `{dir}`: {err}")))?;
            let service = rf_core::LabelService::with_pipeline(pipeline, 8, 1 << 22)
                .with_disk_tier(Arc::new(store));
            let cached = service
                .label(&table, &config)
                .map_err(CliError::execution)?;
            let rendered = match format {
                "json" => cached.json.as_ref().clone(),
                "html" => cached.label.to_html(),
                _ => cached.label.to_text(),
            };
            // Dropping the service joins the store's write-behind thread,
            // so the fill is durable before the process exits.
            drop(service);
            return write_or_return(args, rendered);
        }
    }
    let labels = match args.get("ks") {
        Some(spec) => {
            let ks = parse_ks(spec)?;
            pipeline
                .generate_sweep(table, config, &ks)
                .map_err(CliError::execution)?
        }
        None => vec![pipeline
            .generate(table, config)
            .map_err(CliError::execution)?],
    };
    let rendered = match format {
        "json" => {
            let mut documents = Vec::with_capacity(labels.len());
            for label in &labels {
                documents.push(label.to_json().map_err(CliError::execution)?);
            }
            if sweep {
                // A sweep always renders as one JSON array of label
                // documents, even for a single k, so scripted consumers see
                // one stable shape.
                format!("[\n{}\n]", documents.join(",\n"))
            } else {
                documents.pop().expect("one label")
            }
        }
        "html" => labels
            .iter()
            .map(NutritionalLabel::to_html)
            .collect::<Vec<_>>()
            .join("\n"),
        _ => labels
            .iter()
            .map(NutritionalLabel::to_text)
            .collect::<Vec<_>>()
            .join("\n"),
    };
    write_or_return(args, rendered)
}

/// Parses `--ks 5,10,20` into prefix sizes (at least one required).
fn parse_ks(spec: &str) -> CliResult<Vec<usize>> {
    let mut ks = Vec::new();
    for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
        let k: usize = entry.trim().parse().map_err(|_| {
            CliError::usage(format!("`--ks` expects integers, got `{}`", entry.trim()))
        })?;
        ks.push(k);
    }
    if ks.is_empty() {
        return Err(CliError::usage(
            "`--ks` must list at least one prefix size (e.g. `--ks 5,10,20`)",
        ));
    }
    Ok(ks)
}

/// Builds the [`LabelConfig`] shared by `label` and `mitigate`.
///
/// The Monte-Carlo stability detail is tunable without recompiling:
/// `--trials N` (0 disables the detail view), `--data-noise F` /
/// `--weight-noise F` (fractions), `--mc-seed S`, `--mc-deadline MS`
/// (wall-clock budget in milliseconds — past it, the label ships the trials
/// that completed, flagged truncated), and `--relaxed-fp BOOL` (allow the
/// trial kernel to reassociate float reductions for SIMD; scores may differ
/// from the exact path by ~1e-9 relative) map straight onto
/// [`rf_core::MonteCarloConfig`].
pub(crate) fn build_config(args: &ParsedArgs, dataset_name: String) -> CliResult<LabelConfig> {
    let scoring = build_scoring(args)?;
    let defaults = rf_core::MonteCarloConfig::default();
    let deadline = match args.get("mc-deadline") {
        Some(raw) => Some(raw.parse::<u64>().map_err(|_| {
            CliError::usage(format!(
                "`--mc-deadline` expects whole milliseconds, got `{raw}`"
            ))
        })?),
        None => None,
    };
    let mut config = LabelConfig::new(scoring)
        .with_top_k(args.get_usize("k", 10)?)
        .with_alpha(args.get_f64("alpha", 0.05)?)
        .with_stability_threshold(args.get_f64("stability-threshold", 0.25)?)
        .with_ingredient_count(args.get_usize("ingredients", 3)?)
        .with_monte_carlo_trials(args.get_usize("trials", defaults.trials)?)
        .with_monte_carlo_noise(
            args.get_f64("data-noise", defaults.data_noise)?,
            args.get_f64("weight-noise", defaults.weight_noise)?,
        )
        .with_monte_carlo_seed(args.get_u64("mc-seed", defaults.seed)?)
        .with_monte_carlo_deadline_millis(deadline)
        .with_monte_carlo_relaxed_fp(args.get_bool("relaxed-fp", defaults.relaxed_fp)?)
        .with_dataset_name(dataset_name);
    config = match args.get("method") {
        None | Some("linear") => config,
        Some("rank-aware") => {
            config.with_ingredients_method(IngredientsMethod::RankAwareSimilarity)
        }
        Some(other) => {
            return Err(CliError::usage(format!(
                "unknown ingredients method `{other}` (available: linear, rank-aware)"
            )))
        }
    };
    for spec in args.get_all("sensitive") {
        let (attribute, value) = parse_attribute_value(spec)?;
        config = config.with_sensitive_attribute(attribute, [value]);
    }
    for attribute in args.get_all("diversity") {
        config = config.with_diversity_attribute(attribute.to_string());
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ParsedArgs;

    fn cs_args(extra: &[&str]) -> ParsedArgs {
        let mut tokens = vec![
            "label",
            "--dataset",
            "cs",
            "--rows",
            "60",
            "--seed",
            "42",
            "--score",
            "PubCount=0.4,Faculty=0.4,GRE=0.2",
            "--sensitive",
            "DeptSizeBin=small",
            "--diversity",
            "DeptSizeBin",
            "--diversity",
            "Region",
        ];
        tokens.extend_from_slice(extra);
        ParsedArgs::parse(tokens).unwrap()
    }

    #[test]
    fn text_label_contains_all_widgets() {
        let out = run(&cs_args(&[])).unwrap();
        assert!(out.contains("Recipe"));
        assert!(out.contains("Ingredients"));
        assert!(out.contains("Stability"));
        assert!(out.contains("Fairness"));
        assert!(out.contains("Diversity"));
    }

    #[test]
    fn json_label_parses_and_names_the_dataset() {
        let out = run(&cs_args(&["--format", "json"])).unwrap();
        let value: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(value["dataset_name"]
            .as_str()
            .unwrap()
            .contains("CS departments"));
        assert!(value["fairness"].is_object() || value["fairness"].is_array());
    }

    #[test]
    fn html_label_is_well_formed_enough() {
        let out = run(&cs_args(&["--format", "html"])).unwrap();
        assert!(out.contains("<html"));
        assert!(out.contains("Fairness"));
    }

    #[test]
    fn ks_sweep_produces_one_label_per_size() {
        let out = run(&cs_args(&["--ks", "5,10,20", "--format", "json"])).unwrap();
        let value: serde_json::Value = serde_json::from_str(&out).unwrap();
        let labels = value.as_array().expect("a sweep renders a JSON array");
        assert_eq!(labels.len(), 3);
        for (label, expected_k) in labels.iter().zip([5u64, 10, 20]) {
            assert_eq!(label["config"]["top_k"].as_u64().unwrap(), expected_k);
            assert_eq!(
                label["top_k_rows"].as_array().unwrap().len() as u64,
                expected_k
            );
        }
    }

    #[test]
    fn ks_sweep_matches_independent_runs() {
        let sweep = run(&cs_args(&["--ks", "5,10", "--format", "json"])).unwrap();
        let value: serde_json::Value = serde_json::from_str(&sweep).unwrap();
        for (i, k) in ["5", "10"].into_iter().enumerate() {
            let single = run(&cs_args(&["--k", k, "--format", "json"])).unwrap();
            let single: serde_json::Value = serde_json::from_str(&single).unwrap();
            assert_eq!(value[i], single, "sweep entry {i} diverges from --k {k}");
        }
    }

    #[test]
    fn single_k_sweep_still_renders_an_array() {
        let out = run(&cs_args(&["--ks", "5", "--format", "json"])).unwrap();
        let value: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(value.as_array().expect("array even for one k").len(), 1);
    }

    #[test]
    fn ks_sweep_rejects_bad_specs() {
        assert!(run(&cs_args(&["--ks", "5,banana"])).is_err());
        assert!(run(&cs_args(&["--ks", ","])).is_err());
        // A k exceeding the dataset is an execution error, like --k.
        assert!(run(&cs_args(&["--ks", "5,100000"])).is_err());
        // --k and --ks conflict; rejecting beats silently dropping --k.
        assert!(run(&cs_args(&["--k", "7", "--ks", "5,10"])).is_err());
    }

    #[test]
    fn monte_carlo_flags_are_wired_into_the_config() {
        let out = run(&cs_args(&[
            "--trials",
            "7",
            "--data-noise",
            "0.1",
            "--weight-noise",
            "0.02",
            "--mc-seed",
            "9",
            "--format",
            "json",
        ]))
        .unwrap();
        let value: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(value["config"]["monte_carlo"]["trials"], 7);
        assert_eq!(value["config"]["monte_carlo"]["data_noise"], 0.1);
        assert_eq!(value["config"]["monte_carlo"]["weight_noise"], 0.02);
        assert_eq!(value["config"]["monte_carlo"]["seed"], 9);
        assert_eq!(value["stability"]["monte_carlo"]["trials"], 7);
        // The text render shows the detail too.
        let text = run(&cs_args(&["--trials", "7"])).unwrap();
        assert!(text.contains("monte carlo (7 trials"));
    }

    #[test]
    fn mc_deadline_flag_truncates_and_reports() {
        // A 0ms budget on a large trial count: the label still renders, the
        // detail reports a truncated trial prefix.
        let out = run(&cs_args(&[
            "--trials",
            "512",
            "--mc-deadline",
            "0",
            "--format",
            "json",
        ]))
        .unwrap();
        let value: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(value["config"]["monte_carlo"]["deadline_millis"], 0);
        let mc = &value["stability"]["monte_carlo"];
        assert_eq!(mc["truncated"], true);
        assert_eq!(mc["trials_requested"], 512);
        assert!(mc["trials"].as_u64().unwrap() < 512);
        // A generous budget completes everything.
        let out = run(&cs_args(&[
            "--trials",
            "16",
            "--mc-deadline",
            "60000",
            "--format",
            "json",
        ]))
        .unwrap();
        let value: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(value["stability"]["monte_carlo"]["truncated"], false);
        assert_eq!(value["stability"]["monte_carlo"]["trials"], 16);
        // Junk is a usage error.
        assert!(run(&cs_args(&["--mc-deadline", "soonish"])).is_err());
    }

    #[test]
    fn relaxed_fp_flag_reaches_the_config() {
        let out = run(&cs_args(&["--relaxed-fp", "true", "--format", "json"])).unwrap();
        let value: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(value["config"]["monte_carlo"]["relaxed_fp"], true);
        let out = run(&cs_args(&["--format", "json"])).unwrap();
        let value: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(value["config"]["monte_carlo"]["relaxed_fp"], false);
        assert!(run(&cs_args(&["--relaxed-fp", "sometimes"])).is_err());
    }

    #[test]
    fn zero_trials_disables_the_detail_view() {
        let out = run(&cs_args(&["--trials", "0", "--format", "json"])).unwrap();
        let value: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(value["stability"]["monte_carlo"].is_null());
        let text = run(&cs_args(&["--trials", "0"])).unwrap();
        assert!(!text.contains("monte carlo ("));
    }

    #[test]
    fn bad_monte_carlo_flags_are_usage_errors() {
        assert!(run(&cs_args(&["--trials", "many"])).is_err());
        assert!(run(&cs_args(&["--data-noise", "x"])).is_err());
        // Negative noise passes flag parsing but fails config validation.
        assert!(run(&cs_args(&["--data-noise", "-0.5"])).is_err());
    }

    #[test]
    fn rank_aware_method_is_accepted() {
        let out = run(&cs_args(&["--method", "rank-aware"])).unwrap();
        assert!(out.contains("rank-aware similarity"));
    }

    #[test]
    fn bad_options_are_usage_errors() {
        assert!(run(&cs_args(&["--format", "pdf"])).is_err());
        assert!(run(&cs_args(&["--method", "psychic"])).is_err());
        let args = ParsedArgs::parse(["label", "--dataset", "cs"]).unwrap();
        assert!(run(&args).is_err()); // missing --score
        let args = ParsedArgs::parse([
            "label",
            "--dataset",
            "cs",
            "--score",
            "PubCount=1.0",
            "--unknown",
            "1",
        ])
        .unwrap();
        assert!(run(&args).is_err());
    }

    #[test]
    fn cache_dir_reuses_labels_across_runs() {
        let dir = std::env::temp_dir().join(format!("rf-cli-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir.to_string_lossy().into_owned();
        // First run fills the disk tier (one durable entry)…
        let cold = run(&cs_args(&["--format", "json", "--cache-dir", &dir_arg])).unwrap();
        let entries = || {
            std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|ext| ext == "label"))
                .count()
        };
        assert_eq!(entries(), 1, "the fill is durable before the process exits");
        // …and a second, fresh run serves the identical bytes from it.
        let warm = run(&cs_args(&["--format", "json", "--cache-dir", &dir_arg])).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(entries(), 1, "write-once: no second file for the same key");
        // The other render formats work through the cached path too.
        let text = run(&cs_args(&["--cache-dir", &dir_arg])).unwrap();
        assert!(text.contains("Fairness"));
        // An unusable directory is an execution error, not a panic: the CLI
        // is explicit about --cache-dir, so (unlike the server's degraded
        // mode) silently ignoring it would hide a misconfiguration.
        let file = dir.join("plain-file");
        std::fs::write(&file, b"x").unwrap();
        let bad = file.join("nested").to_string_lossy().into_owned();
        let err = run(&cs_args(&["--cache-dir", &bad])).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn execution_errors_surface_pipeline_problems() {
        // Region has five values; the fairness widget requires binary attributes.
        let args = ParsedArgs::parse([
            "label",
            "--dataset",
            "cs",
            "--rows",
            "40",
            "--score",
            "PubCount=1.0",
            "--sensitive",
            "Region=NE",
        ])
        .unwrap();
        let err = run(&args).unwrap_err();
        assert_eq!(err.exit_code(), 1);
    }
}
