"""Names and units of every metric the benchmark reports.

``END_TO_END`` is what an untraced run (``--trace 0``) puts in its result
line, on every workload; ``PER_LAYER`` is what a traced run (``--trace 1``)
puts there. BENCHMARK.json lists the same names and units.
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "rows_per_s": "rows/s",
    "task_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "share",
    "quality_score": "share",
}

VARIANTS = ("phase1-only", "phase2-only", "random-cofactor", "identity-vitamin")
SUITE = tuple(f"F{i}" for i in range(1, 11))

PER_LAYER = {
    "numkit.matmul_us": "us",
    "numkit.softmax_rows_us": "us",
    "numkit.relu_us": "us",
    "numkit.mean_all_us": "us",
    "numkit.as_matrix_calls_per_eval": "count",
    "model.forward_us": "us",
    "model.forward_self_us": "us",
    "model.phase1_us": "us",
    "model.phase2_us": "us",
    "model.embed_trainable_us": "us",
    "model.forward_calls": "count",
    "model.forward_gflops": "GFLOP/s-computed",
    "model.forward_flops_per_call": "FLOP-computed",
    "model.forward_bytes_per_call": "B-computed",
    **{f"model.forward_us.{v}": "us" for v in VARIANTS},
    "model.load_model_ms": "ms",
    "model.predict_us_per_row": "us",
    "metrics.log_loss_us": "us",
    "metrics.score_ms": "ms",
    "optimizers.step_us": "us",
    "optimizers.objective_share": "share",
    "optimizers.evals": "count",
    "optimizers.improve_ratio": "share",
    **{f"cec2019.{fid}_us": "us" for fid in SUITE},
    "data.load_dataset_ms": "ms",
    "data.stratified_kfold_ms": "ms",
    "data.preprocess_ms": "ms",
    "data.load_csv_ms": "ms",
    "experiments.fold_train_s": "s",
    "experiments.fold_self_ms": "ms",
    "experiments.write_reports_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.self_share": "share",
}

# Per-layer counts: a workload that never calls the layer reports 0. Every
# other per-layer metric is taken from the probe on such a workload.
COUNTS = (
    "numkit.as_matrix_calls_per_eval",
    "model.forward_calls",
    "model.forward_flops_per_call",
    "model.forward_bytes_per_call",
    "optimizers.evals",
)
