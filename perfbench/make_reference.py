"""Long run behind the estimate-pca output check.

Prints the mean ED of the estimate-pca oracle over many standard-normal
datasets, its standard error, and the standard deviation of the per-dataset
means with the path sampling error removed: the EST_REFERENCE_* constants
in workloads.py.  Rerun after a change that deliberately moves ED values.

    python3 perfbench/make_reference.py
"""

import math

import run

workloads, _ = run.import_library()

import numpy as np  # noqa: E402

# the run behind the EST_REFERENCE_* constants: DATASETS datasets, each
# estimated CALLS times
DATASETS = 24
CALLS = 20


def main() -> None:
    means, path_vars = [], []
    for k in range(DATASETS):
        # dataset seeds far from the seeds benchmark runs use
        workload = workloads.EstimatePCA(10_000_000 + k)
        eds = []
        for i in range(CALLS):
            eds.extend(p.ed for p in workload.op(i).per_path)
        eds = np.asarray(eds)
        means.append(eds.mean())
        path_vars.append(eds.var(ddof=1) / eds.size)
    means = np.asarray(means)
    dataset_var = max(means.var(ddof=1) - float(np.mean(path_vars)), 0.0)
    print(f"EST_REFERENCE_MEAN = {means.mean():.4f}")
    print(f"EST_REFERENCE_SE = {means.std(ddof=1) / math.sqrt(means.size):.4f}")
    print(f"EST_REFERENCE_DATASET_SD = {math.sqrt(dataset_var):.4f}")
    print(f"# {DATASETS} datasets x {CALLS * workloads.EST_PATHS} paths each")


if __name__ == "__main__":
    main()
