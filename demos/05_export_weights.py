"""Train briefly, then export the per-branch propagation matrices to CSV.

Each mixture layer holds one propagation matrix per branch. After training,
the branches have diverged; exporting them lets external tools compare what
each branch learned.
"""

import os
import tempfile

import numpy as np

from envgnn.config import TrainConfig
from envgnn.model import export_branch_weights
from envgnn.shiftgen import PlantedConfig, gen_planted_dataset
from envgnn.trainer import train


def main():
    dataset = gen_planted_dataset(PlantedConfig(n_per_domain=200, seed=2))
    cfg = TrainConfig(epochs=40, hidden=16, deterministic_eval=True)
    result = train(dataset, cfg)

    out_dir = tempfile.mkdtemp(prefix="branch_weights_")
    paths = export_branch_weights(result.params, layer=1, out_dir=out_dir)
    print(f"wrote {len(paths)} matrices to {out_dir}")
    for path in paths:
        w = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        print(f"  {os.path.basename(path)}: shape {w.shape}, "
              f"frobenius norm {np.linalg.norm(w):.3f}")


if __name__ == "__main__":
    main()
