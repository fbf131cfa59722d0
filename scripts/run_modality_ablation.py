"""Modality-mask ablation sweep for one submodel.

Usage:
    python scripts/run_modality_ablation.py [--config configs/reference.json]
                                            [--net tag|boundary|segment]

Trains the chosen net once per mask listed in the config's ablate section
and writes a CSV sorted by the per-net validation metric (tagging mAP for
the tag net, boundary F1 for the boundary net, scene F1 for the segment
net). A config, data or checkpoint error exits 2, 3 or 4 with the
scenestruct CLI's message.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scenestruct.cli import run_with_exit_codes
from scenestruct.config import load_experiment_config
from scenestruct.experiment import ABLATION_METRIC_NAMES, run_ablate, run_generate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="configs/reference.json")
    parser.add_argument("--net", default=None, choices=["tag", "boundary", "segment"])
    args = parser.parse_args()
    return run_with_exit_codes(lambda: run_ablation(args.config, args.net))


def run_ablation(config_path, net) -> None:
    cfg = load_experiment_config(config_path)
    if not cfg.paths.manifest.exists():
        print("corpus not found; generating it first")
        run_generate(cfg)
    csv_path, rows = run_ablate(cfg, net)
    net = net or cfg.ablate_net
    print(f"\n{ABLATION_METRIC_NAMES[net]} by modality mask (descending):")
    for mask, value in rows:
        name = "+".join(mask.modalities) or "length-only"
        print(f"  {name:<30} {value:.4f}")
    print(f"\nwrote {csv_path}")


if __name__ == "__main__":
    sys.exit(main())
