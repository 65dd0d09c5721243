"""One set-up, as every pdsr CLI command pays it before its first result.

    python3 bench/setup_probe.py MANIFEST FEATURES CANON SYNTH_INDEX SYNTH_FEATURES

Imports pdsr, loads the dataset, canon and synthetic index, and validates
the dataset; exits 1 if validation reports an issue.  The benchmark times
this process from start to exit.
"""

import sys

from pdsr import dataset_io
from pdsr.model import validate_dataset
from pdsr.providers import file_backed_provider


def main(manifest, features, canon_path, synth_index, synth_features) -> int:
    dataset = dataset_io.load_dataset(manifest, features)
    canon = dataset_io.load_canon(canon_path)
    file_backed_provider(synth_index, synth_features)
    issues = validate_dataset(dataset.tracklets, canon, expected_dim=dataset.feature_dim,
                              expected_joints=dataset.joint_count)
    return 1 if issues else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
