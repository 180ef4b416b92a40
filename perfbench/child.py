"""Fresh-process helper for the benchmark.

    python3 perfbench/child.py setup PRESET
        import pimsner_lab, load the preset and validate it: the set-up
        every ``pimsner-lab`` call pays before its first suite.
    python3 perfbench/child.py job COMMAND PRESET N SEED CREATED
        run one CLI job at truncation N and write its JSON payload to
        stdout, exactly as ``cli.serialize`` prints it.

The BLAS thread count comes from the environment the parent sets.
"""

import os
import sys


def main(argv) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import pimsner_lab
    from pimsner_lab import cli

    mode, args = argv[0], argv[1:]
    if mode == "setup":
        (preset,) = args
        cli.load_spec(preset, None).validate_or_raise(seed=11)
        return 0
    if mode == "job":
        command, preset, big_n, seed, created = args
        spec = cli.load_spec(preset, None)
        spec.validate_or_raise(seed=11)
        cfg = cli.RunConfig(spec=spec, n_values=(int(big_n),), seed=int(seed))
        cli.serialize(cli.run(command, cfg, created=created), "json", None)
        return 0
    print(f"unknown mode {mode!r} (pimsner_lab {pimsner_lab.__version__})",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
