"""Run a fixed `defield` CLI sequence and print a sha256 for everything it leaves.

Usage:

    python tools/artifact_digests.py WORKDIR [--src SRC] > digests.txt

Every step runs `python -m defield.cli` with SRC (default: the `src`
directory next to this script) on PYTHONPATH and WORKDIR as its working
directory, with relative paths only, so two trees run into two empty
directories print the same lines exactly when they write the same bytes:

    diff <(python tools/artifact_digests.py /tmp/a --src old/src) \\
         <(python tools/artifact_digests.py /tmp/b)

The sequence: shrink (notched delineations), grow and stable phantom
cohorts at 24^3; register -> jacobian -> regions -> stats on the first shrink
pair; register and stats again with their keys from --config files
(classify.cfg, bootstrap.cfg); classify of both cohorts together with
--workers 1, with --workers 2, and with population/test splits; classify
of the first shrink patient's weeks 0, 2 and 3 (gapped.csv), whose pair
2->3 lies outside the first three weeks, with --workers 1 and with
--workers 2 (one patient whose pairs spread over two threads);
classify of the stable cohort, whose notes hold commas;
reproduce-paper; one missing-input error; classify --workers abc; phantom
with --noise-sd nan and with --recist XX; stats with a directory as
--config; jacobian with a --field path through a regular file;
reproduce-paper and classify with a regular file as --out,
reproduce-paper with a --fixture whose patients all have the NA response
(na-only.csv, written next to the config files), jacobian of a 4^3 zero
field whose header says SPACING nan (nan-spacing.vol), reproduce-paper
with a --fixture that repeats a patient id (duplicate-id.csv), and
classify with a population split that names an id the manifest lacks,
a one-patient 21^3 phantom with jacobian of its ground-truth field
(21 x-planes end jacobian_map's slabs with a partial one), and a
three-patient 21^3 phantom with the default radius (the third patient's
jitter would break the radius rule, so it keeps the base radius).
Each step prints digests of its exit code, stdout and stderr; after the
steps, each file under WORKDIR gets one line.
Standard library only.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PHANTOM = ["--grid", "24", "--radius", "6", "--weeks", "4", "--patients", "2"]
CLASSIFY_PARAMS = ["--pyramid-levels", "2", "--iterations-per-level", "8"]
# written into WORKDIR before the first step
INPUT_FILES = {
    "classify.cfg": "pyramid_levels 2\niterations_per_level 8\n",
    "bootstrap.cfg": "bootstrap_b 300\nbootstrap_seed 5\nconfidence_level 0.9\n",
    "na-only.csv": ("patient_id,classification_full,classification_3w,rx_response\n"
                    "q1,Y,Y,NA\nq2,N,Y,NA\nq3,N,N,NA\n"),
    "gapped.csv": ("patient_id,week,volume_path,mask_path,recist\n"
                   + "".join(f"p00,{w},shrink/p00/week{w:02d}_vol.vol,"
                             f"shrink/p00/week{w:02d}_mask.vol,PR\n"
                             for w in (0, 2, 3))),
    "nan-spacing.vol": ("DIMS 4 4 4\nSPACING nan 1.0 1.0\nORIGIN 0.0 0.0 0.0\n"
                        "DTYPE float32-le\nCOMPONENTS 3\n\n" + "\0" * 768),
    "duplicate-id.csv": ("patient_id,classification_full,classification_3w,rx_response\n"
                         "q1,Y,Y,PR\nq2,N,N,SD\nq1,Y,Y,PR\n"),
}

STEPS = [
    ("phantom-shrink", ["phantom", "--out", "shrink", "--mode", "shrink",
                        "--seed", "11", "--recist", "PR", *PHANTOM]),
    ("phantom-grow", ["phantom", "--out", "grow", "--mode", "grow",
                      "--seed", "12", "--recist", "PD", *PHANTOM]),
    ("phantom-stable", ["phantom", "--out", "stable", "--mode", "stable",
                        "--seed", "13", *PHANTOM]),
    ("register", ["register", "--source", "shrink/p00/week00_vol.vol",
                  "--target", "shrink/p00/week01_vol.vol", "--out", "reg",
                  *CLASSIFY_PARAMS]),
    ("jacobian", ["jacobian", "--field", "reg/forward.vol", "--out", "jac"]),
    ("regions", ["regions", "--mask-prev", "shrink/p00/week00_mask.vol",
                 "--mask-next", "shrink/p00/week01_mask.vol",
                 "--field", "reg/forward.vol", "--out", "regions"]),
    ("stats", ["stats", "--samples", "regions/samples.csv", "--out", "stats",
               "--bootstrap-b", "200"]),
    ("register-config", ["register", "--source", "shrink/p00/week00_vol.vol",
                         "--target", "shrink/p00/week01_vol.vol", "--out", "reg-cfg",
                         "--config", "classify.cfg"]),
    ("stats-config", ["stats", "--samples", "regions/samples.csv",
                      "--out", "stats-cfg", "--config", "bootstrap.cfg"]),
    ("classify-w1", ["classify", "--manifest", "cohort.csv", "--out", "cls1",
                     "--workers", "1", *CLASSIFY_PARAMS]),
    ("classify-w2", ["classify", "--manifest", "cohort.csv", "--out", "cls2",
                     "--workers", "2", *CLASSIFY_PARAMS]),
    ("classify-splits", ["classify", "--manifest", "cohort.csv", "--out", "cls3",
                         "--population-ids", "s_p00,g_p00",
                         "--test-ids", "s_p01,g_p01", *CLASSIFY_PARAMS]),
    ("classify-gapped", ["classify", "--manifest", "gapped.csv", "--out", "cls-gap",
                         *CLASSIFY_PARAMS]),
    ("classify-gapped-w2", ["classify", "--manifest", "gapped.csv",
                            "--out", "cls-gap-w2", "--workers", "2", *CLASSIFY_PARAMS]),
    ("classify-stable", ["classify", "--manifest", "stable/manifest.csv",
                         "--out", "cls-stable", *CLASSIFY_PARAMS]),
    ("reproduce-paper", ["reproduce-paper", "--out", "paper"]),
    ("missing-input", ["jacobian", "--field", "absent.vol", "--out", "none"]),
    ("workers-abc", ["classify", "--manifest", "cohort.csv", "--out", "bad",
                     "--workers", "abc"]),
    ("phantom-noise-nan", ["phantom", "--out", "noise-nan", "--noise-sd", "nan",
                           *PHANTOM]),
    ("phantom-recist-xx", ["phantom", "--out", "recist-xx", "--recist", "XX",
                           *PHANTOM]),
    ("stats-config-dir", ["stats", "--samples", "regions/samples.csv",
                          "--out", "stats-dir", "--config", "shrink"]),
    ("field-through-file", ["jacobian", "--field", "classify.cfg/x.vol",
                            "--out", "jac-file"]),
    ("out-is-file", ["reproduce-paper", "--out", "classify.cfg"]),
    ("classify-out-is-file", ["classify", "--manifest", "cohort.csv",
                              "--out", "classify.cfg", *CLASSIFY_PARAMS]),
    ("fixture-na-only", ["reproduce-paper", "--fixture", "na-only.csv",
                         "--out", "paper-na"]),
    ("jacobian-nan-spacing", ["jacobian", "--field", "nan-spacing.vol",
                              "--out", "jac-nan"]),
    ("fixture-duplicate-id", ["reproduce-paper", "--fixture", "duplicate-id.csv",
                              "--out", "paper-dup"]),
    ("classify-split-unknown", ["classify", "--manifest", "cohort.csv",
                                "--out", "cls-unknown", "--population-ids", "s_p00,zz",
                                *CLASSIFY_PARAMS]),
    ("phantom-grid21", ["phantom", "--out", "g21", "--grid", "21", "--radius", "6",
                        "--patients", "1", "--weeks", "2"]),
    ("jacobian-grid21", ["jacobian", "--field", "g21/p00/gt_forward00.vol",
                         "--out", "jac21"]),
    ("phantom-grid21-cohort", ["phantom", "--out", "g21-cohort", "--grid", "21",
                               "--patients", "3", "--weeks", "2"]),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def merge_manifests(workdir: str) -> None:
    """cohort.csv: the shrink and grow manifests, patient ids prefixed
    s_/g_ and paths made relative to workdir."""
    with open(os.path.join(workdir, "cohort.csv"), "w", newline="") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["patient_id", "week", "volume_path", "mask_path", "recist"])
        for sub in ("shrink", "grow"):
            with open(os.path.join(workdir, sub, "manifest.csv"), newline="") as fh:
                for row in csv.DictReader(fh):
                    writer.writerow([f"{sub[0]}_{row['patient_id']}", row["week"],
                                     f"{sub}/{row['volume_path']}",
                                     f"{sub}/{row['mask_path']}", row["recist"]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workdir", help="empty or missing directory to run in")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the defield package")
    args = parser.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    if os.listdir(args.workdir):
        parser.error(f"{args.workdir} is not empty")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    env.pop("DEFIELD_THREADS", None)  # older trees cap workers with it
    for name, text in INPUT_FILES.items():
        with open(os.path.join(args.workdir, name), "w") as fh:
            fh.write(text)
    for name, cli_args in STEPS:
        if name == "register":  # every phantom step has run
            merge_manifests(args.workdir)
        proc = subprocess.run([sys.executable, "-m", "defield.cli", *cli_args],
                              cwd=args.workdir, env=env, capture_output=True)
        print(f"{sha256(str(proc.returncode).encode())}  step/{name}/exit")
        print(f"{sha256(proc.stdout)}  step/{name}/stdout")
        print(f"{sha256(proc.stderr)}  step/{name}/stderr")
    for dirpath, dirnames, filenames in os.walk(args.workdir):
        dirnames.sort()
        for filename in sorted(filenames):
            path = os.path.join(dirpath, filename)
            with open(path, "rb") as fh:
                digest = sha256(fh.read())
            print(f"{digest}  file/{os.path.relpath(path, args.workdir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
