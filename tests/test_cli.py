"""End-to-end CLI behavior: subcommands, config handling, error records,
and idempotent artifacts."""
import json
import os

import numpy as np
import pytest

from defield import volio
from defield.cli import (
    EXIT_FORMAT,
    EXIT_INVALID,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    PipelineConfig,
    load_config,
    main,
)
from defield.grids import GridGeometry, Mask, Volume


def run(argv, capsys=None):
    code = main(argv)
    return code


@pytest.fixture(scope="module")
def phantom_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("phantom")
    code = main(["phantom", "--out", str(out), "--patients", "2", "--grid", "32",
                 "--radius", "9", "--weeks", "3", "--seed", "3", "--recist", "PR"])
    assert code == EXIT_OK
    return out


def test_reproduce_paper_outputs(tmp_path, capsys):
    code = main(["reproduce-paper", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "(12, 4, 9, 13)" in out
    assert "(11, 3, 10, 14)" in out
    assert "OR = 4.33" in out and "OR = 5.13" in out
    payload = json.loads((tmp_path / "reproduction.json").read_text())
    assert payload["contingency"]["all"] == [12, 4, 9, 13]
    assert payload["fisher"]["3"]["odds_ratio"] == pytest.approx(5.13, abs=0.01)


def test_reproduce_paper_idempotent(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["reproduce-paper", "--out", str(a)]) == EXIT_OK
    assert main(["reproduce-paper", "--out", str(b)]) == EXIT_OK
    for name in ("reproduction.json", "tables.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_reproduce_paper_without_pr_classified_patients(tmp_path, capsys):
    import csv
    from defield.cohort import fixture_path
    with open(fixture_path(), newline="") as fh:
        rows = list(csv.DictReader(fh))
    fixture = tmp_path / "all_n.csv"
    with open(fixture, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows({**row, "classification_full": "N"} for row in rows)
    out = tmp_path / "rep"
    code = main(["reproduce-paper", "--fixture", str(fixture), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == EXIT_OK
    lines = (out / "tables.csv").read_text().splitlines()
    # precision is undefined without PR-classified patients: an empty field
    assert lines[1] == "all,0,0,21,17,44.7,,0.0,inf,1.000"
    assert lines[2].startswith("3,11,3,10,14,")
    assert "full course: contingency (0, 0, 21, 17)" in stdout
    assert "precision , recall 0.0" in stdout


def test_register_jacobian_regions_stats_chain(phantom_dir, tmp_path):
    p0 = phantom_dir / "p00"
    reg = tmp_path / "reg"
    code = main(["register", "--source", str(p0 / "week00_vol.vol"),
                 "--target", str(p0 / "week01_vol.vol"), "--out", str(reg),
                 "--pyramid-levels", "2", "--iterations-per-level", "15"])
    assert code == EXIT_OK
    assert (reg / "forward.vol").exists() and (reg / "transform.json").exists()

    jac = tmp_path / "jac"
    assert main(["jacobian", "--field", str(reg / "forward.vol"),
                 "--out", str(jac)]) == EXIT_OK
    jmap = volio.read_raw(jac / "jacobian.vol")

    regions = tmp_path / "regions"
    code = main(["regions", "--mask-prev", str(p0 / "week00_mask.vol"),
                 "--mask-next", str(p0 / "week01_mask.vol"),
                 "--field", str(reg / "forward.vol"), "--out", str(regions)])
    assert code == EXIT_OK
    geom, labels = volio.read_labels(regions / "partition.vol")
    assert set(np.unique(labels)) <= {0, 1, 2, 3}

    stats_dir = tmp_path / "stats"
    code = main(["stats", "--samples", str(regions / "samples.csv"),
                 "--out", str(stats_dir), "--bootstrap-b", "200"])
    assert code == EXIT_OK
    lines = (stats_dir / "stats.csv").read_text().splitlines()
    assert lines[0] == "region,n,mean,sd,normal_lo,normal_hi,boot_lo,boot_hi"
    assert len(lines) > 1
    box = (stats_dir / "boxplot.csv").read_text().splitlines()
    assert box[0].startswith("region,n,mean,median,q1,q3,whisker_lo98")


def test_register_identical_inputs_near_zero_field(phantom_dir, tmp_path):
    p0 = phantom_dir / "p00"
    out = tmp_path / "self"
    code = main(["register", "--source", str(p0 / "week00_vol.vol"),
                 "--target", str(p0 / "week00_vol.vol"), "--out", str(out),
                 "--pyramid-levels", "1", "--iterations-per-level", "3"])
    assert code == EXIT_OK
    fwd = volio.read_field(out / "forward.vol")
    assert fwd.mean_norm() < 0.05


def test_register_is_idempotent(phantom_dir, tmp_path):
    p0 = phantom_dir / "p00"
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["register", "--source", str(p0 / "week00_vol.vol"),
                     "--target", str(p0 / "week01_vol.vol"), "--out", str(out),
                     "--pyramid-levels", "1", "--iterations-per-level", "5"]) == EXIT_OK
        outs.append(out)
    for name in ("velocity.vol", "forward.vol", "backward.vol", "transform.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_classify_pipeline(phantom_dir, tmp_path, capsys):
    out = tmp_path / "cls"
    code = main(["classify", "--manifest", str(phantom_dir / "manifest.csv"),
                 "--out", str(out), "--pyramid-levels", "2",
                 "--iterations-per-level", "15"])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert len(report["patients"]) == 2
    assert (out / "decisions.csv").exists()
    # shrink-mode phantom patients labeled PR: hypothesis satisfied
    assert report["contingency"]["all"][0] >= 1
    # result records carry the {test, inputs, statistic, p, interval} shape
    assert any(r["test"] == "fisher_exact" for r in report["records"])
    assert all({"test", "inputs", "statistic", "p", "interval"} <= set(r)
               for r in report["records"])
    box = (out / "boxplot.csv").read_text().splitlines()
    assert box[0] == "group,region,n,mean,median,q1,q3,whisker_lo98,whisker_hi98"
    assert any(line.startswith("PR,") for line in box[1:])


def test_classify_empty_masks_warns_but_succeeds(tmp_path, capsys):
    g = GridGeometry((16, 16, 16))
    rng = np.random.default_rng(0)
    rows = ["patient_id,week,volume_path,mask_path,recist"]
    for week in range(2):
        vol = Volume(g, rng.uniform(0.5, 1.5, size=g.dims).astype(np.float32))
        vol_path = tmp_path / f"w{week}.vol"
        mask_path = tmp_path / f"m{week}.vol"
        volio.write_volume(vol_path, vol)
        volio.write_mask(mask_path, Mask(g, np.zeros(g.dims, dtype=np.uint8)))
        rows.append(f"p0,{week},{vol_path.name},{mask_path.name},NA")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    code = main(["classify", "--manifest", str(manifest), "--out", str(out),
                 "--pyramid-levels", "1", "--iterations-per-level", "3"])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "insufficient region" in captured


@pytest.mark.parametrize("case, workers", [
    pytest.param("constant", "1", id="1"),
    pytest.param("constant", "2", id="2"),
    pytest.param("volume-grid", "1", id="volume-grid-1"),
    pytest.param("volume-grid", "2", id="volume-grid-2"),
    pytest.param("mask-grid", "1", id="mask-grid-1"),
    pytest.param("mask-grid", "2", id="mask-grid-2"),
])
def test_classify_constant_volume_names_patient(tmp_path, capsys, case, workers):
    # p1's last week is constant, or its volume or mask lies on another grid;
    # the error crosses the process pool when workers > 1, so it must pickle
    g = GridGeometry((16, 16, 16))
    other = GridGeometry((20, 20, 20))
    rng = np.random.default_rng(1)
    rows = ["patient_id,week,volume_path,mask_path,recist"]
    for pid in ("p0", "p1"):
        for week in range(3):
            odd = pid == "p1" and week == 2
            vol_g = other if odd and case == "volume-grid" else g
            mask_g = other if odd and case == "mask-grid" else g
            data = (np.full(vol_g.dims, 1.0) if odd and case == "constant"
                    else rng.uniform(0.5, 1.5, size=vol_g.dims))
            vol_path = tmp_path / f"{pid}w{week}.vol"
            mask_path = tmp_path / f"{pid}m{week}.vol"
            volio.write_volume(vol_path, Volume(vol_g, data.astype(np.float32)))
            volio.write_mask(mask_path, Mask(mask_g, np.zeros(mask_g.dims, dtype=np.uint8)))
            rows.append(f"{pid},{week},{vol_path.name},{mask_path.name},NA")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    code = main(["classify", "--manifest", str(manifest),
                 "--out", str(tmp_path / "out"), "--workers", workers,
                 "--pyramid-levels", "1", "--iterations-per-level", "3"])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert record["error"] == "invalid-input"
    assert record["message"].startswith("patient p1, weeks 1->2: ")
    expected = ("target volume is constant" if case == "constant"
                else "geometry mismatch: ")
    assert expected in record["message"]


def test_missing_input_error_record(tmp_path, capsys):
    code = main(["register", "--source", "nope.vol", "--target", "nope2.vol",
                 "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_MISSING_INPUT
    assert record["error"] == "missing-input"
    assert "nope.vol" in record["input"]


def test_malformed_vol_error_record(tmp_path, capsys):
    bad = tmp_path / "bad.vol"
    bad.write_bytes(b"DIMS 2 2\nnope")
    code = main(["jacobian", "--field", str(bad), "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_FORMAT
    assert record["error"] == "format-error"


def test_duplicate_vol_header_key_error_record(tmp_path, capsys):
    g = GridGeometry((4, 4, 4))
    good = tmp_path / "good.vol"
    volio.write_volume(good, Volume.full(g, 1.0))
    raw = good.read_bytes()
    dup = tmp_path / "dup.vol"
    dup.write_bytes(raw.replace(b"DTYPE", b"SPACING 2.0 2.0 2.0\nDTYPE", 1))
    code = main(["register", "--source", str(dup), "--target", str(good),
                 "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_FORMAT
    assert record["error"] == "format-error"
    assert "duplicate header key 'SPACING'" in record["message"]


def test_invariant_violation_error_record(tmp_path, capsys):
    g = GridGeometry((12, 12, 12))
    flat = Volume.full(g, 1.0)
    path = tmp_path / "flat.vol"
    volio.write_volume(path, flat)
    code = main(["register", "--source", str(path), "--target", str(path),
                 "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert record["error"] == "invalid-input"
    assert "constant" in record["message"]


def test_non_numeric_config_value_is_invalid_input(phantom_dir, tmp_path, capsys):
    cfg_file = tmp_path / "pipeline.cfg"
    cfg_file.write_text("workers abc\n")
    code = main(["classify", "--manifest", str(phantom_dir / "manifest.csv"),
                 "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert record["error"] == "invalid-input"
    assert "workers" in record["message"]


def test_non_numeric_threads_env_is_invalid_input(phantom_dir, tmp_path,
                                                  capsys, monkeypatch):
    monkeypatch.setenv("DEFIELD_THREADS", "abc")
    code = main(["classify", "--manifest", str(phantom_dir / "manifest.csv"),
                 "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert record["error"] == "invalid-input"
    assert "DEFIELD_THREADS" in record["message"]


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "pipeline.cfg"
    cfg_file.write_text(
        "# pipeline settings\n"
        "pyramid_levels 2\n"
        "lcc_sigma 2.5\n"
        "bootstrap_b 500\n")
    cfg = load_config(cfg_file, {"lcc_sigma": 4.0})
    assert cfg.pyramid_levels == 2
    assert cfg.lcc_sigma == 4.0       # CLI override wins
    assert cfg.bootstrap_b == 500
    assert cfg.confidence_level == 0.95    # untouched default


def test_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("pyramid_depth 2\n")
    from defield.grids import ValidationError
    with pytest.raises(ValidationError):
        load_config(cfg_file)


def test_config_validates_invariants():
    from defield.grids import ValidationError
    with pytest.raises(ValidationError):
        PipelineConfig(step_scale=3.0)
    with pytest.raises(ValidationError):
        PipelineConfig(workers=0)
    with pytest.raises(ValidationError):
        PipelineConfig(bootstrap_b=10)


def test_week_limit_is_not_a_config_key(phantom_dir, tmp_path, capsys):
    # both week limits are always reported; the old selector key is gone
    cfg_file = tmp_path / "pipeline.cfg"
    cfg_file.write_text("week_limit all\n")
    code = main(["classify", "--manifest", str(phantom_dir / "manifest.csv"),
                 "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert record["error"] == "invalid-input"
    assert "bad config line 'week_limit all'" in record["message"]
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--manifest", str(phantom_dir / "manifest.csv"),
              "--out", str(tmp_path / "out"), "--week-limit", "all"])
    assert exc.value.code == 2
    assert "--week-limit" in capsys.readouterr().err


def test_config_registration_fields_match_params(phantom_dir, tmp_path):
    from dataclasses import fields
    from defield.registration import RegistrationParams
    reg_fields = [(f.name, f.default) for f in fields(RegistrationParams)]
    assert len(reg_fields) == 8
    assert [(f.name, f.default) for f in fields(PipelineConfig)][:8] == reg_fields
    assert len(fields(PipelineConfig)) == 14
    cfg = PipelineConfig(lcc_sigma=2.5, workers=2)
    assert cfg.registration_params() == RegistrationParams(lcc_sigma=2.5)
    # transform.json records exactly the registration block
    p0 = phantom_dir / "p00"
    out = tmp_path / "reg"
    assert main(["register", "--source", str(p0 / "week00_vol.vol"),
                 "--target", str(p0 / "week00_vol.vol"), "--out", str(out),
                 "--pyramid-levels", "1", "--iterations-per-level", "1",
                 "--workers", "2", "--bootstrap-b", "200"]) == EXIT_OK
    params = json.loads((out / "transform.json").read_text())["params"]
    assert sorted(params) == sorted(name for name, _ in reg_fields)
    assert params["pyramid_levels"] == 1


def _patient(pid, full, three, recist):
    from defield.cohort import Decision, PatientResult, RecistLabel
    pr, no = Decision.PR_CLASSIFIED, Decision.NO_DECISION
    return PatientResult(pid, RecistLabel(recist), {},
                         {"all": pr if full else no, "3": pr if three else no})


SPLIT_PATIENTS = [_patient("p1", True, True, "PR"), _patient("p2", True, False, "PD"),
                  _patient("p3", False, True, "CR"), _patient("p4", False, False, "SD"),
                  _patient("p5", True, True, "PR"), _patient("p6", False, False, "PR"),
                  _patient("p7", True, True, "NA")]


def _cohort_report(patients):
    from defield.cohort import CohortReport, build_contingency, metrics
    from defield.stats import fisher_exact
    tables = {limit: build_contingency([p.decisions[limit] for p in patients],
                                       [p.recist for p in patients])
              for limit in ("all", "3")}
    return CohortReport(patients, tables,
                        {k: metrics(t) for k, t in tables.items()},
                        {k: fisher_exact(t) for k, t in tables.items()},
                        None, [])


def test_split_covering_every_patient_matches_cohort():
    from defield.cli import _split_report
    report = _cohort_report(SPLIT_PATIENTS)
    split = _split_report(report, {p.patient_id for p in SPLIT_PATIENTS} | {"zz"})
    cohort = report.as_dict()
    assert split["n"] == len(SPLIT_PATIENTS)
    for limit in ("all", "3"):
        assert split[limit] == {"contingency": cohort["contingency"][limit],
                                "metrics": cohort["metrics"][limit],
                                "fisher": cohort["fisher"][limit]}


def test_split_of_unknown_ids_is_null():
    from defield.cli import _split_report
    assert _split_report(_cohort_report(SPLIT_PATIENTS), {"zz", "p"}) is None


def test_split_of_na_only_patients_reports_error():
    from defield.cli import _split_report
    patients = SPLIT_PATIENTS + [_patient("q1", True, False, "NA")]
    split = _split_report(_cohort_report(patients), {"p7", "q1"})
    error = {"error": "no patients left after excluding NA responses"}
    assert split == {"n": 2, "all": error, "3": error}


def test_threads_env_caps_workers(monkeypatch):
    from defield.cli import _workers
    monkeypatch.setenv("DEFIELD_THREADS", "1")
    assert _workers(PipelineConfig(workers=8)) == 1
    monkeypatch.delenv("DEFIELD_THREADS")
    assert _workers(PipelineConfig(workers=3)) == 3
