"""End-to-end CLI behavior: subcommands, config handling, error records,
and idempotent artifacts."""
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from defield import cli, cohort, defanalysis, volio
from defield.cli import (
    COMMAND_KEYS,
    EXIT_FORMAT,
    EXIT_INVALID,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    PipelineConfig,
    load_config,
    main,
)
from defield.grids import GridGeometry, Mask, Volume
from oracles import full_volume, mean_norm


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


def _edited_fixture(tmp_path, **values):
    """The shipped fixture with the given columns set to one value."""
    import csv
    from defield.cohort import fixture_path
    with open(fixture_path(), newline="") as fh:
        rows = list(csv.DictReader(fh))
    fixture = tmp_path / "edited.csv"
    with open(fixture, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows({**row, **values} for row in rows)
    return fixture


def test_reproduce_paper_without_pr_classified_patients(tmp_path, capsys):
    fixture = _edited_fixture(tmp_path, classification_full="N")
    out = tmp_path / "rep"
    code = main(["reproduce-paper", "--fixture", str(fixture), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == EXIT_OK
    lines = (out / "tables.csv").read_text().splitlines()
    # precision is undefined without PR-classified patients: an empty field
    assert lines[1] == "all,0,0,21,17,44.7,,0.0,nan,1.000"
    assert lines[2].startswith("3,11,3,10,14,")
    assert "full course: contingency (0, 0, 21, 17)" in stdout
    assert "precision , recall 0.0" in stdout


# sha256 of reproduce-paper's artifacts, with the shipped fixture and with
# every full-course classification set to N
REPRODUCTION_SHA256 = {
    ("shipped", "reproduction.json"):
        "85e106f9c2d5ba95bc531242918fcca7fa3ceb56a9cc72192d396dabddf692f7",
    ("shipped", "tables.csv"):
        "758afff9bb6aca0a487e3e5f35ce415c5c1b6ea4384ba0f82f173dd602795105",
    ("all-n", "reproduction.json"):
        "77454ac24ac5bd1d8551ab675b8c386308dc1dc731da2272b7d528408f46eafa",
    ("all-n", "tables.csv"):
        "0320354f40188f054cc63e043daf653e4bb947b9469ea66c9b253386d465b28a",
}


@pytest.mark.parametrize("fixture", ["shipped", "all-n"])
def test_reproduce_paper_bytes_are_pinned(tmp_path, fixture):
    argv = ["reproduce-paper", "--out", str(tmp_path / "rep")]
    if fixture == "all-n":
        argv += ["--fixture", str(_edited_fixture(tmp_path, classification_full="N"))]
    assert main(argv) == EXIT_OK
    for name in ("reproduction.json", "tables.csv"):
        digest = hashlib.sha256((tmp_path / "rep" / name).read_bytes()).hexdigest()
        assert digest == REPRODUCTION_SHA256[(fixture, name)], name


def test_reproduce_paper_unknown_response_label_is_invalid_input(tmp_path, capsys):
    fixture = _edited_fixture(tmp_path, rx_response="XX")
    code = main(["reproduce-paper", "--fixture", str(fixture),
                 "--out", str(tmp_path / "rep")])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert record["error"] == "invalid-input"
    assert str(fixture) in record["message"]
    assert "unknown RECIST label 'XX'" in record["message"]


def test_reproduce_paper_of_na_only_patients_is_invalid_input(tmp_path, capsys):
    fixture = _edited_fixture(tmp_path, rx_response="NA")
    out = tmp_path / "rep"
    code = main(["reproduce-paper", "--fixture", str(fixture), "--out", str(out)])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert record == {"error": "invalid-input",
                      "message": "no patients left after excluding NA responses"}
    assert not out.exists()


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
    _, labels, dtype, components = volio.read_raw(regions / "partition.vol")
    assert (dtype, components) == ("uint8", None)
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


# sha256 of the stats stage's artifacts on the seeded samples.csv of
# test_stats_bytes_are_pinned
STATS_SHA256 = {
    "stats.json": "59146fd60ee6b4b685968983f7170a6b3811a7f80fcd632799b10b130e3564a4",
    "stats.csv": "0d631f34181d769849618acc157269d1dc73f736d71eedc1c279a4a829dbef6c",
    "boxplot.csv": "eac612b2a0bc9179762c704459ef8c040d1049d45ba4746847d3bdc21d1e220e",
}


def _stats_of_pinned_samples(tmp_path):
    """Run stats on seeded U (37), R (1), G (250) and N (20 000) samples
    and return its output directory."""
    rng = np.random.default_rng(2024)
    sizes = {"U": 37, "R": 1, "G": 250, "N": 20_000}
    lines = ["label,j_value"]
    for region, size in sizes.items():
        lines += [f"{region},{float(v)!r}" for v in rng.normal(1.0, 0.1, size)]
    samples = tmp_path / "samples.csv"
    samples.write_text("\n".join(lines) + "\n")
    assert main(["stats", "--samples", str(samples),
                 "--out", str(tmp_path / "stats")]) == EXIT_OK
    return tmp_path / "stats"


def test_stats_bytes_are_pinned(tmp_path):
    _stats_of_pinned_samples(tmp_path)
    for name, want in STATS_SHA256.items():
        digest = hashlib.sha256((tmp_path / "stats" / name).read_bytes()).hexdigest()
        assert digest == want, name


# float.hex of the tumor regions' intervals on the samples of
# test_stats_bytes_are_pinned (R has one sample, so no interval), and their
# stats.csv rows
TUMOR_INTERVALS = {
    "U": {"normal_ci": ("0x1.f551142f49d97p-1", "0x1.0a058695b9926p+0"),
          "bootstrap_ci": ("0x1.f63b851d16f51p-1", "0x1.09a76c216a959p+0")},
    "G": {"normal_ci": ("0x1.fa0639104d8dcp-1", "0x1.03609da7379eep+0"),
          "bootstrap_ci": ("0x1.f9fe6f8dcbdeap-1", "0x1.036ba559f7906p+0")},
}
TUMOR_ROWS = [
    "U,37,1.0091405116684184,0.09312478395311806,0.9791342075085819,"
    "1.0391468158282549,0.9809228513727054,1.0377109128554223",
    "G,250,1.000760858805005,0.10029228341265486,0.9883287269974761,"
    "1.0131929906125339,0.9882693157759921,1.0133612961431608",
]


def test_stats_tumor_intervals_are_pinned(tmp_path):
    out = _stats_of_pinned_samples(tmp_path)
    report = json.loads((out / "stats.json").read_text())
    regions = report["regions"]
    assert set(regions["R"]) == {"n", "mean", "sd"}
    records = {(r["test"], r["inputs"]["region"]): r for r in report["records"]}
    for region, intervals in TUMOR_INTERVALS.items():
        for test, want in intervals.items():
            assert tuple(v.hex() for v in regions[region][test]) == want, (region, test)
            got = records[test, region]["interval"]
            assert tuple(v.hex() for v in got) == want, (region, test)
    rows = (out / "stats.csv").read_text().splitlines()
    assert [r for r in rows if r[0] in "URG"] == TUMOR_ROWS


def test_stats_n_keeps_only_the_normal_ci(tmp_path):
    # N is the reference region: no decision reads its interval, so it is
    # not bootstrapped
    out = _stats_of_pinned_samples(tmp_path)
    report = json.loads((out / "stats.json").read_text())
    n_entry = report["regions"]["N"]
    assert n_entry["n"] == 20_000 and len(n_entry["normal_ci"]) == 2
    assert n_entry["bootstrap_ci"] is None
    tests = [r["test"] for r in report["records"] if r["inputs"]["region"] == "N"]
    assert tests == ["normal_ci"]
    rows = list(csv.DictReader((out / "stats.csv").read_text().splitlines()))
    (n_row,) = [r for r in rows if r["region"] == "N"]
    assert n_row["normal_lo"] and n_row["normal_hi"]
    assert n_row["boot_lo"] == n_row["boot_hi"] == ""


def test_stats_of_an_empty_region(tmp_path):
    # R has no samples; a blank line is skipped
    samples = tmp_path / "samples.csv"
    samples.write_text("label,j_value\nU,1.0\nU,1.2\n\nG,0.9\nG,1.1\nN,1.0\nN,1.0\n")
    out = tmp_path / "stats"
    assert main(["stats", "--samples", str(samples), "--out", str(out),
                 "--bootstrap-b", "100"]) == EXIT_OK
    regions = json.loads((out / "stats.json").read_text())["regions"]
    assert regions["R"] is None
    assert {r: regions[r]["n"] for r in "UGN"} == {"U": 2, "G": 2, "N": 2}
    for name in ("stats.csv", "boxplot.csv"):
        rows = (out / name).read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["U", "G", "N"], name


def test_register_identical_inputs_near_zero_field(phantom_dir, tmp_path):
    p0 = phantom_dir / "p00"
    out = tmp_path / "self"
    code = main(["register", "--source", str(p0 / "week00_vol.vol"),
                 "--target", str(p0 / "week00_vol.vol"), "--out", str(out),
                 "--pyramid-levels", "1", "--iterations-per-level", "3"])
    assert code == EXIT_OK
    fwd = volio.read_field(out / "forward.vol")
    assert mean_norm(fwd) < 0.05


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


# sha256 of the artifacts test_classify_pipeline's run writes
CLASSIFY_SHA256 = {
    "report.json": "dfa3261bc076efacc5b92ee06c896c19830fe9041e0b897443b9c5d284bf0d6f",
    "decisions.csv": "a81ecaed826aa1eb04002d17a9fb60de20473a95263a74252084781f714afe52",
    "tables.csv": "2a09b5b3543aa7fb83f3d929112290b2246f8028d47b233bd5a6b01d5d14024e",
    "boxplot.csv": "abcc8b3a76b867e0e2eb143d1f8f332c000fed5d1730a74582381d4921df3357",
}


def test_classify_pipeline(phantom_dir, tmp_path, capsys):
    out = tmp_path / "cls"
    code = main(["classify", "--manifest", str(phantom_dir / "manifest.csv"),
                 "--out", str(out), "--pyramid-levels", "2",
                 "--iterations-per-level", "15",
                 "--population-ids", "p00", "--test-ids", "p01,zz"])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert len(report["patients"]) == 2
    # each split tabulates its own patients under both week limits
    assert sorted(report["splits"]) == ["population", "test"]
    for split in report["splits"].values():
        assert split["n"] == 1 and set(split) == {"n", "all", "3"}
    # an id the manifest lacks is tolerated, and named
    warning = "test split: ids not in the manifest: 'zz'"
    assert report["warnings"][-1] == warning
    assert f"warning: {warning}\n" in capsys.readouterr().out
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
    for name, want in CLASSIFY_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name


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


def test_decisions_csv_quotes_notes_with_commas(tmp_path, monkeypatch):
    # a degenerate patient's note names "mu_R, mu_G": it stays one field
    weeks = [cohort.WeekEntry(k, f"w{k}.vol", f"m{k}.vol") for k in range(2)]
    samples = defanalysis.RegionSamples({"U": [0.9, 1.1], "N": [1.0, 1.2]})
    record = cohort.PatientRecord("p0", weeks, cohort.RecistLabel.PR, [samples])
    monkeypatch.setattr(cli, "load_manifest", lambda path: [record])
    assert main(["classify", "--manifest", "unused.csv", "--out", str(tmp_path)]) == EXIT_OK
    with open(tmp_path / "decisions.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert [len(row) for row in rows] == [len(header)] == [13]
    note = "degenerate: delineations unchanged across pairs; mu_R, mu_G imputed as 1.0"
    assert rows[0][-1] == f"{note}; {note}"


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
    # the error names the pair whether it is raised on a pool of one thread
    # or of two
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


@pytest.mark.parametrize("command, header, row", [
    ("classify", "patient_id,week,volume_path,mask_path,recist", "p0"),
    ("classify", "patient_id,week,volume_path,mask_path,recist", "p0,0,a.vol"),
    ("reproduce-paper",
     "patient_id,classification_full,classification_3w,rx_response", "1,Y"),
], ids=["manifest-one-field", "manifest-three-fields", "fixture"])
def test_short_table_row_is_invalid_input(tmp_path, capsys, command, header, row):
    table = tmp_path / "table.csv"
    table.write_text(f"{header}\n{row}\n")
    flag = "--manifest" if command == "classify" else "--fixture"
    code = main([command, flag, str(table), "--out", str(tmp_path / "out")])
    error = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert error["error"] == "invalid-input"
    assert error["message"].startswith(f"{table}:2: ")


@pytest.mark.parametrize("command, header, rows", [
    ("classify", "patient_id,week,volume_path,mask_path,recist",
     "p0,0,a.vol,a_mask.vol,PR\np0,1,b.vol,b_mask.vol,PR,extra"),
    ("reproduce-paper",
     "patient_id,classification_full,classification_3w,rx_response",
     "1,Y,N,PR\n2,Y,N,PR,extra"),
], ids=["manifest", "fixture"])
def test_long_table_row_is_invalid_input(tmp_path, capsys, command, header, rows):
    table = tmp_path / "table.csv"
    table.write_text(f"{header}\n{rows}\n")
    flag = "--manifest" if command == "classify" else "--fixture"
    code = main([command, flag, str(table), "--out", str(tmp_path / "out")])
    error = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert error["error"] == "invalid-input"
    assert error["message"].startswith(f"{table}:3: ")
    assert "more fields than the header" in error["message"]


@pytest.mark.parametrize("command, flag", [("classify", "--manifest"),
                                           ("reproduce-paper", "--fixture")])
def test_non_utf8_table_is_invalid_input(tmp_path, capsys, command, flag):
    table = tmp_path / "table.csv"
    table.write_bytes(b"patient_id,week,volume_path,mask_path,recist\n"
                      b"p\xe90,0,a.vol,b.vol,PR\n")
    code = main([command, flag, str(table), "--out", str(tmp_path / "out")])
    error = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert error["message"].startswith(f"{table}: ")
    assert "not UTF-8" in error["message"]


MANIFEST_HEADER = "patient_id,week,volume_path,mask_path,recist\n"
FIXTURE_HEADER = "patient_id,classification_full,classification_3w,rx_response\n"


@pytest.mark.parametrize("command, text, message", [
    ("classify", MANIFEST_HEADER + "p0,x,a.vol,a_mask.vol,PR\n", "bad week 'x'"),
    ("classify", MANIFEST_HEADER + "p0,0,a.vol,a_mask.vol,PR\n"
     "p0,1,b.vol,b_mask.vol,PD\n", "inconsistent RECIST for p0"),
    ("classify", MANIFEST_HEADER, "manifest has no rows"),
    ("reproduce-paper", FIXTURE_HEADER + "1,X,N,PR\n",
     "classification must be Y or N, got 'X'"),
], ids=["manifest-week", "manifest-recist", "manifest-header-only", "fixture-yn"])
def test_bad_table_value_is_invalid_input(tmp_path, capsys, command, text, message):
    table = tmp_path / "table.csv"
    table.write_text(text)
    flag = "--manifest" if command == "classify" else "--fixture"
    code = main([command, flag, str(table), "--out", str(tmp_path / "out")])
    error = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert error == {"error": "invalid-input", "message": f"{table}: {message}"}
    assert not (tmp_path / "out").exists()


def test_repeated_fixture_patient_is_invalid_input(tmp_path, capsys):
    from defield.cohort import fixture_path
    fixture = tmp_path / "fixture.csv"
    with open(fixture_path()) as fh:
        fixture.write_text(fh.read() + "1,Y,Y,PR\n")
    out = tmp_path / "out"
    code = main(["reproduce-paper", "--fixture", str(fixture), "--out", str(out)])
    error = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert error == {"error": "invalid-input",
                     "message": f"{fixture}:47: fixture repeats patient_id '1'"}
    assert not out.exists()


def test_missing_input_error_record(tmp_path, capsys):
    code = main(["register", "--source", "nope.vol", "--target", "nope2.vol",
                 "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_MISSING_INPUT
    assert record["error"] == "missing-input"
    assert "nope.vol" in record["input"]


@pytest.mark.parametrize("argv", [
    ["stats", "--samples", "absent.csv", "--config", "{dir}"],
    ["stats", "--samples", "{dir}"],
    ["classify", "--manifest", "{dir}"],
    ["jacobian", "--field", "{dir}"],
    ["register", "--source", "{dir}", "--target", "{dir}"],
    ["reproduce-paper", "--fixture", "{dir}"],
    ["jacobian", "--field", "{file}/x.vol"],
    ["stats", "--samples", "{file}/s.csv"],
], ids=["config", "samples", "manifest", "field", "source", "fixture",
        "field-through-file", "samples-through-file"])
def test_directory_input_is_missing_input(tmp_path, capsys, argv):
    # an input path that names a directory or runs through a regular file
    directory = tmp_path / "a-directory"
    directory.mkdir()
    afile = tmp_path / "a-file"
    afile.write_text("")
    argv = [a.format(dir=directory, file=afile) for a in argv]
    code = main(argv + ["--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_MISSING_INPUT
    assert record["error"] == "missing-input"
    assert record["input"] == next(a for a in argv if a.startswith(str(tmp_path)))


QUICK = ["--pyramid-levels", "1", "--iterations-per-level", "2"]


@pytest.fixture(scope="module")
def pair_dir(phantom_dir, tmp_path_factory):
    """forward.vol and samples.csv of phantom_dir's first week pair."""
    out = tmp_path_factory.mktemp("pair")
    p0 = phantom_dir / "p00"
    assert main(["register", "--source", str(p0 / "week00_vol.vol"),
                 "--target", str(p0 / "week01_vol.vol"), "--out", str(out),
                 *QUICK]) == EXIT_OK
    assert main(["regions", "--mask-prev", str(p0 / "week00_mask.vol"),
                 "--mask-next", str(p0 / "week01_mask.vol"),
                 "--field", str(out / "forward.vol"), "--out", str(out)]) == EXIT_OK
    return out


# every subcommand with inputs that let it reach the point where it writes
OUT_ARGV = {
    "register": ["register", "--source", "{phantom}/p00/week00_vol.vol",
                 "--target", "{phantom}/p00/week01_vol.vol", *QUICK],
    "jacobian": ["jacobian", "--field", "{pair}/forward.vol"],
    "regions": ["regions", "--mask-prev", "{phantom}/p00/week00_mask.vol",
                "--mask-next", "{phantom}/p00/week01_mask.vol",
                "--field", "{pair}/forward.vol"],
    "stats": ["stats", "--samples", "{pair}/samples.csv", "--bootstrap-b", "100"],
    "classify": ["classify", "--manifest", "{phantom}/manifest.csv", *QUICK],
    "phantom": ["phantom", "--grid", "16", "--radius", "4", "--weeks", "2"],
    "reproduce-paper": ["reproduce-paper"],
}


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", list(OUT_ARGV))
def test_out_through_a_file_is_missing_input(phantom_dir, pair_dir, tmp_path,
                                             capsys, monkeypatch, command, under):
    # --out is checked before any work: register and classify register nothing
    registered = []
    for module in (cli, cohort):
        monkeypatch.setattr(module, "register", lambda *args: registered.append(args))
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if under else afile
    argv = [a.format(phantom=phantom_dir, pair=pair_dir) for a in OUT_ARGV[command]]
    code = main(argv + ["--out", str(out)])
    record = json.loads(capsys.readouterr().err.strip())
    assert registered == []
    assert code == EXIT_MISSING_INPUT
    assert record["error"] == "missing-input"
    assert record["input"] == str(out)
    expected = (f"[Errno 20] Not a directory: {str(out)!r}" if under
                else f"[Errno 17] File exists: {str(out)!r}")
    assert record["message"] == expected
    assert os.listdir(tmp_path) == ["afile"]
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("command, work", [("register", "register"),
                                           ("classify", "run_cohort")])
def test_empty_out_is_missing_input(phantom_dir, tmp_path, capsys, monkeypatch,
                                    command, work):
    # an empty --out (an unset shell variable) fails before any work
    called = []
    monkeypatch.setattr(cli, work, lambda *args: called.append(args))
    monkeypatch.chdir(tmp_path)
    argv = [a.format(phantom=phantom_dir) for a in OUT_ARGV[command]]
    code = main(argv + ["--out", ""])
    record = json.loads(capsys.readouterr().err.strip())
    assert called == []
    assert code == EXIT_MISSING_INPUT
    assert record == {"error": "missing-input", "input": "",
                      "message": "[Errno 2] --out is empty: ''"}
    assert os.listdir(tmp_path) == []


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats is a heavy import that would add to every command's start
    # time and peak memory; checked in a fresh interpreter, because the
    # oracle tests import scipy.stats into this one
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, defield.cli; print(sorted("
         "m for m in sys.modules if m.startswith('scipy.stats')))"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


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
    volio.write_volume(good, full_volume(g, 1.0))
    raw = good.read_bytes()
    dup = tmp_path / "dup.vol"
    dup.write_bytes(raw.replace(b"DTYPE", b"SPACING 2.0 2.0 2.0\nDTYPE", 1))
    code = main(["register", "--source", str(dup), "--target", str(good),
                 "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_FORMAT
    assert record["error"] == "format-error"
    assert "duplicate header key 'SPACING'" in record["message"]


def _crlf(header_and_payload: bytes) -> bytes:
    header, _, payload = header_and_payload.partition(b"\n\n")
    return header.replace(b"\n", b"\r\n") + b"\r\n\r\n" + payload


# (case, edit of a valid 4^3 .vol file, fill value of its payload, text the
# error message must hold)
MALFORMED_VOL = [
    ("crlf-header", _crlf, 1.0, "CRLF"),
    # a payload that holds "\n\n" must not end a CRLF header early
    ("crlf-header-newline-payload", _crlf,
     float(np.frombuffer(b"\n\n\n\n", dtype="<f4")[0]), "CRLF"),
    ("negative-spacing",
     lambda raw: raw.replace(b"SPACING 1.0 1.0 1.0", b"SPACING 1.0 -1.0 1.0"), 1.0,
     "bad geometry"),
    ("nan-spacing",
     lambda raw: raw.replace(b"SPACING 1.0 1.0 1.0", b"SPACING nan 1.0 1.0"), 1.0,
     "bad geometry"),
    ("inf-origin",
     lambda raw: raw.replace(b"ORIGIN 0.0 0.0 0.0", b"ORIGIN 0.0 inf 0.0"), 1.0,
     "bad geometry"),
    ("huge-dims",
     lambda raw: raw.replace(b"DIMS 4 4 4", b"DIMS 100000 100000 100000"), 1.0,
     "payload is 256 bytes"),
    ("line-without-value", lambda raw: raw.replace(b"DTYPE", b"NOTE\nDTYPE", 1), 1.0,
     "malformed header line 'NOTE'"),
    ("components-not-int",
     lambda raw: raw.replace(b"DTYPE", b"COMPONENTS x\nDTYPE", 1), 1.0,
     "bad COMPONENTS"),
    ("components-2", lambda raw: raw.replace(b"DTYPE", b"COMPONENTS 2\nDTYPE", 1), 1.0,
     "only COMPONENTS 3 supported"),
    ("two-dims", lambda raw: raw.replace(b"DIMS 4 4 4", b"DIMS 4 4"), 1.0, "bad geometry"),
]


@pytest.mark.parametrize("edit,fill,message", [c[1:] for c in MALFORMED_VOL],
                         ids=[c[0] for c in MALFORMED_VOL])
def test_malformed_vol_header_exits_format(tmp_path, capsys, edit, fill, message):
    g = GridGeometry((4, 4, 4))
    good = tmp_path / "good.vol"
    volio.write_volume(good, full_volume(g, fill))
    bad = tmp_path / "bad.vol"
    bad.write_bytes(edit(good.read_bytes()))
    tracemalloc.start()
    try:
        code = main(["register", "--source", str(bad), "--target", str(good),
                     "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_FORMAT
    assert record["error"] == "format-error"
    assert message in record["message"]
    assert not (tmp_path / "out").exists()
    # a header is rejected before any grid is allocated (10^15 voxels here)
    assert peak < 1 << 20


@pytest.fixture(scope="module")
def phantom64(tmp_path_factory):
    out = tmp_path_factory.mktemp("phantom64")
    assert main(["phantom", "--out", str(out), "--grid", "64", "--weeks", "2",
                 "--patients", "1", "--seed", "7"]) == EXIT_OK
    return out / "p00"


def _traced_peak_per_voxel(argv, n_voxels) -> float:
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1] / n_voxels
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command, bound", [("jacobian", 27), ("regions", 30)])
def test_jacobian_and_regions_peak_memory_per_voxel(phantom64, tmp_path, capsys,
                                                    command, bound):
    """On a 64^3 ground-truth pair: the field read in one copy (12 B/voxel),
    the float32 Jacobian (4 B/voxel) and one x-slab of jacobian_map's
    float64 temporaries; regions also holds the masks and the partition,
    and frees the field before it collects the float64 samples."""
    field = str(phantom64 / "gt_forward00.vol")
    argv = {"jacobian": ["jacobian", "--field", field],
            "regions": ["regions", "--mask-prev", str(phantom64 / "week00_mask.vol"),
                        "--mask-next", str(phantom64 / "week01_mask.vol"),
                        "--field", field]}[command]
    peak = _traced_peak_per_voxel([*argv, "--out", str(tmp_path)], 64 ** 3)
    capsys.readouterr()
    assert peak <= bound


@pytest.mark.parametrize("header, line, message", [
    (b"label,j_value", b"U,abc", "bad j_value 'abc'"),
    (b"label,j_value", b"U,", "bad j_value ''"),
    (b"label,j_value", b"U,1.0\xe9", "not ASCII"),
    (b"region,j_value", b"U,1.0", "unexpected samples header 'region,j_value'"),
    (b"label,j_value", b"X,1.0", "unknown region label 'X'"),
    (b"label,j_value", b"U,nan", "region U has non-finite or non-positive samples"),
    (b"label,j_value", b"U ,1.0", "unknown region label 'U '"),
    (b"label,j_value", b"U,1.0,2", "bad j_value '1.0,2'"),
    (b"label,j_value", b"U,0x1p0", "bad j_value '0x1p0'"),
    (b"label,j_value", b"U,1_0", "bad j_value '1_0'"),
    (b"label,j_value", b"U\x00,1.0", "unknown region label 'U\\x00'"),
    (b"label,j_value", b"U,\x1c1.0", "bad j_value '\\x1c1.0'"),
], ids=["non-numeric", "empty", "non-ascii", "header", "unknown-label", "nan",
        "label-space", "three-fields", "hex", "underscore", "label-nul",
        "value-separator"])
def test_malformed_samples_csv_is_invalid_input(tmp_path, capsys, header, line,
                                                message):
    samples = tmp_path / "samples.csv"
    samples.write_bytes(header + b"\nU,1.0\n" + line + b"\nR,0.9\n")
    code = main(["stats", "--samples", str(samples), "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert record["error"] == "invalid-input"
    assert str(samples) in record["message"]
    assert message in record["message"]


def test_empty_samples_csv_is_invalid_input(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_bytes(b"")
    code = main(["stats", "--samples", str(samples), "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert f"{samples}: unexpected samples header ''" == record["message"]


def test_invariant_violation_error_record(tmp_path, capsys):
    g = GridGeometry((12, 12, 12))
    flat = full_volume(g, 1.0)
    path = tmp_path / "flat.vol"
    volio.write_volume(path, flat)
    code = main(["register", "--source", str(path), "--target", str(path),
                 "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert record["error"] == "invalid-input"
    assert "constant" in record["message"]


@pytest.mark.parametrize("key, value", [("lcc_sigma", "1e300"), ("fluid_sigma", "1e9"),
                                        ("diffusion_sigma", "4.01")])
def test_sigma_wider_than_the_grid_is_invalid_input(tmp_path, capsys, key, value):
    # 3 * sigma must not exceed the largest dimension of the finest grid (12)
    g = GridGeometry((12, 10, 8))
    rng = np.random.default_rng(0)
    paths = []
    for name in ("a.vol", "b.vol"):
        paths.append(str(tmp_path / name))
        volio.write_volume(paths[-1], Volume(g, rng.random(g.dims, dtype=np.float32)))
    code = main(["register", "--source", paths[0], "--target", paths[1],
                 f"--{key.replace('_', '-')}", value, "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert record["message"].startswith(f"{key} ")
    assert not (tmp_path / "out").exists()
    # a sigma at the bound registers
    code = main(["register", "--source", paths[0], "--target", paths[1],
                 f"--{key.replace('_', '-')}", "4", "--pyramid-levels", "1",
                 "--iterations-per-level", "1", "--out", str(tmp_path / "out")])
    assert code == EXIT_OK


PHANTOM_ARGS = {"--grid": "24", "--radius": "6", "--weeks": "2"}


@pytest.mark.parametrize("flag, value", [
    ("--radius", "nan"), ("--noise-sd", "nan"), ("--amplitude", "inf"),
    ("--seed", "-1"), ("--grid", "abc"), ("--patients", "abc"), ("--weeks", "2.5"),
    ("--recist", "XX"), ("--mode", "foo"), ("--amplitude", "-1"), ("--noise-sd", "-1"),
    ("--patients", "0")])
def test_bad_phantom_value_is_invalid_input(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    argv = [a for item in {**PHANTOM_ARGS, flag: value}.items() for a in item]
    code = main(["phantom", "--out", str(out), *argv])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert record["error"] == "invalid-input"
    assert flag[2:].replace("-", "_") in record["message"]
    assert not out.exists()


def test_phantom_radius_defaults_to_fit_small_grids(tmp_path, capsys):
    # without --radius a 21^3 grid gets 0.3 * 21 = 6.3 voxels, under 21 / 3
    out = tmp_path / "g21"
    assert main(["phantom", "--out", str(out), "--grid", "21", "--patients", "1",
                 "--weeks", "2"]) == EXIT_OK
    assert (out / "p00" / "week01_mask.vol").is_file()
    # an explicit radius is checked as given
    code = main(["phantom", "--out", str(tmp_path / "r0"), "--grid", "21",
                 "--radius", "0", "--weeks", "2"])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert "radius" in record["message"]


@pytest.mark.parametrize("grid", ["21", "30"])
def test_phantom_cohort_defaults_fit_small_grids(tmp_path, grid):
    # the third patient's +1 voxel of jitter would reach a third of the
    # grid, so that patient keeps the default radius
    out = tmp_path / "out"
    assert main(["phantom", "--out", str(out), "--grid", grid, "--patients", "3",
                 "--weeks", "2"]) == EXIT_OK
    assert (out / "p02" / "week01_mask.vol").is_file()


@pytest.mark.parametrize("grid, weeks", [("16", "4"), ("13", "2"), ("12", "2")])
def test_phantom_cohort_jitter_keeps_the_amplitude_range(tmp_path, grid, weeks):
    # the second patient's -1 voxel of jitter would push a week's tumor
    # amplitude below the monotone range, so that patient keeps the default
    # radius
    out = tmp_path / "out"
    assert main(["phantom", "--out", str(out), "--grid", grid, "--patients", "3",
                 "--weeks", weeks]) == EXIT_OK
    assert (out / "p02" / f"week{int(weeks) - 1:02d}_mask.vol").is_file()


def test_phantom_base_course_outside_the_amplitude_range(tmp_path, capsys):
    # at 10^3 the default radius 3 itself breaks the range: nothing to fall
    # back to
    out = tmp_path / "out"
    code = main(["phantom", "--out", str(out), "--grid", "10", "--patients", "3"])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert "outside the monotone range" in record["message"]
    assert not out.exists()


def test_non_numeric_config_value_is_invalid_input(phantom_dir, tmp_path, capsys):
    cfg_file = tmp_path / "pipeline.cfg"
    cfg_file.write_text("workers abc\n")
    code = main(["classify", "--manifest", str(phantom_dir / "manifest.csv"),
                 "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert record["error"] == "invalid-input"
    assert "workers" in record["message"]


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


# inputs that do not exist: a command that got past its config would exit 2
INPUTS = {"register": ["--source", "absent.vol", "--target", "absent.vol"],
          "stats": ["--samples", "absent.csv"],
          "classify": ["--manifest", "absent.csv"]}
FLOAT_KEYS = ("lcc_sigma", "fluid_sigma", "diffusion_sigma", "step_scale",
              "convergence_tol", "confidence_level")
BAD_VALUES = [(command, key, value) for key in FLOAT_KEYS
              for command in COMMAND_KEYS if key in COMMAND_KEYS[command]
              for value in ("nan", "inf", "-inf")] + [("classify", "workers", "abc")]


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("command, key, value", BAD_VALUES)
def test_bad_config_value_is_invalid_input(tmp_path, capsys, command, key, value,
                                           source):
    # flags and file lines share one parser; --key=value lets argparse take "-inf"
    if source == "flag":
        config = [f"--{key.replace('_', '-')}={value}"]
    else:
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(f"{key} {value}\n")
        config = ["--config", str(cfg_file)]
    code = main([command, *INPUTS[command], *config, "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert record["error"] == "invalid-input"
    assert f"{key}: {value!r} is not" in record["message"]


def test_negative_bootstrap_seed_is_invalid_input(tmp_path, capsys):
    code = main(["stats", *INPUTS["stats"], "--bootstrap-seed", "-1",
                 "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert "bootstrap_seed must be >= 0" in record["message"]


@pytest.mark.parametrize("command, flag, value, message", [
    ("stats", "--confidence-level", "1", "confidence_level must be in (0, 1)"),
    ("register", "--pyramid-levels", "0", "pyramid_levels must be >= 1"),
    ("register", "--iterations-per-level", "0", "iterations_per_level must be >= 1"),
    ("register", "--lcc-sigma", "0", "lcc_sigma must be > 0"),
    ("register", "--fluid-sigma", "-1", "smoothing sigmas must be >= 0"),
    ("register", "--exp-steps", "0", "exp_steps must be >= 1"),
    ("register", "--convergence-tol", "-1", "convergence_tol must be >= 0")])
def test_out_of_range_config_value_is_invalid_input(tmp_path, capsys, command, flag,
                                                     value, message):
    out = tmp_path / "out"
    code = main([command, *INPUTS[command], f"{flag}={value}", "--out", str(out)])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert record["error"] == "invalid-input"
    assert message in record["message"]
    assert not out.exists()


def test_non_utf8_config_is_invalid_input(tmp_path, capsys):
    cfg_file = tmp_path / "pipeline.cfg"
    cfg_file.write_bytes(b"# r\xe9glage\nlcc_sigma 2\n")
    code = main(["register", *INPUTS["register"], "--config", str(cfg_file),
                 "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert record["error"] == "invalid-input"
    assert record["message"].startswith(f"{cfg_file}: config is not UTF-8")


OWN_FLAGS = {"register": {"--source", "--target", "--out"},
             "stats": {"--samples", "--out"},
             "classify": {"--manifest", "--out"}}


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_help_lists_exactly_the_command_keys(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    keys = {"--" + key.replace("_", "-") for key in COMMAND_KEYS[command]}
    assert listed == keys | OWN_FLAGS[command] | {"--help", "--config"}


@pytest.mark.parametrize("command, flag, value", [("register", "--bootstrap-b", "200"),
                                                  ("stats", "--lcc-sigma", "2")])
def test_config_flag_the_command_does_not_read_is_rejected(tmp_path, capsys,
                                                            command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, *INPUTS[command], flag, value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command, line", [("register", "bootstrap_b 200"),
                                           ("stats", "lcc_sigma 2"),
                                           ("classify", "confidence_level 0.9")])
def test_config_line_the_command_does_not_read_is_invalid_input(tmp_path, capsys,
                                                                command, line):
    cfg_file = tmp_path / "pipeline.cfg"
    cfg_file.write_text(line + "\n")
    code = main([command, *INPUTS[command], "--config", str(cfg_file),
                 "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err.strip())
    assert code == EXIT_INVALID
    assert record["message"] == f"{cfg_file}:1: bad config line {line!r}"


def test_config_registration_fields_match_params(phantom_dir, tmp_path):
    from dataclasses import fields
    from defield.registration import RegistrationParams
    reg_fields = [(f.name, f.default) for f in fields(RegistrationParams)]
    assert len(reg_fields) == 8
    assert [(f.name, f.default) for f in fields(PipelineConfig)][:8] == reg_fields
    assert len(fields(PipelineConfig)) == 14
    # scaling and squaring raises the minimum of one step as needed
    assert RegistrationParams().exp_steps == PipelineConfig().exp_steps == 1
    cfg = PipelineConfig(lcc_sigma=2.5, workers=2)
    assert cfg.registration_params() == RegistrationParams(lcc_sigma=2.5)
    # transform.json records exactly the registration block
    p0 = phantom_dir / "p00"
    out = tmp_path / "reg"
    assert main(["register", "--source", str(p0 / "week00_vol.vol"),
                 "--target", str(p0 / "week00_vol.vol"), "--out", str(out),
                 "--pyramid-levels", "1", "--iterations-per-level", "1"]) == EXIT_OK
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
    from defield.cohort import CohortReport, tabulate
    return CohortReport(patients, {limit: tabulate(patients, limit)
                                   for limit in ("all", "3")}, None, [])


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


# sha256 of json.dumps(..., indent=2, sort_keys=True) of the hand-built
# report and two of its splits
SPLIT_SHA256 = {
    "report": "d1c2ced9544e3583392b35cf524324af44e501082f2e0330b50a14692a03e5ad",
    "every": "3420bb84f22d339a3a738099f178535da1538ed62a428ba7d59cd471eca88db7",
    "subset": "34357bbe6503f44467a25f8d4939c8060c41563f4c53cc1220ab8370c57700c0",
}


def test_report_and_split_json_bytes_are_pinned():
    from defield.cli import _split_report
    report = _cohort_report(SPLIT_PATIENTS)
    payloads = {
        "report": report.as_dict(),
        "every": _split_report(report, {p.patient_id for p in SPLIT_PATIENTS} | {"zz"}),
        "subset": _split_report(report, {"p2", "p3", "p6"}),
    }
    digests = {name: hashlib.sha256(json.dumps(payload, indent=2, sort_keys=True)
                                    .encode()).hexdigest()
               for name, payload in payloads.items()}
    assert digests == SPLIT_SHA256


def test_split_of_unknown_ids_is_null():
    from defield.cli import _split_report
    assert _split_report(_cohort_report(SPLIT_PATIENTS), {"zz", "p"}) is None


def test_split_of_na_only_patients_reports_error():
    from defield.cli import _split_report
    patients = SPLIT_PATIENTS + [_patient("q1", True, False, "NA")]
    split = _split_report(_cohort_report(patients), {"p7", "q1"})
    error = {"error": "no patients left after excluding NA responses"}
    assert split == {"n": 2, "all": error, "3": error}
