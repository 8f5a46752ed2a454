from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from chainbalance.cli import cv, main
from chainbalance.ensemble import EnsembleSpec
from chainbalance.experiment import ExperimentConfig
from chainbalance.learner import TreeSpec
from chainbalance.metrics import METRIC_KEYS
from conftest import dataset_with_label_counts, make_dataset, write_dataset_files


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def dataset_files(tmp_path):
    ds = dataset_with_label_counts(60, [12, 24], seed=0)
    return write_dataset_files(ds, tmp_path)


def test_stats_output(runner, dataset_files, tmp_path):
    arff, xml = dataset_files
    json_path = tmp_path / "stats.json"
    result = runner.invoke(
        main, ["stats", "--arff", arff, "--xml", xml, "--json", str(json_path)]
    )
    assert result.exit_code == 0, result.output
    assert "n=60 d=5 q=2" in result.output
    assert "MeanImR=" in result.output
    # 12/48 -> ImR 4; 24/36 -> ImR 1.5.
    expected = {
        "relation": "counted",
        "summary": {
            "n": 60, "d": 5, "q": 2, "label_cardinality": 0.6, "mean_imr": 2.75,
            "max_imr": 4.0, "cv_imr": 0.45454545454545453, "degenerate_labels": 0,
        },
        "per_label": [
            {"label_index": 0, "name": "L0", "minority_count": 12, "majority_count": 48,
             "minority_class": 1, "imr": 4.0},
            {"label_index": 1, "name": "L1", "minority_count": 24, "majority_count": 36,
             "minority_class": 1, "imr": 1.5},
        ],
    }
    assert json_path.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_stats_missing_file_exits_3(runner, tmp_path):
    result = runner.invoke(
        main,
        ["stats", "--arff", str(tmp_path / "nope.arff"), "--xml", str(tmp_path / "nope.xml")],
    )
    assert result.exit_code == 3
    record = json.loads(result.stderr.strip().splitlines()[-1])
    assert "error" in record and "message" in record


def test_stats_malformed_arff_exits_3(runner, tmp_path):
    arff = tmp_path / "bad.arff"
    arff.write_text("@relation x\n@attribute a numeric\n@data\n1,2,3\n")
    xml = tmp_path / "bad.xml"
    xml.write_text('<labels><label name="a"/></labels>')
    result = runner.invoke(main, ["stats", "--arff", str(arff), "--xml", str(xml)])
    assert result.exit_code == 3
    assert json.loads(result.stderr.strip().splitlines()[-1])["error"] == "MalformedArff"


def test_stats_non_utf8_arff_exits_3(runner, dataset_files, tmp_path):
    # A Latin-1 attribute name: byte 0xE9 is not UTF-8.
    arff, xml = dataset_files
    data = Path(arff).read_bytes()
    at = data.index(b"@attribute") + len(b"@attribute x")
    bad = tmp_path / "latin1.arff"
    bad.write_bytes(data[:at] + b"\xe9" + data[at:])
    for command in ("stats", "cv"):
        args = [command, "--arff", str(bad), "--xml", xml]
        if command == "cv":
            args += ["--out-dir", str(tmp_path / "out"), "--methods", "BR"]
        result = runner.invoke(main, args)
        assert result.exit_code == 3, result.output
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"] == "MalformedArff"
        assert "latin1.arff" in record["message"]
        assert f"offset {at}" in record["message"] and "0xe9" in record["message"]


def test_stats_non_utf8_xml_exits_3(runner, dataset_files, tmp_path):
    arff, _ = dataset_files
    bad = tmp_path / "latin1.xml"
    bad.write_bytes(b'<labels><label name="L\xe90"/></labels>')
    result = runner.invoke(main, ["stats", "--arff", arff, "--xml", str(bad)])
    assert result.exit_code == 3, result.output
    record = json.loads(result.stderr.strip().splitlines()[-1])
    assert record["error"] == "MalformedArff"
    assert "latin1.xml" in record["message"] and "offset 22" in record["message"]


def test_stats_utf8_names_with_bom_load(runner, dataset_files, tmp_path):
    # UTF-8 is read whatever the locale, and a leading BOM is dropped.
    arff, xml = dataset_files
    text = Path(arff).read_text(encoding="utf-8").replace("@attribute x0", "@attribute x\u00e9", 1)
    good = tmp_path / "utf8.arff"
    good.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    result = runner.invoke(main, ["stats", "--arff", str(good), "--xml", xml])
    assert result.exit_code == 0, result.output
    assert "n=60 d=5 q=2" in result.output


def test_stats_out_of_range_keep_fraction_exits_2(runner, dataset_files):
    arff, xml = dataset_files
    result = runner.invoke(
        main, ["stats", "--arff", arff, "--xml", xml, "--feature-keep-fraction", "2"]
    )
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr.strip().splitlines()[-1])["error"] == "ConfigError"


def test_simulate_writes_csv(runner, tmp_path):
    out = tmp_path / "fig.csv"
    result = runner.invoke(
        main,
        ["simulate", "--n", "1000", "--c", "10", "--m-start", "20", "--m-end", "400",
         "--m-step", "20", "--runs", "500", "--seed", "3", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 21  # header + 20 rows


def test_simulate_stdout_and_validation(runner):
    result = runner.invoke(main, ["simulate", "--m-start", "50", "--m-end", "50",
                                  "--runs", "100"])
    assert result.exit_code == 0
    assert result.output.startswith("minority,majority")
    bad = runner.invoke(main, ["simulate", "--m-start", "0"])
    assert bad.exit_code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--n", "0"],
        ["--c", "0"],
        ["--runs", "0"],
        ["--n", "1000", "--m-start", "600"],
        ["--n", "1000", "--m-start", "600", "--m-end", "600"],
    ],
)
def test_simulate_out_of_range_values_exit_2(runner, flags):
    result = runner.invoke(main, ["simulate", "--runs", "10", *flags])
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr.strip().splitlines()[-1])["error"] == "ConfigError"


def _run_cv(runner, arff, xml, out_dir, extra=()):
    args = [
        "cv", "--arff", arff, "--xml", xml, "--out-dir", str(out_dir),
        "--methods", "BR,ECCRU", "--c", "3", "--repeats", "2", "--folds", "2",
        "--seed", "11",
    ]
    args.extend(extra)
    return runner.invoke(main, args)


def test_cv_end_to_end(runner, dataset_files, tmp_path):
    arff, xml = dataset_files
    out_dir = tmp_path / "run1"
    result = _run_cv(runner, arff, xml, out_dir)
    assert result.exit_code == 0, result.output
    payload = json.loads((out_dir / "cv_results.json").read_text())
    assert payload["schema"] == "chainbalance.cv.v1"
    assert set(payload["methods"].keys()) == {"BR", "ECCRU"}
    for method in ("BR", "ECCRU"):
        folds = payload["methods"][method]["folds"]
        assert len(folds) == 4  # 2 repeats x 2 folds
        for rec in folds:
            macro = rec["report"]["macro"]
            assert set(macro) == {
                "f_measure", "g_mean", "balanced_accuracy", "auc_roc", "auc_pr"
            }
    assert (out_dir / "timings.json").exists()
    assert (out_dir / "per_label.csv").read_text().startswith(
        "method,repeat,fold,label_index,metric,value"
    )
    assert "BR:" in result.output and "ECCRU:" in result.output


def test_cv_rerun_byte_identical(runner, dataset_files, tmp_path):
    arff, xml = dataset_files
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert _run_cv(runner, arff, xml, a).exit_code == 0
    assert _run_cv(runner, arff, xml, b).exit_code == 0
    assert (a / "cv_results.json").read_bytes() == (b / "cv_results.json").read_bytes()


def test_cv_parallelism_does_not_change_results(runner, dataset_files, tmp_path):
    arff, xml = dataset_files
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    assert _run_cv(runner, arff, xml, serial, ["--n-jobs", "1"]).exit_code == 0
    assert _run_cv(runner, arff, xml, threaded, ["--n-jobs", "3"]).exit_code == 0
    assert (serial / "cv_results.json").read_bytes() == (
        threaded / "cv_results.json"
    ).read_bytes()


def test_cv_bad_method_exits_2(runner, dataset_files, tmp_path):
    arff, xml = dataset_files
    result = runner.invoke(
        main,
        ["cv", "--arff", arff, "--xml", xml, "--out-dir", str(tmp_path / "x"),
         "--methods", "BR,COCOA"],
    )
    assert result.exit_code == 2
    assert json.loads(result.stderr.strip().splitlines()[-1])["error"] == "ConfigError"


@pytest.mark.parametrize(
    "flags",
    [
        ["--tree-min-samples-leaf", "0"],
        ["--tree-max-depth", "-1"],
        ["--folds", "61"],
        ["--methods", "ECCRU2", "--theta-max", "nan"],
        ["--methods", "ECCRU3", "--theta-max", "inf"],
        ["--methods", "ECCRU3", "--theta-max", "1e308"],
    ],
)
def test_cv_out_of_range_values_exit_2(runner, dataset_files, tmp_path, flags):
    arff, xml = dataset_files
    result = _run_cv(runner, arff, xml, tmp_path / "x", flags)
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr.strip().splitlines()[-1])["error"] == "ConfigError"


@pytest.mark.parametrize(
    "override, key",
    [
        ({"c": None}, "c"),
        ({"c": "ten"}, "c"),
        ({"methods": 5}, "methods"),
        ({"tree": {"max_depth": "deep"}}, "tree.max_depth"),
        ({"c": True}, "c"),
        ({"c": 2.9}, "c"),
        ({"repeats": 1.5}, "repeats"),
        ({"seed": 3.7}, "seed"),
        ({"theta_max": True}, "theta_max"),
        ({"tree": {"min_samples_leaf": 1.5}}, "tree.min_samples_leaf"),
        ({"methods": {"BR": 1}}, "methods"),
        ({"methods": ["BR", 5]}, "methods"),
    ],
)
def test_cv_config_wrong_type_exits_2(runner, dataset_files, tmp_path, override, key):
    arff, xml = dataset_files
    config = {"arff": arff, "xml": xml, "out_dir": str(tmp_path / "x"),
              "methods": "BR", "repeats": 1} | override
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    result = runner.invoke(main, ["cv", "--config", str(config_path)])
    assert result.exit_code == 2, result.output
    record = json.loads(result.stderr.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(key)


def test_cv_non_utf8_config_exits_2(runner, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(b'{"methods": "BR\xff"}')
    result = runner.invoke(main, ["cv", "--config", str(config_path)])
    assert result.exit_code == 2, result.output
    record = json.loads(result.stderr.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"
    assert record["message"] == "bad config file: not UTF-8: byte 0xff at offset 15"


def test_cv_config_with_utf8_bom_is_read(runner, dataset_files, tmp_path):
    # Editors that save UTF-8 with a byte-order mark write a valid config.
    arff, xml = dataset_files
    config = {"arff": arff, "xml": xml, "out_dir": str(tmp_path / "out"), "methods": "BR"}
    config.update(repeats=1, folds=2, c=2)
    config_path = tmp_path / "bom.json"
    config_path.write_bytes(b"\xef\xbb\xbf" + json.dumps(config).encode("utf-8"))
    result = runner.invoke(main, ["cv", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "out" / "cv_results.json").read_text())
    assert payload["config"]["methods"] == ["BR"]


def test_cv_non_utf8_config_after_bom_names_file_offset(runner, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(b'\xef\xbb\xbf{"methods": "BR\xff"}')
    result = runner.invoke(main, ["cv", "--config", str(config_path)])
    assert result.exit_code == 2, result.output
    record = json.loads(result.stderr.strip().splitlines()[-1])
    assert record["message"] == "bad config file: not UTF-8: byte 0xff at offset 18"


def test_cv_missing_required_exits_2(runner):
    result = runner.invoke(main, ["cv", "--methods", "BR"])
    assert result.exit_code == 2


def test_cv_config_file_with_flag_override(runner, dataset_files, tmp_path):
    arff, xml = dataset_files
    config = {
        "arff": arff,
        "xml": xml,
        "out_dir": str(tmp_path / "from_file"),
        "methods": ["BR"],
        "repeats": 1,
        "folds": 2,
        "seed": 5,
        "c": 2,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    result = runner.invoke(main, ["cv", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "from_file" / "cv_results.json").read_text())
    assert payload["config"]["seed"] == 5

    override_dir = tmp_path / "override"
    result = runner.invoke(
        main,
        ["cv", "--config", str(config_path), "--seed", "9", "--out-dir", str(override_dir)],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((override_dir / "cv_results.json").read_text())
    assert payload["config"]["seed"] == 9


def test_cv_nested_config_sections(runner, dataset_files, tmp_path):
    # The tree settings live in a "tree" section, as in the config echo; the
    # other settings are flat, and an "ensemble" section is refused.
    arff, xml = dataset_files
    config = {
        "arff": arff,
        "xml": xml,
        "out_dir": str(tmp_path / "nested"),
        "methods": "BR",
        "repeats": 1,
        "c": 4,
        "tree": {"max_depth": 2, "min_samples_leaf": 3},
    }
    config_path = tmp_path / "nested.json"
    config_path.write_text(json.dumps(config))
    result = runner.invoke(main, ["cv", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "nested" / "cv_results.json").read_text())
    assert payload["config"]["c"] == 4
    assert payload["config"]["tree"] == {"max_depth": 2, "min_samples_leaf": 3}

    config_path.write_text(json.dumps(config | {"ensemble": {"c": 2}}))
    result = runner.invoke(main, ["cv", "--config", str(config_path)])
    assert result.exit_code == 2, result.output
    record = json.loads(result.stderr.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("unknown config keys: ensemble;")


@pytest.mark.parametrize(
    "extra, named",
    [
        ({"thetamax": 3}, "thetamax"),
        ({"ensemble": {"c": 2}}, "ensemble"),
        ({"ensemble": [1]}, "ensemble"),
        ({"tree_max_depth": 1}, "tree_max_depth"),
        ({"tree_min_samples_leaf": 1}, "tree_min_samples_leaf"),
        ({"tree": {"maxdepth": 1}}, "tree.maxdepth"),
        ({"tree": 3}, "tree (not an object)"),
        ({"tree": None}, "tree (not an object)"),
        ({"config_path": "other.json"}, "config_path"),
        (
            {"thetamax": 3, "tree_max_depth": 1, "ensemble": [1],
             "tree": {"max_depth": 2, "maxdepth": 1, "min_leaf": 1}},
            "thetamax, tree_max_depth, ensemble, tree.maxdepth, tree.min_leaf",
        ),
    ],
)
def test_cv_unknown_config_keys_exit_2_before_reading_data(
    runner, dataset_files, tmp_path, monkeypatch, extra, named
):
    def untouched(*args, **kwargs):
        raise AssertionError("read data or trained despite unknown config keys")

    monkeypatch.setattr("chainbalance.experiment.load_mulan_files", untouched)
    monkeypatch.setattr("chainbalance.experiment.train_ensemble", untouched)
    arff, xml = dataset_files
    config = {"arff": arff, "xml": xml, "out_dir": str(tmp_path / "x"),
              "methods": "BR", "repeats": 1} | extra
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    result = runner.invoke(main, ["cv", "--config", str(config_path)])
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"unknown config keys: {named}; valid: arff, c,")
    assert not (tmp_path / "x").exists()


def test_cv_results_config_echo_is_a_config_file(runner, dataset_files, tmp_path):
    arff, xml = dataset_files
    first = tmp_path / "first"
    result = _run_cv(
        runner, arff, xml, first,
        ["--methods", "BR,ECCRU3", "--theta-min", "0.5", "--theta-max", "4",
         "--tree-max-depth", "3", "--tree-min-samples-leaf", "1",
         "--feature-keep-fraction", "0.8"],
    )
    assert result.exit_code == 0, result.output
    echo = json.loads((first / "cv_results.json").read_text())["config"]
    config_path = tmp_path / "echo.json"
    config_path.write_text(json.dumps(echo))
    second = tmp_path / "second"
    result = runner.invoke(
        main, ["cv", "--config", str(config_path), "--out-dir", str(second)]
    )
    assert result.exit_code == 0, result.output
    assert (second / "cv_results.json").read_bytes() == (
        first / "cv_results.json"
    ).read_bytes()


def test_cv_every_flag_has_one_file_key(runner, tmp_path, monkeypatch):
    # One value per cv flag, none of them the flag's default.
    values = {
        "arff": "data/a.arff",
        "xml": "data/a.xml",
        "out_dir": "elsewhere",
        "methods": ["ECCRU3", "BR"],
        "c": 7,
        "theta_max": 3.5,
        "theta_min": 0.25,
        "tree_max_depth": 4,
        "tree_min_samples_leaf": 3,
        "repeats": 3,
        "folds": 4,
        "feature_keep_fraction": 0.5,
        "seed": 13,
        "n_jobs": 2,
    }
    params = {p.name: p for p in cv.params if p.name != "config_path"}
    assert set(values) == set(params)
    captured = []

    def fake_run_cv(config):
        captured.append(config)
        macro = dict.fromkeys(METRIC_KEYS)
        return {"methods": {m: {"overall": {"macro": macro}} for m in config.methods}}

    monkeypatch.setattr("chainbalance.cli.run_cv", fake_run_cv)
    file_values = {k: v for k, v in values.items() if not k.startswith("tree_")}
    file_values["tree"] = {
        k.removeprefix("tree_"): v for k, v in values.items() if k.startswith("tree_")
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(file_values))
    result = runner.invoke(main, ["cv", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    (config,) = captured
    fields = {"arff": "arff_path", "xml": "xml_path"}
    for name, value in values.items():
        assert value != params[name].default, name
        if name.startswith("tree_"):
            got = getattr(config.tree, name.removeprefix("tree_"))
        else:
            got = getattr(config, fields.get(name, name))
        if name in ("arff", "xml", "out_dir"):
            value = Path(value)
        elif name == "methods":
            value = tuple(value)
        assert got == value, name


def test_cv_flag_defaults_match_the_spec_defaults():
    flag_defaults = {p.name: p.default for p in cv.params}
    spec_defaults: dict[str, list] = {}
    for cls, prefix in ((ExperimentConfig, ""), (EnsembleSpec, ""), (TreeSpec, "tree_")):
        for f in dataclasses.fields(cls):
            if f.default is not dataclasses.MISSING:
                spec_defaults.setdefault(prefix + f.name, []).append(f.default)
    shared = set(flag_defaults) & set(spec_defaults)
    assert shared == {
        "c", "theta_max", "theta_min", "tree_max_depth", "tree_min_samples_leaf",
        "repeats", "folds", "feature_keep_fraction", "seed", "n_jobs",
    }
    for name in shared:
        assert spec_defaults[name] == [flag_defaults[name]] * len(spec_defaults[name]), name


def test_cv_default_out_dir(runner, dataset_files, tmp_path, monkeypatch):
    arff, xml = dataset_files
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(
        main,
        ["cv", "--arff", arff, "--xml", xml, "--methods", "BR",
         "--repeats", "1", "--seed", "2"],
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "chainbalance-results" / "cv_results.json").exists()


def test_cv_theta_min_recorded_for_eccru3(runner, dataset_files, tmp_path):
    arff, xml = dataset_files
    out_dir = tmp_path / "eccru3"
    result = runner.invoke(
        main,
        ["cv", "--arff", arff, "--xml", xml, "--out-dir", str(out_dir),
         "--methods", "ECCRU3", "--theta-min", "0.5", "--theta-max", "10",
         "--c", "3", "--repeats", "1", "--folds", "2", "--seed", "1"],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((out_dir / "cv_results.json").read_text())
    for rec in payload["methods"]["ECCRU3"]["folds"]:
        counts = rec["classifier_counts"]
        assert len(counts) == 2
        assert all(c >= 1 for c in counts)


def test_cv_accepts_nominal_features(runner, tmp_path):
    from conftest import SMALL_ARFF, SMALL_XML

    arff = tmp_path / "mixed.arff"
    xml = tmp_path / "mixed.xml"
    arff.write_text(SMALL_ARFF)
    xml.write_text(SMALL_XML)
    result = runner.invoke(
        main,
        ["cv", "--arff", str(arff), "--xml", str(xml), "--methods", "BR",
         "--repeats", "1", "--folds", "2", "--out-dir", str(tmp_path / "out"),
         "--tree-min-samples-leaf", "1"],
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "out" / "cv_results.json").exists()


@pytest.fixture
def label_only_files(tmp_path):
    from chainbalance.dataset import MultiLabelDataset

    gen = np.random.default_rng(3)
    ds = MultiLabelDataset(
        features=np.empty((24, 0)),
        labels=(gen.random((24, 2)) < 0.4).astype(np.int8),
        label_names=("A", "B"),
        feature_kinds=(),
        relation="labels_only",
    )
    return write_dataset_files(ds, tmp_path)


def test_cv_label_only_arff_trains(runner, label_only_files, tmp_path):
    arff, xml = label_only_files
    result = _run_cv(runner, arff, xml, tmp_path / "out")
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "out" / "cv_results.json").read_text())
    assert payload["dataset"]["d"] == 0


@pytest.mark.parametrize("command", ["stats", "cv"])
def test_label_only_arff_keeps_feature_fraction(runner, label_only_files, tmp_path, command):
    arff, xml = label_only_files
    keep = ["--feature-keep-fraction", "0.5"]
    if command == "stats":
        result = runner.invoke(main, ["stats", "--arff", arff, "--xml", xml, *keep])
    else:
        result = _run_cv(runner, arff, xml, tmp_path / "out", keep)
    assert result.exit_code == 0, result.output


def test_cv_non_finite_feature_exits_3(runner, dataset_files, tmp_path):
    arff, xml = dataset_files
    lines = Path(arff).read_text().splitlines()
    first_row = lines.index("@data") + 1
    lines[first_row] = "nan," + lines[first_row].split(",", 1)[1]
    bad = tmp_path / "nan.arff"
    bad.write_text("\n".join(lines) + "\n")
    result = _run_cv(runner, str(bad), xml, tmp_path / "x")
    assert result.exit_code == 3, result.output
    record = json.loads(result.stderr.strip().splitlines()[-1])
    assert record["error"] == "MalformedArff"
    assert "nan" in record["message"]


def test_rank_over_two_datasets(runner, tmp_path):
    for name, seed in (("alpha", 1), ("beta", 2)):
        ds = make_dataset(50, [0.25, 0.5], seed=seed, relation=name)
        arff, xml = write_dataset_files(ds, tmp_path)
        result = _run_cv(runner, arff, xml, tmp_path / name)
        assert result.exit_code == 0, result.output
    out = tmp_path / "ranks.csv"
    result = runner.invoke(
        main,
        ["rank", "--input-dir", str(tmp_path), "--metric", "balanced_accuracy",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "method,balanced_accuracy"
    entries = dict(line.split(",") for line in lines[1:])
    assert set(entries) == {"BR", "ECCRU"}
    ranks = sorted(float(v) for v in entries.values())
    assert sum(ranks) == pytest.approx(3.0)  # 1.5+1.5 or 1+2


def test_rank_no_inputs_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["rank", "--input-dir", str(tmp_path)])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "out_dir, error",
    [("taken", "FileExistsError"), ("taken/run", "NotADirectoryError")],
)
def test_cv_unusable_out_dir_exits_3_before_training(
    runner, dataset_files, tmp_path, monkeypatch, out_dir, error
):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking --out-dir")

    monkeypatch.setattr("chainbalance.experiment.train_ensemble", no_training)
    (tmp_path / "taken").write_text("a file, not a directory\n")
    arff, xml = dataset_files
    result = _run_cv(runner, arff, xml, tmp_path / out_dir)
    assert result.exit_code == 3, result.output
    record = json.loads(result.stderr.strip().splitlines()[-1])
    assert record["error"] == error


def _macro(value) -> dict:
    return {"overall": {"macro": {"f_measure": value}}}


_NOT_A_NUMBER = _macro("high")


@pytest.mark.parametrize(
    "content, key",
    [("not json {", "not a JSON results file"),
     ('{"schema": "chainbalance.cv.v1"}', "'methods'"),
     (json.dumps({"schema": "chainbalance.cv.v1", "dataset": {},
                  "methods": {"BR": _NOT_A_NUMBER, "ECC": _NOT_A_NUMBER}}),
      "not a number"),
     (json.dumps({"schema": "chainbalance.cv.v1", "dataset": {},
                  "methods": {"BR": _macro(0.5), "ECC": _macro(float("nan"))}}),
      "for ECC is not a finite float"),
     (json.dumps({"schema": "chainbalance.cv.v1", "dataset": {},
                  "methods": {"BR": _macro(0.5), "ECC": _macro(float("inf"))}}),
      "for ECC is not a finite float"),
     (json.dumps({"schema": "chainbalance.cv.v1", "dataset": {},
                  "methods": {"BR": _macro(0.5), "ECC": _macro(10**400)}}),
      "for ECC is not a finite float")],
    ids=["not-json", "no-methods", "not-a-number", "nan", "infinity", "beyond-float"],
)
def test_rank_malformed_results_exit_3(runner, tmp_path, content, key):
    bad = tmp_path / "cv_results.json"
    bad.write_text(content)
    result = runner.invoke(main, ["rank", "--results", str(bad), "--metric", "f_measure"])
    assert result.exit_code == 3, result.output
    record = json.loads(result.stderr.strip().splitlines()[-1])
    assert record["error"] == "DataError"
    assert str(bad) in record["message"] and key in record["message"]
