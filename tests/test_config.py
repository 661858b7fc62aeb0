import copy
import dataclasses
import json
import math

import numpy as np
import pytest

from fdpowerctl.config import (
    ConfigError,
    HbsParams,
    ScenarioConfig,
    UeTemplate,
    dbm_to_watt,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from fdpowerctl.channel import (
    path_gain,
    sample_batch,
    snapshot_from_distances,
    snapshot_from_scenario,
)

BASE_DOC = {
    "scenario": {
        "num_ues": 2, "epsilon": 0.2, "delta_db": -120.0, "sigma2_dbm": -113.0,
        "delta_t": 1.0, "attenuation_k": 0.09, "cell_side": 50.0,
        "hbs_placement": "center", "seed": 3, "tol": 1e-9, "max_iter": 500,
    },
    "hbs": {"p_bar_h_dbm": 40.0, "n_antennas": 2, "p_dyn_dbm": 38.0, "p_sta_dbm": 27.0},
    "ue_template": {
        "mu": 0.5, "gamma_target": 0.05, "eta": 1.0, "n_antennas": 2,
        "p_dyn_dbm": 26.0, "p_sta_dbm": 20.0, "p_bar_u_dbm": 30.0,
    },
}


def test_base_doc_loads():
    sc = scenario_from_dict(copy.deepcopy(BASE_DOC))
    assert sc.cfg.num_ues == 2
    assert sc.cfg.delta == pytest.approx(1e-12)
    assert sc.cfg.sigma2 == pytest.approx(10 ** -14.3)
    assert sc.hbs.p_cir == pytest.approx(2 * 10 ** 0.8 + 10 ** -0.3)
    assert sc.ue_template.p_bar_u == pytest.approx(1.0)


def test_unknown_key_rejected_with_path():
    doc = copy.deepcopy(BASE_DOC)
    doc["scenario"]["typo_field"] = 1
    doc["hbs"]["bogus"] = 2
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    msgs = err.value.errors
    assert any("scenario.typo_field" in m for m in msgs)
    assert any("hbs.bogus" in m for m in msgs)


def test_both_cap_sources_rejected():
    doc = copy.deepcopy(BASE_DOC)
    doc["ue_template"]["e_bar_joules"] = 1.0
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert err.value.errors == ["ue_template.p_bar_u: exactly one of p_bar_u and e_bar must be set"]


def test_e_bar_derives_uplink_cap():
    doc = copy.deepcopy(BASE_DOC)
    del doc["ue_template"]["p_bar_u_dbm"]
    doc["ue_template"]["e_bar_joules"] = 10.0
    sc = scenario_from_dict(doc)
    p_cir = 2 * dbm_to_watt(26.0) + dbm_to_watt(20.0)
    expected = 0.2 * (10.0 / 1.0 - p_cir)
    assert sc.ue_template.resolve_p_bar_u(0.2, 1.0) == pytest.approx(expected)
    assert expected > 0


def test_e_bar_too_small_rejected():
    doc = copy.deepcopy(BASE_DOC)
    del doc["ue_template"]["p_bar_u_dbm"]
    doc["ue_template"]["e_bar_joules"] = 0.1   # below circuit energy
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert err.value.errors == [
        "ue_template.e_bar: uplink power cap must be finite and strictly positive"
    ]


def test_e_bar_with_zero_delta_t_reported():
    # the derived cap divides by delta_t: a zero one is reported, not divided by
    doc = copy.deepcopy(BASE_DOC)
    del doc["ue_template"]["p_bar_u_dbm"]
    doc["ue_template"]["e_bar_joules"] = 10.0
    doc["scenario"]["delta_t"] = 0.0
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert err.value.errors == ["scenario.delta_t: must be strictly positive"]


def test_fixed_ues_length_checked():
    doc = copy.deepcopy(BASE_DOC)
    doc["fixed_ues"] = [{"distance": 10.0}]
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)


def _valid_parts():
    cfg = ScenarioConfig(num_ues=1, epsilon=0.2, delta=1e-12, sigma2=1e-14)
    hbs = HbsParams(p_bar_h=10.0, n_antennas=2, p_dyn=1.0, p_sta=0.5)
    template = UeTemplate(mu=0.5, gamma_target=0.05, p_dyn=0.1, p_sta=0.1, p_bar_u=1.0)
    # one UE at 10 m: g = 0.09 / 10^3 = 9e-5
    snap = snapshot_from_distances([10.0], cfg, hbs, template)
    return cfg, hbs, template, snap


def test_validate_epsilon_boundary():
    cfg, hbs, template, snap = _valid_parts()
    bad = ScenarioConfig(num_ues=1, epsilon=0.0, delta=1e-12, sigma2=1e-14)
    errors = validate_scenario(bad, hbs, template)
    assert any("epsilon out of range" in e for e in errors)


def test_validate_mu_zero():
    cfg, hbs, template, snap = _valid_parts()
    with pytest.raises(ConfigError) as exc:
        snapshot_from_distances([10.0], cfg, hbs, template, mus=[0.0])
    errors = exc.value.errors
    assert any("mu must be strictly positive" in e for e in errors)


@pytest.mark.parametrize("distance, overrides, template_change, expected", [
    (math.nan, {}, {}, "ues[0].distance: must be finite"),
    (math.inf, {}, {}, "ues[0].distance: must be finite"),
    (10.0, {"mus": [math.nan]}, {}, "ues[0].mu: must be finite"),
    (10.0, {"gamma_targets": [math.inf]}, {}, "ues[0].gamma_target: must be finite"),
    (10.0, {"etas": [math.nan]}, {}, "ues[0].eta: must be finite"),
])
def test_validate_rejects_non_finite_ue_inputs(distance, overrides, template_change, expected):
    # NaN passes every < or <= range test, so each field is tested for finiteness
    cfg, hbs, template, snap = _valid_parts()
    template = dataclasses.replace(template, **template_change)
    with pytest.raises(ConfigError) as exc:
        snapshot_from_distances([distance], cfg, hbs, template, **overrides)
    assert exc.value.errors == [expected]


def test_zero_distance_listed_with_every_other_error():
    cfg, hbs, template, snap = _valid_parts()
    cfg = dataclasses.replace(cfg, num_ues=3)
    with pytest.raises(ConfigError) as exc:
        snapshot_from_distances([10.0, 0.0, -1.0], cfg, hbs, template, mus=[math.nan, None, None])
    assert exc.value.errors == [
        "ues[0].mu: must be finite",
        "ues[1].distance: must be strictly positive",
        "ues[2].distance: must be strictly positive",
    ]


CAP_SOURCES = "ue_template.p_bar_u: exactly one of p_bar_u and e_bar must be set"
CAP = "uplink power cap must be finite and strictly positive"


@pytest.mark.parametrize("change, expected", [
    ({"n_antennas": 0}, "ue_template.n_antennas: must be at least 1"),
    ({"n_antennas": -1}, "ue_template.n_antennas: must be at least 1"),
    ({"mu": 1.5}, "ue_template.mu: must lie in (0, 1)"),
    ({"e_bar": 10.0}, CAP_SOURCES),
    ({"p_bar_u": None}, CAP_SOURCES),
    ({"p_bar_u": math.inf}, f"ue_template.p_bar_u: {CAP}"),
    ({"p_bar_u": -1.0}, f"ue_template.p_bar_u: {CAP}"),
    ({"p_bar_u": None, "e_bar": 1e-3}, f"ue_template.e_bar: {CAP}"),
    ({"p_sta": math.nan}, "ue_template.circuit: circuit powers must be finite"),
    ({"p_dyn": -1.0}, "ue_template.circuit: circuit powers must be non-negative"),
    ({"gamma_target": -1.0}, "ue_template.gamma_target: must be non-negative"),
    ({"eta": math.nan}, "ue_template.eta: must be finite"),
], ids=["antennas-0", "antennas-minus-1", "mu-1.5", "both-caps", "no-cap", "p_bar_u-inf",
        "p_bar_u-negative", "e_bar-too-small", "p_sta-nan", "p_dyn-negative",
        "gamma_target-negative", "eta-nan"])
def test_python_template_constants_reported_once(paper_scenario, change, expected):
    # a template built in Python is held to the loader's rules, and each of
    # its constants is reported once, not once per UE
    template = dataclasses.replace(paper_scenario.ue_template, **change)
    sc = dataclasses.replace(paper_scenario, ue_template=template)
    with pytest.raises(ConfigError) as exc:
        snapshot_from_scenario(sc)
    assert exc.value.errors == [expected]
    with pytest.raises(ConfigError) as exc:
        sample_batch(sc.cfg, sc.hbs, template, 3)
    assert exc.value.errors.count(expected) == 1


SCENARIO_VALUE_CASES = [
    # NaN passes every < or <= range test, so each value is tested for finiteness
    ("cfg", "tol", math.nan, "scenario.tol: must be finite"),
    ("cfg", "sigma2", math.nan, "scenario.sigma2: must be finite"),
    ("cfg", "delta", math.nan, "scenario.delta: must be finite"),
    ("cfg", "cell_side", math.nan, "scenario.cell_side: must be finite"),
    ("cfg", "delta_t", math.nan, "scenario.delta_t: must be finite"),
    ("cfg", "attenuation_k", math.nan, "scenario.attenuation_k: must be finite"),
    ("hbs", "p_bar_h", math.nan, "hbs.p_bar_h: must be finite"),
    ("hbs", "p_dyn", math.nan, "hbs.circuit: circuit powers must be finite"),
    ("hbs", "p_sta", math.nan, "hbs.circuit: circuit powers must be finite"),
    # finite values out of range
    ("cfg", "delta_t", 0.0, "scenario.delta_t: must be strictly positive"),
    ("cfg", "attenuation_k", -0.09, "scenario.attenuation_k: must be strictly positive"),
    ("cfg", "hbs_placement", "edge", "scenario.hbs_placement: must be 'center' or 'corner'"),
    ("cfg", "max_iter", 0, "scenario.max_iter: must be at least 1"),
    ("cfg", "seed", -1, "scenario.seed: must be non-negative"),
    ("hbs", "p_bar_h", 0.0, "hbs.p_bar_h: must be strictly positive"),
    ("hbs", "n_antennas", 0, "hbs.n_antennas: must be at least 1"),
    ("hbs", "p_dyn", -1.0, "hbs.circuit: circuit powers must be non-negative"),
    ("hbs", "p_sta", -1.0, "hbs.circuit: circuit powers must be non-negative"),
    # finite values whose leakage delta * p_bar_h overflows (p_bar_h is 10 W)
    ("cfg", "delta", 1e308, "scenario.delta: delta * hbs.p_bar_h must be finite"),
]


@pytest.mark.parametrize(
    "part, field, value, expected", SCENARIO_VALUE_CASES,
    # the NaN cases keep the ids they had before the range cases joined them
    ids=[f"{part}-{field}-{expected if isinstance(value, float) and math.isnan(value) else value}"
         for part, field, value, expected in SCENARIO_VALUE_CASES],
)
def test_validate_rejects_non_finite_scenario_values(part, field, value, expected):
    cfg, hbs, template, snap = _valid_parts()
    parts = {"cfg": cfg, "hbs": hbs}
    parts[part] = dataclasses.replace(parts[part], **{field: value})
    assert validate_scenario(parts["cfg"], parts["hbs"], template) == [expected]


@pytest.mark.parametrize("section, key, expected", [
    ("scenario", "delta_db", ["scenario.delta: must be finite"]),
    ("scenario", "sigma2_dbm", ["scenario.sigma2: must be finite"]),
    ("hbs", "p_bar_h_dbm", ["hbs.p_bar_h: must be finite"]),
    ("hbs", "p_dyn_dbm", ["hbs.circuit: circuit powers must be finite"]),
    ("hbs", "p_sta_dbm", ["hbs.circuit: circuit powers must be finite"]),
    ("ue_template", "p_bar_u_dbm", [f"ue_template.p_bar_u: {CAP}"]),
    ("ue_template", "p_dyn_dbm", ["ue_template.circuit: circuit powers must be finite"]),
    ("ue_template", "p_sta_dbm", ["ue_template.circuit: circuit powers must be finite"]),
], ids=lambda v: v if isinstance(v, str) else None)
@pytest.mark.parametrize("value", [4000.0, 5000.0])
def test_overflowing_decibels_reported(section, key, expected, value):
    # 10 ** 400 is past the largest float: the value converts to inf, which
    # the finiteness checks report once, as the file loads
    doc = copy.deepcopy(BASE_DOC)
    doc[section][key] = value
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert err.value.errors == expected


@pytest.mark.parametrize("mu", [0.0, 1.0, -0.5, 1.5])
def test_template_mu_outside_unit_interval_reported(mu):
    doc = copy.deepcopy(BASE_DOC)
    doc["ue_template"]["mu"] = mu
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert err.value.errors == ["ue_template.mu: must lie in (0, 1)"]


@pytest.mark.parametrize("name", ["gamma_target", "eta"])
def test_template_gamma_target_and_eta_reported_at_load(name):
    # reported once, by the loader, not once per UE when a batch is sampled
    doc = copy.deepcopy(BASE_DOC)
    doc["ue_template"][name] = -1
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert err.value.errors == [f"ue_template.{name}: must be non-negative"]


@pytest.mark.parametrize("n_antennas", [0, -1])
def test_template_antennas_below_one_reported(n_antennas):
    # a UE's circuit power scales with its antennas: fewer than one makes
    # p_cir and p_min negative
    doc = copy.deepcopy(BASE_DOC)
    doc["ue_template"]["n_antennas"] = n_antennas
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert err.value.errors == ["ue_template.n_antennas: must be at least 1"]


@pytest.mark.parametrize("distance", [math.nan, math.inf, -math.inf])
def test_path_gain_rejects_non_finite_distance(distance):
    with pytest.raises(ValueError):
        path_gain(distance, 0.09)
    with pytest.raises(ValueError):
        path_gain(np.array([10.0, distance]), 0.09)


def test_validate_reports_every_violation():
    cfg, hbs, template, snap = _valid_parts()
    bad_cfg = ScenarioConfig(num_ues=0, epsilon=2.0, delta=-1.0, sigma2=0.0, tol=0.0)
    errors = validate_scenario(bad_cfg, hbs, template)
    assert len(errors) >= 5


def test_paper_default_parameters_are_valid(paper_scenario):
    # verbatim reference parameter set round-trips through validation; the
    # snapshot constructor runs the per-UE checks and raises on a violation
    snapshot_from_scenario(paper_scenario)
    assert validate_scenario(paper_scenario.cfg, paper_scenario.hbs,
                             paper_scenario.ue_template) == []


def test_derived_fields_exact():
    cfg, hbs, template, snap = _valid_parts()
    # p_min * mu * g == p_cir must hold exactly in floating point
    assert snap.p_min[0] * snap.mu[0] * snap.g[0] == pytest.approx(template.p_cir, rel=1e-15)
    assert hbs.p_cir == 2 * 1.0 + 0.5


def test_bundled_configs_parse(paper_scenario, desk_scenario):
    assert paper_scenario.cfg.num_ues == 5
    assert [fu.distance for fu in paper_scenario.fixed_ues] == [41, 25, 37, 16, 8]
    assert [fu.gamma_target for fu in paper_scenario.fixed_ues] == [0.04, 0.05, 0.07, 0.08, 0.1]
    # desk variant differs only in the UE circuit powers
    assert desk_scenario.ue_template.p_dyn == pytest.approx(1e-6)
    assert desk_scenario.ue_template.p_sta == pytest.approx(1e-6)
    assert desk_scenario.hbs.p_bar_h == pytest.approx(10.0)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_scenario(tmp_path / "nope.json")


def test_load_scenario_roundtrip(tmp_path, paper_scenario):
    import dataclasses
    path = tmp_path / "copy.json"
    with open("configs/paper_4a.json") as fh:
        doc = json.load(fh)
    path.write_text(json.dumps(doc))
    again = load_scenario(path)
    assert dataclasses.asdict(again.cfg) == dataclasses.asdict(paper_scenario.cfg)


REQUIRED_KEYS = [
    ("scenario", "num_ues"), ("scenario", "epsilon"), ("scenario", "delta_db"),
    ("scenario", "sigma2_dbm"), ("hbs", "p_bar_h_dbm"), ("hbs", "p_dyn_dbm"),
    ("hbs", "p_sta_dbm"), ("ue_template", "gamma_target"), ("ue_template", "p_dyn_dbm"),
    ("ue_template", "p_sta_dbm"),
]


def test_absent_optional_keys_take_the_dataclass_defaults():
    doc = {section: {key: BASE_DOC[section][key] for s, key in REQUIRED_KEYS if s == section}
           for section in ("scenario", "hbs", "ue_template")}
    doc["ue_template"]["p_bar_u_dbm"] = 30.0
    sc = scenario_from_dict(doc)
    for part, names in [
        (sc.cfg, ("delta_t", "attenuation_k", "cell_side", "hbs_placement", "seed", "tol",
                  "max_iter")),
        (sc.hbs, ("n_antennas",)),
        (sc.ue_template, ("eta", "n_antennas", "e_bar")),
    ]:
        defaults = {f.name: f.default for f in dataclasses.fields(part)}
        assert {name: getattr(part, name) for name in names} == {n: defaults[n] for n in names}
    assert sc.ue_template.mu is None


@pytest.mark.parametrize("section, key", REQUIRED_KEYS)
def test_missing_required_key_reported(section, key):
    doc = copy.deepcopy(BASE_DOC)
    del doc[section][key]
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert err.value.errors == [f"{section}.{key}: missing key"]


def test_every_missing_key_reported_at_once():
    doc = copy.deepcopy(BASE_DOC)
    for section, key in REQUIRED_KEYS:
        del doc[section][key]
    doc["fixed_ues"] = [{"distance": 10.0}, {"mu": 0.5}]
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert err.value.errors == [
        *(f"{section}.{key}: missing key" for section, key in REQUIRED_KEYS),
        "fixed_ues[1].distance: missing key",
    ]


@pytest.mark.parametrize("path, value, expected", [
    (("scenario", "num_ues"), "five", "scenario.num_ues: must be a number, got 'five'"),
    (("scenario", "epsilon"), None, "scenario.epsilon: must be a number, got None"),
    (("scenario", "seed"), math.nan, "scenario.seed: must be a number, got nan"),
    (("hbs", "p_dyn_dbm"), [38.0], "hbs.p_dyn_dbm: must be a number, got [38.0]"),
    (("ue_template", "mu"), "half", "ue_template.mu: must be a number, got 'half'"),
    (("fixed_ues", 1, "distance"), "far", "fixed_ues[1].distance: must be a number, got 'far'"),
    (("fixed_ues", 0, "eta"), {}, "fixed_ues[0].eta: must be a number, got {}"),
    # int() and float() take these, but they are not JSON numbers
    (("scenario", "epsilon"), "0.5", "scenario.epsilon: must be a number, got '0.5'"),
    (("scenario", "num_ues"), "2", "scenario.num_ues: must be a number, got '2'"),
    (("scenario", "seed"), True, "scenario.seed: must be a number, got True"),
    (("scenario", "num_ues"), True, "scenario.num_ues: must be a number, got True"),
    (("hbs", "p_bar_h_dbm"), False, "hbs.p_bar_h_dbm: must be a number, got False"),
    (("fixed_ues", 0, "gamma_target"), True,
     "fixed_ues[0].gamma_target: must be a number, got True"),
])
def test_non_number_reported(path, value, expected):
    doc = copy.deepcopy(BASE_DOC)
    doc["fixed_ues"] = [{"distance": 10.0}, {"distance": 20.0}]
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step]
    node[key] = value
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert err.value.errors == [expected]


@pytest.mark.parametrize("path", [
    ("scenario", "num_ues"), ("scenario", "seed"), ("scenario", "max_iter"),
    ("hbs", "n_antennas"), ("ue_template", "n_antennas"),
], ids=".".join)
def test_fractional_integer_field_reported(path):
    section, key = path
    doc = copy.deepcopy(BASE_DOC)
    doc[section][key] = 2.7
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert err.value.errors == [f"{section}.{key}: must be a whole number, got 2.7"]
    doc[section][key] = 5.0
    value = scenario_to_dict(scenario_from_dict(doc))[section][key]
    assert value == 5 and isinstance(value, int)


@pytest.mark.parametrize("change, expected", [
    (lambda doc: doc.update(hbs=5), ["hbs: must be an object"]),
    (lambda doc: doc.update(fixed_ues=5), ["fixed_ues: must be a list"]),
    (lambda doc: doc.update(fixed_ues=[10.0, 20.0]),
     ["fixed_ues[0]: must be an object", "fixed_ues[1]: must be an object"]),
    (lambda doc: doc.pop("hbs"), ["$.hbs: missing key"]),
])
def test_sections_of_the_wrong_type_reported(change, expected):
    doc = copy.deepcopy(BASE_DOC)
    change(doc)
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert err.value.errors == expected


def test_document_not_an_object_reported():
    with pytest.raises(ConfigError) as err:
        scenario_from_dict([BASE_DOC])
    assert err.value.errors == ["$: must be an object"]


def test_load_scenario_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"scenario": {"num_ues": 2,}}')
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    [message] = err.value.errors
    assert message.startswith(f"{path}: not valid JSON: ")
