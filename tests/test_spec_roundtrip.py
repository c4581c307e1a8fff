"""Property tests: AdaptSpec emit/parse is lossless.

The emitter in ``repro.adapt.spec`` is what `repro tune` uses to write tuned
specs, so ``AdaptSpec.parse(spec.to_toml()) == spec`` is load-bearing: a
lossy emitter would silently change tuned gains between the search and the
deployed file.  Hypothesis drives the spec constructor through its whole
surface — every controller kind with options drawn from its own search
ranges, published and explicit targets, "auto" warmups, tuned and untuned
rules, engine knobs, attach endpoints, and arbitrary actuator options.
"""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapt.spec import AdaptSpec, LoopSpec
from repro.tune.space import controller_tunables

NEEDS_TOMLLIB = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="TOML parsing needs tomllib (Python 3.11+)"
)

_option_values = st.one_of(
    st.integers(min_value=1, max_value=64),
    st.floats(min_value=1e-3, max_value=64.0, allow_nan=False),
    st.booleans(),
    st.text(alphabet="abcdefghij_", min_size=1, max_size=8),
)


@st.composite
def controller_options(draw: st.DrawFn, kind: str) -> dict[str, object]:
    """Options a spec accepts for ``kind``: values from the kind's own search
    ranges (arbitrary keys are rejected when the spec loads)."""
    options: dict[str, object] = {}
    if kind == "ladder":
        options["levels"] = draw(st.integers(min_value=2, max_value=12))
    for param in controller_tunables(kind, options):
        if not draw(st.booleans()):
            continue
        if param.integer:
            options[param.name] = draw(st.integers(int(param.low), int(param.high)))
        else:
            options[param.name] = draw(st.floats(param.low, param.high, allow_nan=False))
    return options


@st.composite
def loop_specs(draw: st.DrawFn) -> LoopSpec:
    controller = draw(st.sampled_from(["step", "proportional", "pid", "ladder"]))
    options = draw(controller_options(controller))
    target = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
                st.floats(min_value=100.1, max_value=1e9, allow_nan=False),
            ),
        )
    )
    return LoopSpec(
        match=draw(st.text(alphabet="abcz-*?", min_size=1, max_size=10)),
        actuator=draw(st.sampled_from(["log", "cores", "preset"])),
        controller=controller,
        controller_options=options,
        target=target,
        decision_interval=draw(st.integers(min_value=1, max_value=16)),
        warmup=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=32))),
        tune=draw(st.booleans()),
        actuator_options=dict(
            draw(
                st.dictionaries(
                    st.text(alphabet="klmnop_", min_size=1, max_size=8),
                    _option_values,
                    max_size=2,
                )
            )
        ),
    )


@st.composite
def adapt_specs(draw: st.DrawFn) -> AdaptSpec:
    return AdaptSpec(
        draw(st.lists(loop_specs(), min_size=1, max_size=4)),
        window=draw(st.integers(min_value=0, max_value=64)),
        liveness_timeout=draw(
            st.one_of(st.none(), st.floats(min_value=0.1, max_value=60.0, allow_nan=False))
        ),
        interval=draw(st.floats(min_value=0.01, max_value=30.0, allow_nan=False)),
        min_beats=draw(st.integers(min_value=0, max_value=16)),
        attach=draw(
            st.lists(
                st.sampled_from(
                    ["shm://svc", "tcp://127.0.0.1:7717", "file:///tmp/enc.hblog"]
                ),
                max_size=2,
                unique=True,
            )
        ),
    )


class TestDictRoundTrip:
    @settings(max_examples=150)
    @given(spec=adapt_specs())
    def test_dict_round_trip_is_lossless(self, spec):
        assert AdaptSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=150)
    @given(spec=adapt_specs())
    def test_json_round_trip_is_lossless(self, spec):
        assert AdaptSpec.parse(json.dumps(spec.to_dict())) == spec

    @settings(max_examples=100)
    @given(rule=loop_specs())
    def test_loop_mapping_round_trip_is_lossless(self, rule):
        assert LoopSpec.from_mapping(rule.to_dict()) == rule


@NEEDS_TOMLLIB
class TestTomlRoundTrip:
    @settings(max_examples=150)
    @given(spec=adapt_specs())
    def test_toml_round_trip_is_lossless(self, spec):
        assert AdaptSpec.parse(spec.to_toml()) == spec

    def test_auto_warmup_spelling(self):
        spec = AdaptSpec([LoopSpec(match="vm-*", warmup=None)])
        text = spec.to_toml()
        assert 'warmup = "auto"' in text
        assert AdaptSpec.parse(text).loops[0].warmup is None

    def test_published_target_spelling(self):
        spec = AdaptSpec([LoopSpec(match="vm-*", target=None)])
        parsed = AdaptSpec.parse(spec.to_toml())
        assert parsed.loops[0].target is None

    def test_infinite_target_survives(self):
        spec = AdaptSpec([LoopSpec(match="enc-*", target=(28.0, float("inf")))])
        parsed = AdaptSpec.parse(spec.to_toml())
        assert parsed.loops[0].target == (28.0, float("inf"))


class TestEquality:
    def test_differing_gain_is_unequal(self):
        a = AdaptSpec([LoopSpec(match="a", controller="pid",
                                controller_options={"kp": 1.0})])
        b = AdaptSpec([LoopSpec(match="a", controller="pid",
                                controller_options={"kp": 2.0})])
        assert a != b

    def test_non_spec_comparison(self):
        spec = AdaptSpec([LoopSpec(match="a")])
        assert spec != "not a spec"
