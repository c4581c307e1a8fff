"""The scheme table is the contract: these tests are *generated* from it.

``tests/test_endpoints.py`` pins hand-written cases; here every scheme and
every declared query parameter is drawn from ``repro.endpoints``' own table
(``_SCHEMES`` / ``_params``), so a parameter added to a scheme is covered by
the round-trip property, the role matrix and the README reference without a
test being written for it.
"""

from __future__ import annotations

import dataclasses
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.endpoints import (
    _SCHEMES,
    Endpoint,
    EndpointError,
    TcpEndpoint,
    _params,
    open_backend,
    open_collector,
    parameter_reference,
)

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=24,
)
_hosts = st.one_of(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-", min_size=1, max_size=20),
    st.sampled_from(["::1", "fe80::1", "2001:db8::aa"]),
)
_BODY = {
    "name": _text,
    "path": _text,
    "host": _hosts,
    "port": st.integers(min_value=0, max_value=65535),
}
_KIND = {
    "int": st.integers(min_value=1, max_value=1 << 30),
    "float": st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    "bool": st.booleans(),
    "str": _text,
    "host:port": st.sampled_from(["root.example:7717", "127.0.0.1:9", "[::1]:7717"]),
}


def _endpoints(cls: type[Endpoint]) -> st.SearchStrategy[Endpoint]:
    """Every constructible endpoint of one scheme, drawn field by field."""
    params = _params(cls)
    fields = {f.name: _BODY[f.name] for f in dataclasses.fields(cls) if f.name not in params}
    if cls.needs:  # the table says the body is mandatory
        fields[cls.body_field] = fields[cls.body_field].filter(bool)
    for name, param in params.items():
        value = _KIND[param.kind]
        if param.kind == "str" and param.positive:
            value = value.filter(bool)
        fields[name] = st.one_of(st.just(param.default), value)

    def build(drawn: dict) -> Endpoint:
        if cls is TcpEndpoint and drawn["upstream"] is None:
            # The one cross-field rule: relay tuning needs upstream=.
            drawn = {**drawn, "relay_interval": None}
        return cls(**drawn)

    return st.fixed_dictionaries(fields).map(build)


class TestGeneratedFromTheTable:
    @pytest.mark.parametrize("scheme", sorted(_SCHEMES))
    def test_every_field_is_declared_in_the_table_or_is_the_body(self, scheme):
        cls = _SCHEMES[scheme]
        assert cls.scheme == scheme
        undeclared = {f.name for f in dataclasses.fields(cls)} - set(_params(cls))
        assert undeclared <= set(_BODY), undeclared

    @pytest.mark.parametrize("scheme", sorted(_SCHEMES))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_round_trip_every_scheme_every_field(self, scheme, data):
        ep = data.draw(_endpoints(_SCHEMES[scheme]))
        url = str(ep)
        assert Endpoint.parse(url) == ep
        assert str(Endpoint.parse(url)) == url
        assert url.startswith(f"{scheme}://")

    def test_canonical_strings_are_the_parents(self):
        """Byte-for-byte the strings the hand-written ``url()`` bodies produced."""
        for url in [
            "mem://",
            "mem://worker?capacity=4096",
            "file:///var/log/svc.hblog",
            "file://svc.hblog?buffered=0",
            "file://a%20b/c%3Fd.hblog?capacity=8&buffered=0&flush_interval=0.5",
            "shm://svc?depth=65536",
            "mem-arena://fleet?streams=100000&depth=64&stream=row%2F1",
            "shm-arena://fleet?streams=100000",
            "tcp://collector:7717?stream=svc",
            "tcp://[::1]:0",
            "tcp://0.0.0.0:7717?upstream=root%3A7717&journal=%2Fvar%2Flib%2Fhb"
            "&relay_interval=0.02",
            "tcp://10.0.0.1:7717?stream=svc&capacity=64&flush_interval=0.01"
            "&via=127.0.0.1%3A9999&backoff_initial=0.01&backoff_max=0.5",
        ]:
            assert str(Endpoint.parse(url)) == url
        # Aliases and non-canonical spellings normalise, as they always did.
        assert str(Endpoint.parse("shm://s?capacity=32")) == "shm://s?depth=32"
        assert str(Endpoint.parse("TCP://h:1?upstream=r:2")) == "tcp://h:1?upstream=r%3A2"
        assert str(Endpoint.parse("file://x?buffered=yes")) == "file://x"


def _example(kind: str) -> str:
    return {"int": "8", "float": "0.5", "bool": "0", "str": "x", "host:port": "127.0.0.1:9"}[kind]


_ROLE_CASES = [
    (scheme, param.name)
    for scheme, cls in _SCHEMES.items()
    for param in _params(cls).values()
]


class TestRoleMatrix:
    """Each parameter's declared role is what the factories enforce."""

    @staticmethod
    def _url(scheme: str, name: str) -> str:
        param = _params(_SCHEMES[scheme])[name]
        body = {"tcp": "127.0.0.1:1", "file": "x.hblog"}.get(scheme, "role-matrix")
        url = f"{scheme}://{body}?{name}={_example(param.kind)}"
        if scheme == "tcp" and name == "relay_interval":
            url += "&upstream=127.0.0.1:2"
        return url

    @pytest.mark.parametrize("scheme, name", _ROLE_CASES)
    def test_open_backend_rejects_exactly_the_collector_parameters(self, scheme, name):
        param = _params(_SCHEMES[scheme])[name]
        ep = Endpoint.parse(self._url(scheme, name))
        if param.role == "collector":
            with pytest.raises(EndpointError, match="collector-side") as excinfo:
                open_backend(ep)
            assert name in str(excinfo.value)
        else:
            keyword = param.keywords["producer"]
            assert ep._kwargs("producer") == ({} if keyword is None else {keyword: getattr(ep, name)})

    @pytest.mark.parametrize("scheme, name", _ROLE_CASES)
    def test_open_collector_rejects_exactly_the_producer_parameters(self, scheme, name):
        param = _params(_SCHEMES[scheme])[name]
        url = self._url(scheme, name)
        if scheme != "tcp":
            with pytest.raises(EndpointError, match="tcp://"):
                open_collector(url)
        elif param.role == "producer":
            with pytest.raises(EndpointError, match="producer-side") as excinfo:
                open_collector(url)
            assert name in str(excinfo.value)
        elif param.role == "both":
            with pytest.raises(EndpointError, match="need upstream"):
                open_collector(url)  # link tuning without a link
            ep = Endpoint.parse(url + "&upstream=127.0.0.1:2")
            assert ep._kwargs("collector")[param.keywords["collector"]] == getattr(ep, name)
        else:
            ep = Endpoint.parse(url)
            assert ep._kwargs("collector")[param.keywords["collector"]] == getattr(ep, name)

    def test_the_keyword_each_tcp_parameter_feeds(self):
        feeds = {
            name: (param.keywords["producer"], param.keywords["collector"])
            for name, param in _params(TcpEndpoint).items()
        }
        assert feeds == {
            "stream": ("stream", None),
            "capacity": ("capacity", None),
            "flush_interval": ("flush_interval", None),
            "upstream": (None, "upstream"),
            "via": (None, None),  # consumed by dial_address, not a keyword
            "backoff_initial": ("backoff_initial", "relay_backoff_initial"),
            "backoff_max": ("backoff_max", "relay_backoff_max"),
            "journal": (None, "journal"),
            "relay_interval": (None, "relay_interval"),
        }


class TestReadmeReference:
    def test_readme_block_is_the_rendering(self):
        text = README.read_text(encoding="utf-8")
        begin, end = "<!-- endpoint-parameters:begin -->\n", "\n<!-- endpoint-parameters:end -->"
        assert begin in text and end in text
        block = text.split(begin, 1)[1].split(end, 1)[0]
        assert block == parameter_reference()
